"""Extremal test functions and singular integral asymptotics.

The family

    f_a(z) = (1 - |a|^2) / (1 - conj(a) z)^2
           = sum_k (1 - |a|^2) (k+1) (conj(a) z)^k,      |a| < 1,

has boundary modulus equal to the Poisson kernel at a, hence unit Hardy
H^1 norm for every a, while its Taylor partial sums develop large H^1
norms as a -> 1 along the schedule a = N/(N+1).  The partial sum splits
into two closed-form pieces,

    S_N f_a = T1 + T2,
    T1 =  (1-|a|^2) (1 - t^(N+2)) / (1-t)^2,     t = conj(a) z,
    T2 = -(1-|a|^2) (N+2) t^(N+1) / (1-t),

with ||T1||_H1 <= 2 uniformly and ||T2||_H1 bounded below by a multiple of

    L(a, N) = (1-|a|^2) |a|^(N+1) (N+2) log(1/(1-|a|)).

The sharpness of that lower bound is probed through the boundary integrals

    I_c(z) = integral_0^2pi |1 - z e^(-i theta)|^(-(1+c)) d theta,

bounded for c < 0, logarithmic at c = 0, and growing like
(1-|z|^2)^(-c) for c > 0 (exactly 2 pi / (1-|z|^2) at c = 1, and
2 pi 2F1((1+c)/2, (1+c)/2; 1; |z|^2) in general).  Near |z| = 1 the
integrand is analytic only in a strip of half-width eps = 1 - |z|, so I_c
is integrated in the Moebius variable phi, e^(i theta) = (e^(i phi) + rho)
/ (1 + rho e^(i phi)) with 1 - rho = sqrt(2 eps), whose strip is about
sqrt(2 eps) wide: 14,311 trapezoid nodes at |z| = 0.99999 instead of about
6.4 million (``_ic_mean`` gives the integrand).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .quadrature import (TWO_PI, NormEstimate, RefinementReport,
                         angular_floor, half_circle, nested_levels,
                         refine_until)
from .series import PowerSeries


def _ipow(t, n: int):
    """t**n by repeated squaring; numpy's complex pow leaves its fast
    path for large exponents and costs 2x more there.  Returns a new
    array; the squarings run in place on a copy of t."""
    if n <= 64:
        return np.asarray(t ** n)
    out = np.ones_like(t)
    base = np.array(t)
    while n:
        if n & 1:
            out *= base
        n >>= 1
        if n:
            base *= base
    return out


def _check_param(a: complex) -> complex:
    a = complex(a)
    if not abs(a) < 1.0:                               # NaN too
        raise ValueError(f"family parameter must satisfy |a| < 1, got |a| = {abs(a)}")
    return a


def eval_fa(a: complex, z):
    """Evaluate f_a(z) = (1 - |a|^2) / (1 - conj(a) z)^2."""
    a = _check_param(a)
    z = np.asarray(z, dtype=np.complex128)
    den = 1.0 - np.conj(a) * z
    # |a| |z| = |1 - den| <= 1 + |den|, so this refuses every point that
    # |den| < 1e-15 (1 + |a| |z|) would, in one pass over |den|
    if np.min(np.abs(den), initial=np.inf) < 2.5e-15:
        raise PoleError("evaluation point collides with the pole at 1/conj(a)")
    out = (1.0 - abs(a) ** 2) / den ** 2
    return complex(out) if out.ndim == 0 else out


def fa_series(a: complex) -> PowerSeries:
    """The Taylor series of f_a with its closed forms attached: f_a itself,
    and S_N f_a and f_a - S_N f_a from the split (:class:`T1T2Split`).  It
    is declared ``conj_symmetric`` when a is real, since its coefficients
    then are."""
    a = _check_param(a)
    amod = abs(a)
    c0 = 1.0 - amod ** 2
    abar = np.conj(a)
    degree = 0 if a == 0 else None
    return PowerSeries.from_generator(
        lambda k: c0 * (k + 1) * abar ** k, degree=degree,
        closed_form=functools.partial(eval_fa, a), spike=amod,
        partial_form=lambda N: T1T2Split(a, N).partial,
        tail_form=lambda N: T1T2Split(a, N).tail,
        conj_symmetric=a.imag == 0)


@dataclass(frozen=True)
class T1T2Split:
    """Closed-form decomposition S_N f_a = t1 + t2.

    For real a each closed form, ``partial``, ``t1``, ``t2`` and ``tail``,
    has real Taylor coefficients, so g(conj z) = conj g(z): the split
    declares ``conj_symmetric``, and ``registry.TaggedEvaluator`` takes
    the declaration from any of its bound methods."""

    a: complex
    N: int

    def __post_init__(self):
        _check_param(self.a)
        if self.N < 0:
            raise ValueError(f"partial sum order must be >= 0, got {self.N}")

    @property
    def conj_symmetric(self) -> bool:
        return complex(self.a).imag == 0

    # The four evaluators below own t = conj(a) z and every intermediate,
    # so they update them in place; the caller's z is never written.  Each
    # keeps its closed form's operations in their original order, so on two
    # or more points the values are the plain expressions' bit for bit.  A
    # single point agrees to roundoff: numpy rounds a one-element complex
    # product differently in place.

    def _t(self, z):
        return np.asarray(np.conj(complex(self.a))
                          * np.asarray(z, dtype=np.complex128))

    def t1(self, z):
        """one * (1 - t^(N+2)) / (1 - t)^2."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = _ipow(t, self.N + 2)
        np.subtract(1.0, out, out=out)
        np.multiply(one, out, out=out)
        np.subtract(1.0, t, out=t)
        t **= 2
        out /= t
        return complex(out) if out.ndim == 0 else out

    def t2(self, z):
        """-one * (N + 2) * t^(N+1) / (1 - t)."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = _ipow(t, self.N + 1)
        np.multiply(-one * (self.N + 2), out, out=out)
        np.subtract(1.0, t, out=t)
        out /= t
        return complex(out) if out.ndim == 0 else out

    def partial(self, z):
        """S_N f_a = t1 + t2 over one denominator, one complex division:
        one * ((1 - w t) - (N + 2) w (1 - t)) / (1 - t)^2, w = t^(N+1).
        It cancels as t1 + t2 do, so it is as accurate; |conj(a) z| < 1."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        w = _ipow(t, self.N + 1)
        out = np.asarray(w * t)
        np.subtract(1.0, out, out=out)
        np.subtract(1.0, t, out=t)                     # t is now 1 - t
        w *= self.N + 2
        w *= t
        out -= w
        t **= 2
        out /= t
        out *= one
        return complex(out) if out.ndim == 0 else out

    def tail(self, z):
        """f_a - S_N f_a in closed form (no cancellation of large terms):
        one * t^(N+1) * ((N + 2) - (N + 1) t) / (1 - t)^2."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = _ipow(t, self.N + 1)
        np.multiply(one, out, out=out)
        lin = np.asarray((self.N + 1) * t)
        np.subtract(self.N + 2, lin, out=lin)
        out *= lin
        np.subtract(1.0, t, out=t)
        t **= 2
        out /= t
        return complex(out) if out.ndim == 0 else out


def blowup_lower_bound(a: complex, N: int) -> float:
    """L(a, N) = (1-|a|^2) |a|^(N+1) (N+2) log(1/(1-|a|))."""
    a = _check_param(a)
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    s = abs(a)
    return (1.0 - s ** 2) * s ** (N + 1) * (N + 2) * np.log(1.0 / (1.0 - s))


def blowup_schedule(N: int) -> float:
    """The parameter a_N = N/(N+1) that makes S_N capture the spike."""
    if N < 0:
        raise ValueError(f"schedule order must be >= 0, got {N}")
    return N / (N + 1.0)


@dataclass(frozen=True)
class IcQuery:
    """A request for I_c(z)."""

    c: float
    z: complex


def _ic_mean(c: float, z: complex, m: int,
             shift: float = 0.0) -> tuple[float, int]:
    """Mean over the m trapezoid nodes phi_k = 2 pi (k + shift) / m of
    I_c's integrand in the Moebius variable phi, e^(i theta) = (e^(i phi)
    + rho) / (1 + rho e^(i phi)), with the points evaluated.

    With eps = 1 - |z| and delta = 1 - rho = min(1, sqrt(2 eps)), never
    formed as 1 - rho, the integrand is num^(-(1+c)/2) den^((c-1)/2)
    delta (2 - delta), where (r = |z|)

        num = eps^2 (2-delta)^2 + 4 (eps + delta r)(delta - eps) sin^2(phi/2),
        den = delta^2 + 4 (1 - delta) cos^2(phi/2):

    sums of nonnegative terms, so there is no cancellation, and I_c(z)
    depends on |z| alone.  The map widens the spike at theta = 0 from
    half-width eps to about eps / delta and puts its own pole, of half-width
    about delta / 2, at phi = pi; delta = sqrt(2 eps) balances the two, so the
    rule converges like exp(-m sqrt(2 eps)), not exp(-m eps).  The
    integrand is even in phi, so only the nodes in [0, pi] are evaluated
    (``quadrature.half_circle``, the half circle of the norm estimators),
    at pi j / m with j = 2 (k + shift): a node at 0 or pi is its own
    mirror image and counts once, every other node twice.  The sum is
    numpy's pairwise ``np.sum``.
    """
    r = abs(complex(z))
    eps = 1.0 - r
    delta = _ic_delta(eps)
    count, ends = half_circle(m, shift)
    j = 2.0 * (np.arange(count) + shift)
    step = np.pi / (2 * m)                             # phi / 2 = j * step
    h = np.sin(j * step)
    h *= h
    # cos(phi/2) as sin((pi - phi)/2) of the exact m - j: the integrand
    # varies on the scale delta near phi = pi, so np.cos of a rounded
    # phi/2 cost up to 3.6e-14 relative there.
    den = np.subtract(m, j, out=j)
    den *= step
    np.sin(den, out=den)
    den *= den
    h *= 4.0 * (eps + delta * r) * (delta - eps)
    h += (eps * (2.0 - delta)) ** 2
    h **= -0.5 * (1.0 + c)
    den *= 4.0 * (1.0 - delta)
    den += delta * delta
    den **= 0.5 * (c - 1.0)
    h *= den
    h *= delta * (2.0 - delta)
    h[list(ends)] *= 0.5
    return float(2.0 * np.sum(h) / m), count


def _ic_delta(eps: float) -> float:
    """1 - rho = min(1, sqrt(2 eps)) of :func:`_ic_mean`'s map."""
    return min(1.0, math.sqrt(2.0 * eps))


def _ic_report(c: float, r: float, tol: float,
               max_nodes: int) -> RefinementReport:
    """The mean of :func:`_ic_mean`, nested-doubled (``floor << L``
    nodes at level L) from the angular floor at distance delta; a floor
    past ``max_nodes`` gets one evaluation at ``max_nodes`` nodes, flagged
    non-converged, so no level exceeds it."""
    floor = angular_floor(1.0 - _ic_delta(1.0 - r))
    if floor > max_nodes:
        mean, points = _ic_mean(c, r, max_nodes)
        return RefinementReport(complex(mean), (points,), np.inf, False, 0)

    def means(level, shifts):
        out = [_ic_mean(c, r, floor << level, shift) for (shift,) in shifts]
        return [mean for mean, _ in out], sum(points for _, points in out)
    return refine_until(nested_levels(means, 1), tol, cap=max_nodes)


def eval_ic(query: IcQuery, tol: float = 1e-10,
            max_nodes: int = 1 << 22) -> NormEstimate:
    """Evaluate I_c(z) by the trapezoid rule in the Moebius variable.

    I_c(z) depends on |z| only; the rule is :func:`_ic_mean`'s real
    half-circle form, refined by nested doubling (:func:`_ic_report`).  A
    non-finite c and a |z| that is not below 1 are refused.  The value
    is I_c itself, and so is the report's.
    """
    r = abs(complex(query.z))
    if not math.isfinite(query.c):
        raise ValueError(f"I_c needs a finite exponent c, got {query.c}")
    if not r < 1.0:
        raise ValueError(f"I_c is defined for |z| < 1, got |z| = {r}")
    report = _ic_report(query.c, r, tol, max_nodes)
    report.value *= TWO_PI
    return NormEstimate(float(report.value.real), report)


def ic_comparison(c: float, z: complex) -> float:
    """The model growth rate I_c is compared against, with 1 - |z|^2
    taken as (1 - r)(1 + r), free of cancellation as r -> 1."""
    r = abs(complex(z))
    q = (1.0 - r) * (1.0 + r)
    if c > 0:
        return q ** (-c)
    if c == 0:
        return float(np.log(1.0 / q))
    return 1.0


@dataclass
class T2BoundRatio:
    """||T2||_H1 against L(a, N), with the report of its I_0 refinement."""

    t2_h1: float
    bound: float
    ratio: float
    report: RefinementReport

    @property
    def converged(self) -> bool:
        return self.report.converged


def t2_hardy_vs_bound(a: complex, N: int, tol: float = 1e-10,
                      max_nodes: int = 1 << 22) -> T2BoundRatio:
    """Compare ||T2||_H1 with the lower bound L(a, N).

    The boundary modulus of T2 is (1-|a|^2)(N+2)|a|^(N+1) / |1 - |a| e^{i
    theta}|, so its Hardy norm is that prefactor times the mean of the
    reciprocal distance to the boundary point, I_0(|a|) / (2 pi), computed
    by :func:`_ic_report`.  A non-finite a is refused.
    """
    a = _check_param(a)
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    s = abs(a)
    if s == 0.0:
        raise ValueError("the lower bound vanishes at a = 0; no ratio")
    bound = blowup_lower_bound(a, N)
    report = _ic_report(0.0, s, tol, max_nodes)
    t2 = (1.0 - s ** 2) * (N + 2) * s ** (N + 1) * float(report.value.real)
    return T2BoundRatio(t2_h1=t2, bound=bound, ratio=t2 / bound,
                        report=report)
