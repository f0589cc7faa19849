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
(1-|z|^2)^(-c) for c > 0 (exactly 2 pi / (1-|z|^2) at c = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .quadrature import (TWO_PI, RefinementReport, angular_floor,
                         nested_levels, refine_until)
from .series import PowerSeries


def _ipow(t, n: int):
    """t**n by repeated squaring; numpy's complex pow leaves its fast
    path for large exponents and costs 2x more there."""
    if n <= 64:
        return t ** n
    out = np.ones_like(t)
    base = t
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _check_param(a: complex) -> complex:
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"family parameter must satisfy |a| < 1, got |a| = {abs(a)}")
    return a


def eval_fa(a: complex, z):
    """Evaluate f_a(z) = (1 - |a|^2) / (1 - conj(a) z)^2."""
    a = _check_param(a)
    z = np.asarray(z, dtype=np.complex128)
    den = 1.0 - np.conj(a) * z
    if np.any(np.abs(den) < 1e-15 * (1.0 + abs(a) * np.abs(z))):
        raise PoleError("evaluation point collides with the pole at 1/conj(a)")
    out = (1.0 - abs(a) ** 2) / den ** 2
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WitnessFa:
    """The function f_a as a callable with coefficient access."""

    a: complex

    def __post_init__(self):
        _check_param(self.a)

    @property
    def spike(self) -> float:
        return abs(self.a)

    def __call__(self, z):
        return eval_fa(self.a, z)

    def coefficient(self, k: int) -> complex:
        a = complex(self.a)
        return (1.0 - abs(a) ** 2) * (k + 1) * np.conj(a) ** k

    def series(self) -> PowerSeries:
        return fa_series(self.a)


def fa_series(a: complex) -> PowerSeries:
    """The Taylor series of f_a with its closed form attached."""
    a = _check_param(a)
    amod = abs(a)
    c0 = 1.0 - amod ** 2
    abar = np.conj(a)
    degree = 0 if a == 0 else None
    return PowerSeries.from_generator(
        lambda k: c0 * (k + 1) * abar ** k, degree=degree,
        closed_form=lambda z: eval_fa(a, z), spike=amod)


@dataclass(frozen=True)
class T1T2Split:
    """Closed-form decomposition S_N f_a = t1 + t2."""

    a: complex
    N: int

    def __post_init__(self):
        _check_param(self.a)
        if self.N < 0:
            raise ValueError(f"partial sum order must be >= 0, got {self.N}")

    @property
    def spike(self) -> float:
        return abs(self.a)

    def _t(self, z):
        return np.conj(complex(self.a)) * np.asarray(z, dtype=np.complex128)

    def t1(self, z):
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = one * (1.0 - _ipow(t, self.N + 2)) / (1.0 - t) ** 2
        return complex(out) if out.ndim == 0 else out

    def t2(self, z):
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = -one * (self.N + 2) * _ipow(t, self.N + 1) / (1.0 - t)
        return complex(out) if out.ndim == 0 else out

    def partial(self, z):
        """S_N f_a in closed form, stable for |conj(a) z| < 1."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        w = _ipow(t, self.N + 1)
        out = one * ((1.0 - w * t) / (1.0 - t) ** 2
                     - (self.N + 2) * w / (1.0 - t))
        return complex(out) if out.ndim == 0 else out

    def tail(self, z):
        """f_a - S_N f_a in closed form (no cancellation of large terms)."""
        t = self._t(z)
        one = 1.0 - abs(complex(self.a)) ** 2
        out = one * _ipow(t, self.N + 1) * ((self.N + 2) - (self.N + 1) * t) \
            / (1.0 - t) ** 2
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


@dataclass
class IcValue:
    query: IcQuery
    value: float
    report: RefinementReport

    @property
    def converged(self) -> bool:
        return self.report.converged


def _ic_mean(c: float, z: complex, m: int,
             shift: float = 0.0) -> tuple[float, int]:
    """Mean of |1 - z e^(-i theta)|^(-(1+c)) over the m trapezoid nodes
    theta_k = 2 pi (k + shift) / m, with the points evaluated.

    The integrand depends on theta only through

        |1 - r e^(-i theta)|^2 = (1 - r)^2 + 4 r sin^2(theta / 2),  r = |z|,

    a sum of two nonnegative terms, so it is evaluated in real arithmetic
    with no cancellation, and I_c(z) depends on |z| alone.  It is even in
    theta, so only the nodes in [0, pi] are evaluated, at the angles
    pi j / m with j = 2 shift, 2 shift + 2, ..., <= m: a node at 0 or pi
    is its own mirror image and counts once, every other node twice.  This
    holds for odd and even m, shifted or not.  The sum is numpy's pairwise
    ``np.sum``.
    """
    r = abs(complex(z))
    j = np.arange(2.0 * shift, m + 1, 2.0)
    h = np.multiply(j, np.pi / (2 * m), out=j)         # theta / 2, in place
    np.sin(h, out=h)
    np.square(h, out=h)
    h *= 4.0 * r
    h += (1.0 - r) ** 2
    h **= -0.5 * (1.0 + c)
    if shift == 0.0:                                   # theta = 0
        h[0] *= 0.5
    if 2.0 * shift + 2.0 * (h.size - 1) == m:          # theta = pi
        h[-1] *= 0.5
    return float(2.0 * np.sum(h) / m), int(h.size)


def _ic_levels(c: float, z: complex, floor: int):
    """:func:`_ic_mean` at ``floor << level`` nodes as a nested
    :func:`refine_until` integrator."""
    return nested_levels(
        lambda level, shift: _ic_mean(c, z, floor << level, shift[0]), 1)


def eval_ic(query: IcQuery, tol: float = 1e-10,
            max_nodes: int = 1 << 22) -> IcValue:
    """Evaluate I_c(z) by the spike-aware trapezoid rule.

    I_c(z) depends on |z| only; the rule is :func:`_ic_mean`'s real
    half-circle form, refined by nested doubling.  Points with
    1 - |z| < 1e-12 are outside the practical window; they get a capped
    evaluation flagged as non-converged rather than an exception.
    """
    z = complex(query.z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError(f"I_c is defined for |z| < 1, got |z| = {r}")
    if 1.0 - r < 1e-12:
        mean, points = _ic_mean(query.c, z, max_nodes)
        val = TWO_PI * mean
        report = RefinementReport(complex(val), (points,), np.inf, False, 0)
        return IcValue(query, val, report)
    means = _ic_levels(query.c, z, angular_floor(r))

    def level_value(level: int):
        mean, points = means(level)
        return TWO_PI * mean, points

    report = refine_until(level_value, tol, cap=max_nodes)
    return IcValue(query, float(report.value.real), report)


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
    t2_h1: float
    bound: float
    ratio: float
    converged: bool


def t2_hardy_vs_bound(a: complex, N: int, tol: float = 1e-10,
                      max_nodes: int = 1 << 22) -> T2BoundRatio:
    """Compare ||T2||_H1 with the lower bound L(a, N).

    The boundary modulus of T2 is (1-|a|^2)(N+2)|a|^(N+1) / |1 - |a| e^{i
    theta}|, so its Hardy norm is that prefactor times the mean of the
    reciprocal distance to the boundary point, computed with spike-aware
    nodes.
    """
    a = _check_param(a)
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    s = abs(a)
    if s == 0.0:
        raise ValueError("the lower bound vanishes at a = 0; no ratio")
    bound = blowup_lower_bound(a, N)
    report = refine_until(_ic_levels(0.0, s, angular_floor(s)), tol,
                          cap=max_nodes)
    t2 = (1.0 - s ** 2) * (N + 2) * s ** (N + 1) * float(report.value.real)
    return T2BoundRatio(t2_h1=t2, bound=bound, ratio=t2 / bound,
                        converged=report.converged)
