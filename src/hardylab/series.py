"""Power series, Taylor and square partial sums, contour coefficient recovery.

Two routes to the same partial sum are kept side by side on purpose:
truncating the coefficient sequence, and applying the discrete Cauchy
integral with the truncated geometric kernel

    sum_{j=0..N} z^j / xi^(j+1)  =  (1 - (z/xi)^(N+1)) / (xi - z).

Their pointwise agreement on polynomial batteries is one of the standing
cross-checks of the package.  Coefficients are recovered from point values
by the trapezoid discretization of the Cauchy integral,

    a_j ~ (1/M) sum_k f(R w^k) w^(-jk) / R^j,   w = e^(2 pi i / M),

which is exact for polynomials of degree below M and is refined by node
doubling otherwise.  Every contour route doubles through
:func:`hardylab.quadrature.refine_until`, compared in max-norm over the
recovered block, under one budget on the total node count that no grid
exceeds; changes at the roundoff level of the samples count as agreement,
so vanishing coefficients and partial sums settle like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (AliasingError, CoefficientUnavailable, NonConvergenceError,
                     SingularKernelError)
from .quadrature import refine_until, unit_nodes


def _polyval(x, c):
    """sum_k c[k] x^k for a 1-d coefficient array c, by Horner's rule.

    The operations and their order are those of
    ``np.polynomial.polynomial.polyval`` (c[-1] + x * 0, then
    c[k] + acc * x), so the values agree bit for bit, but the accumulator
    is updated in place instead of allocating two arrays per degree.
    ``x`` is never written.  A single point is left to numpy: it rounds a
    one-element complex product differently in place.
    """
    if np.size(x) <= 1:
        return np.polynomial.polynomial.polyval(x, c)
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        np.multiply(acc, x, out=acc)
        np.add(ck, acc, out=acc)
    return acc


def _f17(x: float) -> str:
    return format(float(x), ".17g")


class PowerSeries:
    """A one-variable Taylor series sum a_k z^k.

    Coefficients come either from a stored finite list (a polynomial) or
    from a generator function ``k -> a_k`` memoized on demand.  An optional
    ``closed_form`` callable provides fast evaluation; ``spike`` declares
    the modulus s of a pole-like parameter so norm quadratures can set their
    angular node floors.  A tag also promises the series is holomorphic on
    |z| < 1/|s| (entire for s = 0), so Hardy norms are taken on the unit
    circle; ``None`` promises nothing.  A series of known finite degree is
    a polynomial, hence entire, and its tag defaults to 0.0.
    """

    def __init__(self, *, coefficients=None, coefficient_fn=None, degree=None,
                 closed_form=None, spike=None):
        if (coefficients is None) == (coefficient_fn is None):
            raise ValueError("give exactly one of coefficients / coefficient_fn")
        self.closed_form = closed_form
        if coefficients is not None:
            coeffs = [complex(c) for c in coefficients]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            if coeffs == [0j]:
                self._degree = -1
            else:
                self._degree = len(coeffs) - 1
            self._cache = coeffs
            self._fn = None
        else:
            self._fn = coefficient_fn
            self._cache = []
            self._degree = degree
        self.spike = 0.0 if spike is None and self.is_polynomial else spike

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[complex], **kw) -> "PowerSeries":
        return cls(coefficients=list(coefficients), **kw)

    @classmethod
    def from_generator(cls, coefficient_fn: Callable[[int], complex],
                       degree: int | None = None, **kw) -> "PowerSeries":
        return cls(coefficient_fn=coefficient_fn, degree=degree, **kw)

    @property
    def degree(self) -> int | None:
        """Largest index with nonzero coefficient; -1 for the zero series,
        None when the series is not known to be a polynomial."""
        return self._degree

    @property
    def is_polynomial(self) -> bool:
        return self._degree is not None

    def coefficient(self, k: int) -> complex:
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        if self._fn is None:
            return self._cache[k] if k < len(self._cache) else 0j
        while len(self._cache) <= k:
            i = len(self._cache)
            if self._degree is not None and i > self._degree:
                self._cache.append(0j)
                continue
            try:
                self._cache.append(complex(self._fn(i)))
            except Exception as exc:
                raise CoefficientUnavailable(
                    f"coefficient generator failed at index {i}") from exc
        return self._cache[k]

    def coefficients(self, upto: int) -> np.ndarray:
        return np.array([self.coefficient(k) for k in range(upto + 1)],
                        dtype=np.complex128)

    def __call__(self, z):
        if self.closed_form is not None:
            return self.closed_form(z)
        if self.is_polynomial:
            d = max(self._degree, 0)
            return _polyval(np.asarray(z, dtype=np.complex128),
                            self.coefficients(d))
        return self.eval_by_coefficients(z)

    def eval_by_coefficients(self, z, tol: float = 5e-16, max_terms: int = 200000):
        """Sum the series termwise; valid strictly inside the radius of
        convergence, where terms decay geometrically."""
        z = np.asarray(z, dtype=np.complex128)
        if self.is_polynomial:
            return _polyval(z, self.coefficients(max(self._degree, 0)))
        acc = np.zeros_like(z)
        power = np.ones_like(z)
        quiet = 0
        # overflow is the divergence signal here, not an anomaly
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(max_terms):
                term = self.coefficient(k) * power
                acc = acc + term
                scale = float(np.max(np.abs(acc)))
                if not np.isfinite(scale):
                    raise NonConvergenceError(
                        "series terms overflowed; point is outside the "
                        "convergence radius")
                if float(np.max(np.abs(term))) <= tol * max(scale, 1e-300):
                    quiet += 1
                    if quiet >= 4 and k >= 8:
                        return acc
                else:
                    quiet = 0
                power = power * z
        raise NonConvergenceError(
            "series evaluation did not stabilize; point may be outside the "
            "convergence radius")


class MultiIndexSeries:
    """A several-variable series sum a_alpha z^alpha with finite support.

    ``coefficients`` maps multi-indices (tuples of length ``dim``) to
    complex values.  ``inf_degree`` is max_j alpha_j over the support.
    """

    def __init__(self, dim: int, coefficients: Mapping[tuple, complex], *,
                 spike=None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        clean = {}
        support_max = 0
        for alpha, val in coefficients.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dim {dim}")
            c = complex(val)
            if c != 0:
                clean[alpha] = c
                support_max = max(support_max, max(alpha))
        self.coeffs = clean
        self.inf_degree = support_max
        self.spike = spike

    def coefficient(self, alpha) -> complex:
        return self.coeffs.get(tuple(int(a) for a in alpha), 0j)

    def support(self) -> list[tuple]:
        return sorted(self.coeffs)

    def dense(self) -> np.ndarray:
        shape = tuple(self.inf_degree + 1 for _ in range(self.dim))
        out = np.zeros(shape, dtype=np.complex128)
        for alpha, c in self.coeffs.items():
            out[alpha] = c
        return out

    def __call__(self, *zs):
        if len(zs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(zs)}")
        zs = [np.asarray(z, dtype=np.complex128) for z in zs]
        if self.dim > 1:
            # the polyval helpers require equal shapes, not broadcastable ones
            zs = np.broadcast_arrays(*zs)
        c = self.dense()
        if self.dim == 1:
            return _polyval(zs[0], c)
        if self.dim == 2:
            return np.polynomial.polynomial.polyval2d(zs[0], zs[1], c)
        if self.dim == 3:
            return np.polynomial.polynomial.polyval3d(zs[0], zs[1], zs[2], c)
        out = np.zeros(np.broadcast(*zs).shape, dtype=np.complex128)
        for alpha, coef in sorted(self.coeffs.items()):
            term = np.full_like(out, coef)
            for z, a in zip(zs, alpha):
                if a:
                    term = term * z ** a
            out = out + term
        return out

    def eval_grid(self, axes: list[np.ndarray]) -> np.ndarray:
        """Evaluate on the tensor grid axes[0] x ... x axes[n-1].

        Contracts the dense coefficient tensor with one Vandermonde matrix
        per coordinate; output axis j runs over axes[j].
        """
        if len(axes) != self.dim:
            raise ValueError("one axis per coordinate required")
        t = self.dense()
        for j in range(self.dim):
            ax = np.asarray(axes[j], dtype=np.complex128)
            vand = ax[:, None] ** np.arange(self.inf_degree + 1)[None, :]
            t = np.moveaxis(np.tensordot(vand, t, axes=(1, j)), 0, j)
        return t


@dataclass(frozen=True)
class PartialSumReport:
    """A constructed partial sum together with how it was built."""

    N: int
    series: PowerSeries
    method: str                      # "truncation" or "contour"
    contour_radius: float | None = None


def partial_sum(f: PowerSeries, N: int) -> PowerSeries:
    """Coefficient truncation S_N f = sum_{k<=N} a_k z^k."""
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    return PowerSeries.from_coefficients(f.coefficients(N), spike=f.spike)


def square_partial_sum(F: MultiIndexSeries, N: int) -> MultiIndexSeries:
    """Keep the multi-indices with max_j alpha_j <= N; in one variable
    this is the coefficient truncation S_N."""
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    kept = {a: c for a, c in F.coeffs.items() if max(a) <= N}
    return MultiIndexSeries(F.dim, kept, spike=F.spike)


# Changes between refinement levels up to this multiple of the mean modulus
# of the contour samples are roundoff (the FFT modes carry about one to two
# ulps of it): a value that vanishes, or sits far below its integrand,
# settles there instead of exhausting the node budget.
_ROUNDOFF = 64 * np.finfo(np.float64).eps


def _contour_refined(f: Callable, radius: float, dim: int, m0: int,
                     finish: Callable, tol: float, cap: int, what: str):
    """Sample f on the tensor contour grid with m0 nodes per axis, doubling
    every axis until ``finish(samples)`` settles to ``tol`` in max-norm.

    The level-0 samples set the roundoff floor of the comparison.  A grid
    past ``cap`` nodes in all is refused before it is evaluated.
    """
    def sample(m):
        if m ** dim > cap:
            raise NonConvergenceError(f"{what} did not stabilize within {cap} nodes")
        axes = [radius * unit_nodes(m, j, dim) for j in range(dim)]
        return np.broadcast_to(np.asarray(f(*axes), dtype=np.complex128),
                               (m,) * dim)

    first = sample(m0)
    rep = refine_until(
        lambda level: (finish(first if level == 0 else sample(m0 << level)),
                       (m0 << level,) * dim),
        tol, cap=cap, floor=_ROUNDOFF * float(np.mean(np.abs(first))))
    if not rep.converged:
        raise NonConvergenceError(f"{what} did not stabilize within {cap} nodes")
    return rep.value


def _taylor_block(radius: float, upto: int, dim: int) -> Callable:
    """The coefficients a_alpha, 0 <= alpha_j <= upto, from the FFT of
    contour samples at ``radius``."""
    def finish(vals):
        scale = radius ** -np.arange(upto + 1.0)
        modes = np.fft.fftn(vals)[(slice(0, upto + 1),) * dim] / vals.size
        for j in range(dim):
            modes *= scale.reshape((-1,) + (1,) * (dim - 1 - j))
        return modes
    return finish


def extract_coefficient(f: Callable, j: int, contour_radius: float = 0.75, *,
                        tol: float = 1e-12, cap: int = 1 << 20,
                        start_nodes: int | None = None) -> complex:
    """Recover the j-th Taylor coefficient of f from circle samples.

    Node count starts at max(256, 4(j+1)) and doubles until two successive
    extractions agree to ``tol`` relative; raises on budget exhaustion.
    """
    if j < 0:
        raise ValueError(f"coefficient index must be >= 0, got {j}")
    if contour_radius <= 0.0:
        raise ValueError("contour radius must be positive")
    m0 = start_nodes if start_nodes is not None else max(256, 4 * (j + 1))
    if m0 <= j:
        raise AliasingError(
            f"{m0} nodes alias mode {j}; need node count > {j}")
    block = _taylor_block(contour_radius, j, 1)
    return _contour_refined(f, contour_radius, 1, m0,
                            lambda vals: block(vals)[j], tol, cap,
                            "coefficient extraction")


def block_coefficients(f: Callable, upto: int, contour_radius: float = 0.75, *,
                       tol: float = 1e-12, cap: int = 1 << 20) -> np.ndarray:
    """Recover coefficients 0..upto at once via the FFT of circle samples."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    return _contour_refined(f, contour_radius, 1, max(256, 4 * (upto + 1)),
                            _taylor_block(contour_radius, upto, 1), tol, cap,
                            "block extraction")


def block_coefficients_nd(f: Callable, upto: int, dim: int,
                          contour_radius: float = 0.75, *, tol: float = 1e-12,
                          cap_per_axis: int = 1 << 14) -> np.ndarray:
    """Tensor variant of :func:`block_coefficients` for ``dim`` variables.

    Returns the coefficient tensor for 0 <= alpha_j <= upto, computed by an
    n-dimensional FFT of values on a tensor contour grid, doubling all axes
    until the kept block stabilizes.  The whole grid shares the 2^20-node
    budget of the one-variable routines.
    """
    if upto < 0 or dim < 1:
        raise ValueError("upto must be >= 0 and dim >= 1")
    return _contour_refined(f, contour_radius, dim, max(64, 4 * (upto + 1)),
                            _taylor_block(contour_radius, upto, dim), tol,
                            min(cap_per_axis ** dim, 1 << 20),
                            "tensor block extraction")


def kernel_identity_check(z: complex, xi: complex, N: int) -> float:
    """Absolute gap between the truncated geometric kernel written as a sum
    and in closed form; zero up to roundoff whenever xi != 0, xi != z."""
    if N < 0:
        raise ValueError(f"kernel order must be >= 0, got {N}")
    z = complex(z)
    xi = complex(xi)
    if xi == 0:
        raise SingularKernelError("kernel undefined at xi = 0")
    if xi == z:
        raise SingularKernelError("kernel undefined at xi = z")
    powers = np.arange(N + 1)
    direct = complex(np.sum(z ** powers / xi ** (powers + 1)))
    closed = (1.0 - (z / xi) ** (N + 1)) / (xi - z)
    return abs(direct - closed)


def partial_sum_kernel(f: Callable, N: int, z, contour_radius: float | None = None,
                       *, tol: float = 1e-12, cap: int = 1 << 20):
    """Evaluate (S_N f)(z) through the discrete Cauchy integral with the
    truncated geometric kernel, refining the contour rule by doubling.

    ``z`` may be a scalar or an array of points strictly inside the contour.
    """
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    z = np.asarray(z, dtype=np.complex128)
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    radius = (1.0 + zmax) / 2.0 if contour_radius is None else float(contour_radius)
    if radius <= 0.0:
        raise ValueError("contour radius must be positive")
    if zmax >= radius:
        raise ValueError(
            f"evaluation points must satisfy |z| < contour radius {radius}")
    zcol = z.reshape(-1, 1)

    def kernel_sum(fvals):
        xi = radius * unit_nodes(fvals.size)
        kern = (1.0 - (zcol / xi) ** (N + 1)) / (xi - zcol)
        return (fvals * xi * kern).sum(axis=1) / fvals.size

    out = _contour_refined(f, radius, 1, max(256, 4 * (N + 1)), kernel_sum,
                           tol, cap, "kernel partial sum").reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def partial_sum_with_report(f, N: int, method: str = "truncation", *,
                            contour_radius: float = 0.75,
                            evaluator: Callable | None = None,
                            tol: float = 1e-12) -> PartialSumReport:
    """Build S_N f as a polynomial by either construction route."""
    if method == "truncation":
        return PartialSumReport(N=N, series=partial_sum(f, N), method=method)
    if method == "contour":
        g = evaluator
        if g is None:
            g = f if callable(f) else None
        if g is None:
            raise ValueError("contour construction needs an evaluator")
        coeffs = block_coefficients(g, N, contour_radius, tol=tol)
        series = PowerSeries.from_coefficients(coeffs,
                                               spike=getattr(f, "spike", None))
        return PartialSumReport(N=N, series=series, method=method,
                                contour_radius=contour_radius)
    raise ValueError(f"unknown construction method {method!r}")


# ---------------------------------------------------------------------------
# JSON serialization: {"dim": n, "coeffs": [[alpha_1..alpha_n, re, im], ...]}
# in lexicographic multi-index order, floats with 17 significant digits.
# ---------------------------------------------------------------------------

def series_to_json(s) -> str:
    if isinstance(s, PowerSeries):
        if not s.is_polynomial:
            raise ValueError("only finitely supported series serialize")
        d = max(s.degree, 0)
        rows = [((k,), s.coefficient(k)) for k in range(d + 1)]
        dim = 1
    elif isinstance(s, MultiIndexSeries):
        rows = [(a, s.coeffs[a]) for a in s.support()]
        dim = s.dim
    else:
        raise TypeError(f"cannot serialize {type(s).__name__}")
    parts = []
    for alpha, c in rows:
        cells = [str(int(a)) for a in alpha] + [_f17(c.real), _f17(c.imag)]
        parts.append("[" + ", ".join(cells) + "]")
    return '{"dim": %d, "coeffs": [%s]}' % (dim, ", ".join(parts))


def series_from_json(text: str):
    data = json.loads(text)
    dim = int(data["dim"])
    if dim == 1:
        pairs = {}
        for row in data["coeffs"]:
            k = int(row[0])
            pairs[k] = complex(float(row[1]), float(row[2]))
        d = max(pairs, default=0)
        return PowerSeries.from_coefficients(
            [pairs.get(k, 0j) for k in range(d + 1)])
    coeffs = {}
    for row in data["coeffs"]:
        alpha = tuple(int(a) for a in row[:dim])
        coeffs[alpha] = complex(float(row[dim]), float(row[dim + 1]))
    return MultiIndexSeries(dim, coeffs)
