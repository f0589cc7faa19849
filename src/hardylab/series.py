"""One-variable power series, their Taylor partial sums, and the kernel route.

Every function in the registry is a product of one-variable series, one
factor in one variable (:class:`hardylab.registry.RegistryEntry`); its
square partial sum of order N is the product of the factors' partial sums
S_N.  Each series gives its own S_N and tail f - S_N
(:meth:`PowerSeries.partial`, :meth:`PowerSeries.tail`), from closed forms
when it was given them, else from its coefficients.

Two routes to the same partial sum are kept side by side on purpose:
truncating the coefficient sequence, and applying the discrete Cauchy
integral with the truncated geometric kernel

    sum_{j=0..N} z^j / xi^(j+1)  =  (1 - (z/xi)^(N+1)) / (xi - z).

Their pointwise agreement on polynomial batteries is one of the standing
cross-checks of the package.  The kernel route doubles its contour rule
through :func:`hardylab.quadrature.refine_until`, compared in max-norm
over the evaluation points, under a budget on the node count that no
rule exceeds; changes at the roundoff level of the samples count as
agreement, so vanishing partial sums settle like any other.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import CoefficientUnavailable, NonConvergenceError
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


class PowerSeries:
    """A one-variable Taylor series sum a_k z^k.

    Coefficients come either from a stored finite list (a polynomial) or
    from a generator function ``k -> a_k`` memoized on demand.  A call
    goes to the optional ``closed_form`` callable, else sums a series of
    finite degree by Horner's rule, else raises ``ValueError``.  The
    optional ``partial_form`` and ``tail_form`` map an order N to closed
    forms of S_N and of f - S_N (:meth:`partial`, :meth:`tail`).  ``spike``
    declares the modulus s of a pole-like parameter so norm quadratures can
    set their angular node floors.  A tag also promises the series is
    holomorphic on |z| < 1/|s| (entire for s = 0), so Hardy norms are taken
    on the unit circle; ``None`` promises nothing.  A series of known
    finite degree is a polynomial, hence entire, and its tag defaults to
    0.0.  ``conj_symmetric`` declares f(conj z) = conj f(z), which holds
    when every coefficient is real: a coefficient list sets it from its
    entries, a generator from the keyword (default off).
    """

    def __init__(self, *, coefficients=None, coefficient_fn=None, degree=None,
                 closed_form=None, spike=None, partial_form=None,
                 tail_form=None, conj_symmetric=False):
        if (coefficients is None) == (coefficient_fn is None):
            raise ValueError("give exactly one of coefficients / coefficient_fn")
        self.closed_form = closed_form
        self.partial_form = partial_form
        self.tail_form = tail_form
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
            conj_symmetric = all(c.imag == 0 for c in coeffs)
        else:
            self._fn = coefficient_fn
            self._cache = []
            self._degree = degree
        self.conj_symmetric = bool(conj_symmetric)
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

    @cached_property
    def _horner(self) -> np.ndarray:
        """A polynomial's coefficients a_0, ..., a_max(degree, 0), built
        once for :meth:`__call__` and read-only."""
        c = self.coefficients(max(self._degree, 0))
        c.flags.writeable = False
        return c

    def __call__(self, z):
        if self.closed_form is not None:
            return self.closed_form(z)
        if self.is_polynomial:
            return _polyval(np.asarray(z, dtype=np.complex128), self._horner)
        raise ValueError("a series with neither a closed form nor a finite "
                         "degree cannot be evaluated")

    def partial(self, N: int) -> Callable:
        """S_N as a callable: the closed form when one was given, else the
        coefficient truncation :func:`partial_sum`."""
        if self.partial_form is not None:
            return self.partial_form(N)
        return partial_sum(self, N)

    def tail(self, N: int) -> Callable:
        """f - S_N as a callable, N >= 0, free of the cancellation in that
        difference: the closed form when one was given, else, for a
        polynomial, the series of its coefficients above N."""
        if N < 0:
            raise ValueError(f"partial sum order must be >= 0, got {N}")
        if self.tail_form is not None:
            return self.tail_form(N)
        if not self.is_polynomial:
            raise ValueError("a series with neither a closed-form tail nor "
                             "a finite degree has no tail evaluator")
        hi = self.coefficients(max(self._degree, N))
        hi[:N + 1] = 0
        return PowerSeries.from_coefficients(hi, spike=self.spike)


def partial_sum(f: PowerSeries, N: int) -> PowerSeries:
    """Coefficient truncation S_N f = sum_{k<=N} a_k z^k."""
    if N < 0:
        raise ValueError(f"partial sum order must be >= 0, got {N}")
    return PowerSeries.from_coefficients(f.coefficients(N), spike=f.spike)


# Changes between refinement levels up to this multiple of the mean modulus
# of the contour samples count as roundoff: a value that vanishes, or sits
# far below its integrand, settles there instead of exhausting the node
# budget.
_ROUNDOFF = 64 * np.finfo(np.float64).eps


def partial_sum_kernel(f: Callable, N: int, z, contour_radius: float | None = None,
                       *, tol: float = 1e-12, cap: int = 1 << 20):
    """Evaluate (S_N f)(z) through the discrete Cauchy integral with the
    truncated geometric kernel, refining the contour rule by doubling.

    ``z`` may be a scalar or an array of points strictly inside the contour.
    The rule starts at max(256, 4(N + 1)) nodes and doubles until the sums
    settle to ``tol`` in max-norm; the level-0 samples set the roundoff
    floor of the comparison.  A rule past ``cap`` nodes is refused before
    f is sampled on it.
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
    failed = f"kernel partial sum did not stabilize within {cap} nodes"

    def sample(m):
        if m > cap:
            raise NonConvergenceError(failed)
        xi = radius * unit_nodes(m)
        return xi, np.broadcast_to(np.asarray(f(xi), dtype=np.complex128),
                                   (m,))

    def kernel_sum(xi, fvals):
        kern = (1.0 - (zcol / xi) ** (N + 1)) / (xi - zcol)
        return (fvals * xi * kern).sum(axis=1) / xi.size

    m0 = max(256, 4 * (N + 1))
    first = sample(m0)
    rep = refine_until(
        lambda level: (kernel_sum(*(first if level == 0
                                    else sample(m0 << level))),
                       (m0 << level,)),
        tol, cap=cap, floor=_ROUNDOFF * float(np.mean(np.abs(first[1]))))
    if not rep.converged:
        raise NonConvergenceError(failed)
    out = rep.value.reshape(z.shape)
    return complex(out) if out.ndim == 0 else out
