"""Catalog of test functions driving the experiment runners.

Each entry bundles a series representation, a vectorized evaluator, and
the metadata the norm estimators need (spike location, polynomial
degree).  A spike tag also declares the entry, its partial sums and its
tails holomorphic past the closed unit polydisc: 0.0 for polynomials,
|a| for the f_a family, the factors' tags for products; ``None``
declares nothing.  Tails carry the entry's tag; a partial sum of order
N, a polynomial, carries min(|s_j|, N/(N+1)) on each axis.  A
several-variable entry is a product of one-variable entries, and its
partial sums are square partial sums: they keep the multi-indices with
max_j alpha_j <= N, the product of the factors' S_N.  One pair,
``partial_evaluator``/``tail_evaluator``, serves every entry, with fast
paths where a closed form exists, so high orders cost the same:

    products          the factors' partials, and a telescoping tail
    extremal family   partial and tail from the two-term split
    polynomials       their coefficients up to N, and above N

The default catalog is seeded so polynomial coefficients, and hence
every derived table, are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .series import PowerSeries, partial_sum
from .witnesses import T1T2Split, WitnessFa, fa_series


@dataclass(frozen=True, eq=False)
class TaggedEvaluator:
    """Callable wrapper carrying the spike tag the estimators read.

    A tag s (one per coordinate, or a scalar for all) sets the angular
    floors and declares ``fn`` holomorphic on the polydisc of radii
    1/|s_j|, entire for s = 0; the Hardy estimators then integrate on the
    boundary.  ``None`` declares nothing.
    """

    fn: Callable
    spike: float | tuple | None = None

    def __call__(self, *z):
        return self.fn(*z)

    @property
    def factors(self) -> tuple | None:
        """The one-variable factors of ``fn`` when it is a product, else
        ``None``."""
        return getattr(self.fn, "factors", None)


def product_evaluator(fns) -> Callable:
    """(z_1, ..., z_n) -> fns[0](z_1) * ... * fns[n-1](z_n), left to right.

    The callable holds the one-variable callables as its ``factors``; the
    norm estimators read them to integrate a product factor by factor
    (``quadrature.torus_cosets``)."""
    fns = tuple(fns)

    def fn(*zs):
        if len(zs) != len(fns):
            raise ValueError(f"expected {len(fns)} coordinates, got {len(zs)}")
        out = np.asarray(fns[0](zs[0]))
        for f, z in zip(fns[1:], zs[1:]):
            out = out * np.asarray(f(z))
        return out
    fn.factors = fns
    return fn


def _degree_tag(spike, N: int):
    """The spike tag of an order-N partial sum: min(|s_j|, N/(N+1)) on each
    axis.  A polynomial of degree N on an axis is entire there, so any tag
    is a true declaration; this one sets the floor of degree N instead of
    the pole's.  ``None`` stays ``None``."""
    if spike is None:
        return None
    if np.ndim(spike):
        return tuple(_degree_tag(s, N) for s in spike)
    return min(abs(spike), N / (N + 1.0))


@dataclass(frozen=True, eq=False)
class RegistryEntry:
    """A named test function with evaluators for it and its partial sums."""

    name: str
    dim: int
    evaluator: Callable
    series: PowerSeries | None = None
    spike: float | tuple | None = None
    degree: int | None = None
    factors: tuple | None = None
    partial_factory: Callable | None = field(default=None, repr=False)
    tail_factory: Callable | None = field(default=None, repr=False)

    def partial_evaluator(self, N: int) -> TaggedEvaluator:
        """Pointwise evaluator of the square partial sum of order N, the
        terms with max_j alpha_j <= N; in one variable this is S_N f.

        It is tagged min(|s_j|, N/(N+1)) on each axis: a polynomial keeps no
        pole, so its floors follow its degree.  Tails keep the entry's tag,
        as they keep the pole."""
        if self.factors is not None:
            fn = product_evaluator([fac.partial_evaluator(N)
                                    for fac in self.factors])
        elif self.partial_factory is not None:
            fn = self.partial_factory(N)
        else:
            fn = partial_sum(self.series, N)
        return TaggedEvaluator(fn, _degree_tag(self.spike, N))

    def tail_evaluator(self, N: int) -> TaggedEvaluator:
        """Pointwise evaluator of f minus its order-N square partial sum.

        Free of the cancellation in f - S_N f for products, as the sum over
        j of f1 ... f(j-1) tj S(j+1) ... Sn with the factors' tails tj, left
        to right, and for polynomials, as their coefficients above N."""
        if self.factors is not None:
            evals = [fac.evaluator for fac in self.factors]
            parts = [fac.partial_evaluator(N) for fac in self.factors]
            terms = [product_evaluator(evals[:j] + [fac.tail_evaluator(N)]
                                       + parts[j + 1:])
                     for j, fac in enumerate(self.factors)]

            def fn(*zs):
                acc = terms[0](*zs)
                for term in terms[1:]:
                    acc = acc + term(*zs)
                return acc
        elif self.tail_factory is not None:
            fn = self.tail_factory(N)
        elif isinstance(self.series, PowerSeries) and self.degree is not None:
            hi = self.series.coefficients(max(self.degree, N))
            hi[:N + 1] = 0
            fn = PowerSeries.from_coefficients(hi, spike=self.spike)
        else:
            sn = self.partial_evaluator(N)

            def fn(*zs):
                return np.asarray(self.evaluator(*zs)) - np.asarray(sn(*zs))
        return TaggedEvaluator(fn, self.spike)


class FunctionRegistry:
    """Name-keyed collection of registry entries."""

    def __init__(self):
        self._entries: dict[str, RegistryEntry] = {}

    def add(self, entry: RegistryEntry) -> RegistryEntry:
        if entry.name in self._entries:
            raise ValueError(f"duplicate registry name {entry.name!r}")
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no registry entry named {name!r}; "
                           f"known: {sorted(self._entries)}") from None

    def entries(self, dim: int | None = None) -> list[RegistryEntry]:
        out = []
        for e in self._entries.values():
            if dim is not None and e.dim != dim:
                continue
            out.append(e)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def _format_a(a: float) -> str:
    return format(float(a), "g")


def fa_entry(a: float, name: str | None = None) -> RegistryEntry:
    """Extremal family member (1-|a|^2) / (1 - conj(a) z)^2."""
    w = WitnessFa(a)
    return RegistryEntry(
        name=name or f"fa-{_format_a(a)}", dim=1, evaluator=w,
        series=fa_series(a), spike=abs(a),
        degree=0 if a == 0 else None,
        partial_factory=lambda N, a=a: T1T2Split(a, N).partial,
        tail_factory=lambda N, a=a: T1T2Split(a, N).tail)


def polynomial_entry(name: str, coefficients) -> RegistryEntry:
    ps = PowerSeries.from_coefficients(coefficients)
    return RegistryEntry(name=name, dim=1, evaluator=ps, series=ps,
                         spike=0.0, degree=ps.degree)


def monomial_entry(k: int) -> RegistryEntry:
    coeffs = np.zeros(k + 1, dtype=np.complex128)
    coeffs[k] = 1.0
    return polynomial_entry(f"mono-{k}", coeffs)


def product_entry(factors: tuple[RegistryEntry, ...],
                  name: str | None = None) -> RegistryEntry:
    """Tensor product f(z) = prod_j f_j(z_j) of one-variable entries."""
    if any(f.dim != 1 for f in factors):
        raise ValueError("product factors must be one-variable entries")
    return RegistryEntry(
        name=name or "prod-" + "-".join(f.name for f in factors),
        dim=len(factors),
        evaluator=product_evaluator([f.evaluator for f in factors]),
        series=None,
        spike=tuple(f.spike for f in factors),
        factors=tuple(factors))


def default_registry(seed: int = 12345) -> FunctionRegistry:
    """The seeded standard catalog used by the runners and the tests."""
    rng = np.random.default_rng(seed)
    reg = FunctionRegistry()
    reg.add(polynomial_entry("const-1", [1.0]))
    for k in (1, 2, 5):
        reg.add(monomial_entry(k))
    for deg in (3, 7, 12):
        coeffs = rng.uniform(-1.0, 1.0, deg + 1) \
            + 1j * rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[deg] += 2.0     # keep the top coefficient well away from 0
        reg.add(polynomial_entry(f"poly-{deg}", coeffs))
    for a in (0.0, 0.5, 0.9, 0.99, 0.999):
        reg.add(fa_entry(a))

    fa05 = reg.get("fa-0.5")
    fa09 = reg.get("fa-0.9")
    reg.add(product_entry((fa09, fa09), name="prod-fa-0.9"))
    reg.add(product_entry((fa09, fa05), name="prod-fa-0.9-0.5"))
    reg.add(product_entry((reg.get("mono-1"), reg.get("mono-2")),
                          name="mono2-1-2"))
    return reg
