"""Catalog of test functions driving the experiment runners.

An entry is a name and its one-variable series factors: it stands for
the product f(z) = prod_j f_j(z_j), a function of one variable when it
has one factor, as the disc is ``polydisc(1)``.  Its partial sums are
square partial sums, the terms with max_j alpha_j <= N, the product of
the factors' S_N; its tail f - S_N is their telescoping sum.  Each
factor gives its own S_N and tail (``PowerSeries.partial``/``tail``):

    extremal family   closed forms from the two-term split, so high
                      orders cost the same
    polynomials       their coefficients up to N, and above N

One builder, :func:`sum_of_products`, makes the evaluators of products
and of sums of products: a product is the one-term sum, and each holds
its ``terms``.

A spike tag declares a function holomorphic past the closed unit
polydisc: 0.0 for polynomials, |a| for the f_a family, one tag per
factor; ``None`` declares nothing.  A factor's S_N, a polynomial, is
tagged min(|s_j|, N/(N+1)); a sum of products derives its declarations
from its factors, so tails carry the entry's tag.  The default catalog is
seeded so polynomial coefficients, and hence every derived table, are
reproducible.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .series import PowerSeries
from .witnesses import fa_series


@dataclass(frozen=True, eq=False)
class TaggedEvaluator:
    """Callable wrapper carrying the declarations the estimators read.

    A tag s (one per coordinate, or a scalar for all) sets the angular
    floors and declares ``fn`` holomorphic on the polydisc of radii
    1/|s_j|, entire for s = 0; the Hardy estimators then integrate on the
    boundary.  ``None`` declares nothing.  ``conj_symmetric``, which
    declares fn(conj z) = conj fn(z) so that the norm estimators evaluate
    |fn|^p on half of each tensor grid, is fn's own: fn's attribute, or
    for a bound method its object's, as ``witnesses.T1T2Split`` declares
    its closed forms; a callable that declares nothing stays undeclared.
    """

    fn: Callable
    spike: float | tuple | None = None

    @property
    def conj_symmetric(self) -> bool:
        owner = self.fn.__self__ if inspect.ismethod(self.fn) else None
        return bool(getattr(self.fn, "conj_symmetric",
                            getattr(owner, "conj_symmetric", False)))

    def __call__(self, *z):
        return self.fn(*z)


def sum_of_products(terms) -> Callable:
    """(z_1, ..., z_n) -> sum_k terms[k][0](z_1) * ... * terms[k][n-1](z_n):
    each term's factors multiplied left to right, the terms added left to
    right.  A product is the one-term sum; a single factor is itself.

    An empty sum or term, terms of unequal length and a call with other
    than n coordinates are refused.  The callable holds its ``terms``,
    per-axis factor tuples, which the norm estimators read in several
    variables (``quadrature.torus_cosets``).  It declares what its factors
    do: on each axis the tag of largest modulus, ``None`` when a factor
    there declares nothing (a scalar in one variable), as a sum is
    holomorphic where every term is; ``conj_symmetric`` when every factor
    is, as conjugate symmetry survives products and sums."""
    terms = tuple(tuple(term) for term in terms)
    if not terms or not terms[0]:
        raise ValueError(f"a sum of products needs a factor, got {terms}")
    n = len(terms[0])
    if any(len(term) != n for term in terms):
        raise ValueError(f"terms need one factor per coordinate, got "
                         f"{[len(term) for term in terms]} factors")
    if len(terms) == 1 and n == 1:
        return terms[0][0]

    def fn(*zs):
        if len(zs) != n:
            raise ValueError(f"expected {n} coordinates, got {len(zs)}")
        acc = None
        for term in terms:
            out = np.asarray(term[0](zs[0]))
            for f, z in zip(term[1:], zs[1:]):
                out = out * np.asarray(f(z))
            acc = out if acc is None else acc + out
        return acc
    fn.terms = terms
    axes = [[getattr(t[j], "spike", None) for t in terms] for j in range(n)]
    spike = [None if None in tags else max(tags, key=abs) for tags in axes]
    fn.spike = tuple(spike) if n > 1 else spike[0]
    fn.conj_symmetric = all(getattr(f, "conj_symmetric", False)
                            for term in terms for f in term)
    return fn


def _partial(s: PowerSeries, N: int) -> TaggedEvaluator:
    """S_N of the series s, tagged min(|s|, N/(N+1)), ``None`` if s is:
    S_N is entire, so it takes the floor of its degree, not the pole's."""
    tag = None if s.spike is None else min(abs(s.spike), N / (N + 1.0))
    return TaggedEvaluator(s.partial(N), tag)


@dataclass(frozen=True, eq=False)
class RegistryEntry:
    """A named test function, the product of its one-variable series
    ``factors``, with evaluators for it and its partial sums, each one
    :func:`sum_of_products`."""

    name: str
    factors: tuple

    def __post_init__(self):
        if not (self.factors and all(isinstance(s, PowerSeries)
                                     for s in self.factors)):
            raise TypeError(f"{self.name!r} needs one-variable PowerSeries "
                            f"factors, got {self.factors!r}")

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def spike(self) -> float | tuple | None:
        """The evaluator's: the factors' tags, a scalar in one variable."""
        return self.evaluator.spike

    @property
    def conj_symmetric(self) -> bool:
        """The evaluator's: whether every factor is conj_symmetric."""
        return self.evaluator.conj_symmetric

    @cached_property
    def evaluator(self) -> Callable:
        """The product of the factors; in one variable the series itself."""
        return sum_of_products([self.factors])

    def partial_evaluator(self, N: int) -> Callable:
        """Pointwise evaluator of the square partial sum of order N, the
        product of the factors' S_N; in one variable this is S_N f.

        Each factor is tagged min(|s_j|, N/(N+1)) (:func:`_partial`): a
        polynomial keeps no pole, so its floors follow its degree.  Tails
        keep the entry's tag, as they keep the pole."""
        return sum_of_products([[_partial(s, N) for s in self.factors]])

    def tail_evaluator(self, N: int) -> Callable:
        """Pointwise evaluator of f minus its order-N square partial sum.

        Free of the cancellation in f - S_N f: the sum over j of f1 ...
        f(j-1) tj S(j+1) ... Sn with the factors' tails tj, each tagged
        with its series' own tag; in one variable, the factor's tail."""
        tails = [TaggedEvaluator(s.tail(N), s.spike) for s in self.factors]
        parts = [_partial(s, N) for s in self.factors[1:]]
        return sum_of_products(self.factors[:j] + (t, *parts[j:])
                               for j, t in enumerate(tails))


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


def _format_a(a: float) -> str:
    return format(float(a), "g")


def fa_entry(a: float, name: str | None = None) -> RegistryEntry:
    """Extremal family member (1-|a|^2) / (1 - conj(a) z)^2."""
    return RegistryEntry(name or f"fa-{_format_a(a)}", (fa_series(a),))


def polynomial_entry(name: str, coefficients) -> RegistryEntry:
    return RegistryEntry(name, (PowerSeries.from_coefficients(coefficients),))


def monomial_entry(k: int) -> RegistryEntry:
    coeffs = np.zeros(k + 1, dtype=np.complex128)
    coeffs[k] = 1.0
    return polynomial_entry(f"mono-{k}", coeffs)


def product_entry(factors: tuple[RegistryEntry, ...],
                  name: str | None = None) -> RegistryEntry:
    """Tensor product f(z) = prod_j f_j(z_j) of one-variable entries."""
    if any(f.dim != 1 for f in factors):
        raise ValueError("product factors must be one-variable entries")
    return RegistryEntry(name or "prod-" + "-".join(f.name for f in factors),
                         tuple(f.factors[0] for f in factors))


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
