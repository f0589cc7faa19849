"""Deterministic quadrature on torus shells and dyadic radial panels.

The norm estimators integrate over torus shells r * T^n, n >= 1, with the
equispaced trapezoid rule in each angle: exact for trigonometric
polynomials of degree below the node count and spectrally accurate for
integrands that extend analytically past the shell.  A circle is the
one-axis shell.  Volumes are integrated in polar form: Gauss-Legendre
panels in each radius with dyadic panel boundaries 1 - 2^-k concentrated
toward the rim (:func:`dyadic_panels`), times the shell rule.  The disc
is not special-cased; ``norms`` treats it as ``polydisc(1)``.

This module owns the pieces every estimator shares: :func:`unit_nodes`
builds the equispaced nodes e^(2 pi i (k + shift) / m) on the circle and,
shaped for broadcasting, on the axes of a torus grid; :func:`refine_until`
is the node-doubling driver, for scalar and array values alike; and
:func:`doubled` is the one nested-doubling step.  The trapezoid rule with
2m nodes is the mean of the m-node rule and its copy shifted by half a
step, so a level that doubles every count of n axes evaluates only the
2^n - 1 half-shifted cosets of the previous grid and reuses its value
(:func:`doubled_torus_integrals`).  Every doubling loop steps this way:
the volume and shell rules of ``norms``, the frontier loop of
``norms.hardy_norm_reinhardt``, which refines all its frontier shells at
once, and the circle integrals of ``witnesses``.

Everything here is binary64 and deterministic: node construction, chunking
and accumulation order are fixed functions of the rule parameters, so two
runs with the same inputs produce bit-identical values.

:func:`torus_integrals` evaluates its integrand in blocks of whole shell
rows of about ``_CHUNK`` points, sized for the cache rather than for the
memory limit.  An integrand is a chain of elementwise numpy passes
(f(z), products, ``np.abs``, ``** p``), and each pass streams its
temporaries through memory; a block that fits in the per-core L2 cache
keeps that traffic out of DRAM.  No value depends on the block size: the
integrand is evaluated pointwise, and each shell's sum is one ``np.sum``
over the same elements of one row in the same order, whichever block the
row lands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

# Points per integrand call of torus_integrals, in whole shell rows.  1 << 16
# complex128 points are 1 MiB, so a block and the few temporaries of its
# integrand stay near a 4 MiB L2 cache instead of streaming through DRAM;
# blocks of 1 << 22 points made the perfbench bidisc table 1.6x slower.
# Smaller blocks measured faster on the one-variable tables, larger ones on
# the bidisc (1 << 15: disc 6-14% faster, bidisc 1-7% slower; 1 << 17: disc
# 11-16% slower, bidisc 6% faster; on a 2-vCPU x86-64 VM).  Any value gives
# the same integrals bit for bit: only speed and memory move.
_CHUNK = 1 << 16

# Hard stop for refine_until; the node budget normally ends a refinement
# long before this many doublings.
_MAX_LEVELS = 40


def unit_nodes(m: int, axis: int = 0, ndim: int = 1,
               shift: float = 0.0) -> np.ndarray:
    """The m equispaced nodes exp(2 pi i (k + shift) / m) on the unit circle.

    The nodes run along ``axis`` of an ``ndim``-dimensional array whose
    other axes have length one, so the axes of a torus grid broadcast
    against each other.  ``shift`` = 1/2 gives the nodes of the 2m-node
    rule that the m-node rule lacks.  The exponential is taken in place:
    building m nodes holds one complex array of m values and, briefly,
    their angles.
    """
    shape = [1] * ndim
    shape[axis] = m
    k = np.arange(m) + shift if shift else np.arange(m)
    w = 1j * (TWO_PI * k / m)
    np.exp(w, out=w)
    return w.reshape(shape)


# Grid policy by dimension (3 stands for three or more): angular floor and
# spike scale of each axis, radial Gauss order per panel, base panel
# depth.  Tensor grids in several variables get leaner axes to keep the
# product budget workable.  The angular floor can be low: every level
# doubles every angular count and the trapezoid rule converges
# geometrically in the angle, so refine_until sees the angular error.  The
# radial order cannot: a level deepens only the rim panel, so the Gauss
# error of the inner panels never shows as a change between levels.  At
# tol 1e-6, the A^1 norm of a cubic (poly-3 of default_registry(1)) came
# out 2.2e-6 off with order 16 and converged=True, 2.7e-7 off with order
# 32 and 6.9e-8 with order 64, which is kept.  In two variables the spike
# scale alone holds each ring's error near exp(-16) ~ 1e-7, below the 1e-4
# and 1e-3 tolerances of the two-variable tables, so the base need only
# cover undeclared functions: against 128, base 64 cut the Bergman points
# of the perfbench bidisc table 336M -> 121M and its time by half.  Base 32
# was faster still, but left an untagged 1/(1 - 0.95 z1)^2 on polydisc(2)
# at tol 1e-4 unconverged within the runners' volume budget, where 64 and
# 128 converge.
_GRID = {1: (256, 64.0, 64, 6), 2: (64, 16.0, 12, 2), 3: (32, 8.0, 8, 1)}


def angular_floor(spike: float | np.ndarray | None,
                  dim: int = 1) -> int | np.ndarray:
    """Initial node count of an angular axis in ``dim`` variables (its
    ``_GRID`` row), raised for a declared spike.

    ``spike`` is the modulus of a pole-like parameter sitting at distance
    1 - |spike| from the unit circle; resolving the induced boundary spike
    needs on the order of 1/(1 - |spike|) angular nodes.  ``None`` and 0.0
    give the same floor, but the estimators read a tag as a declaration
    (holomorphic on |z| < 1/|spike|) and ``None`` as none.  The volume rule
    passes an array of r * |spike|, one per radial node: seen from the
    ring of radius r the spike sits at distance 1 - r |spike|, so each
    ring gets its own count (an int64 array; a scalar gives an int).
    """
    base, scale, _, _ = _GRID[min(dim, 3)]
    if spike is None:
        return base
    s = np.abs(spike)
    if np.any(s >= 1.0):
        raise ValueError(f"spike modulus must be < 1, got {np.max(s)}")
    m = np.maximum(base, np.ceil(scale / (1.0 - s)))
    return int(m) if m.ndim == 0 else m.astype(np.int64)


def dyadic_panels(depth: int) -> np.ndarray:
    """Panel boundaries 0, 1-2^-1, ..., 1-2^-depth, 1 of [0, 1]."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return np.array([0.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 1)]
                    + [1.0])


def _panel_gauss(bounds: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = []
    weights = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * x + 0.5 * (hi + lo))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def torus_integrals(g: Callable, radii, angular: Sequence[int],
                    shift: Sequence[float] | None = None) -> np.ndarray:
    """Unnormalized trapezoid integrals of g over the shells radii[k] * T^n.

    ``radii`` holds one radius vector per row, ``angular`` the node count
    of each of the n circle factors and ``shift`` (default none) the
    offset of each axis's nodes in steps, as in :func:`unit_nodes`.  The
    integrand is called as ``g(z1, ..., zn)`` with coordinate arrays that
    broadcast to (shells, m_1, ..., m_n), in blocks of whole shells that
    keep each call near ``_CHUNK`` points (one shell per call when a shell
    is larger); every shell is summed alone, so the block size moves no
    value.  Each result approximates the
    d theta_1 ... d theta_n integral with total mass (2pi)^n, no
    normalization.
    """
    radii = np.atleast_2d(np.asarray(radii, dtype=np.float64))
    n = radii.shape[1]
    shift = (0.0,) * n if shift is None else shift
    if len(angular) != n or len(shift) != n:
        raise ValueError("radii, angular node counts and shifts must align")
    axes = [unit_nodes(m, j + 1, n + 1, h)
            for j, (m, h) in enumerate(zip(angular, shift))]
    cells = math.prod(angular)
    block = max(1, _CHUNK // cells)
    sums = []
    for s in range(0, radii.shape[0], block):
        rows = radii[s:s + block]
        zs = [rows[:, j].reshape(-1, *[1] * n) * axes[j] for j in range(n)]
        vals = np.broadcast_to(np.asarray(g(*zs)), (rows.shape[0], *angular))
        sums.append(vals.reshape(rows.shape[0], -1).sum(axis=1))
    return np.concatenate(sums) * math.prod(TWO_PI / m for m in angular)


def doubled(rule: Callable[[tuple], tuple], n: int, prev):
    """One nested doubling of an n-axis trapezoid rule.

    ``prev`` is the rule's value at some node counts; ``rule(shift)``
    returns ``(value, points)`` at the same counts with the nodes of axis
    j moved by shift[j] steps.  Returns ``(value, points)`` at twice every
    count: the mean of ``prev`` and the 2^n - 1 cosets shifted by half a
    step on a nonempty set of axes, which together hold the nodes of the
    doubled grid, and the points the cosets evaluated.  The rule may be
    normalized or not, as long as each coset is weighted like ``prev``.
    """
    acc, points = prev, 0
    for mask in range(1, 1 << n):
        value, pts = rule(tuple(0.5 * (mask >> j & 1) for j in range(n)))
        acc = acc + value
        points += pts
    return acc / (1 << n), points


def doubled_torus_integrals(g: Callable, radii, angular: Sequence[int],
                            prev) -> tuple[np.ndarray, int]:
    """``torus_integrals(g, radii, 2 * angular)`` from ``prev``, its values
    at ``angular``, with the points evaluated: the (2^n - 1) *
    prod(angular) new points of each shell."""
    rows = np.atleast_2d(radii).shape[0]
    return doubled(lambda shift: (torus_integrals(g, radii, angular, shift),
                                  rows * math.prod(angular)),
                   len(angular), np.asarray(prev))


def nested_levels(rule: Callable[[int, tuple], tuple], n: int) -> Callable:
    """A :func:`refine_until` integrator that doubles an n-axis trapezoid
    rule per level by :func:`doubled`.

    ``rule(level, shift)`` returns ``(value, points)`` at the node counts
    of ``level``, the nodes of axis j moved by shift[j] steps.  Level 0 is
    the unshifted rule; level L reuses level L-1's value and evaluates
    only the half-shifted cosets at level L-1's counts.  Each level
    returns its value and the points it evaluated.
    """
    last = []

    def level_fn(level):
        if level == 0:
            value, points = rule(0, (0.0,) * n)
        else:
            value, points = doubled(lambda shift: rule(level - 1, shift), n,
                                    last.pop())
        last.append(value)
        return value, (points,)
    return level_fn


def torus_levels(g: Callable, radii, floors: Sequence[int]) -> Callable:
    """:func:`nested_levels` over torus shells: level L integrates g over
    the shells ``radii`` at the node counts ``floors << L``."""
    rows = np.atleast_2d(radii).shape[0]

    def rule(level, shift):
        ms = [m << level for m in floors]
        return torus_integrals(g, radii, ms, shift), rows * math.prod(ms)
    return nested_levels(rule, len(floors))


@dataclass
class RefinementReport:
    """Outcome of a doubling refinement."""

    value: complex
    node_counts: tuple[int, ...]
    rel_change: float
    converged: bool
    levels: int


def _max_abs(x) -> float:
    return abs(x) if isinstance(x, complex) else float(np.max(np.abs(x)))


def refine_until(integrator: Callable[[int], tuple[complex, Sequence[int]]],
                 tol: float, cap: int = 1 << 20,
                 floor: float = 0.0) -> RefinementReport:
    """Refine by doubling until successive values agree to ``tol`` (relative).

    ``integrator(level)`` evaluates the quantity at refinement level
    ``level`` (level k doubles the node counts of level k-1) and returns
    ``(value, node_counts)``.  The product of the node counts is the
    number of integrand points the level evaluated: a nested level that
    reuses the previous level's value counts only its new points.  The
    levels are called in order, so an integrator may carry state from one
    level to the next.  The value is a complex scalar or an array;
    successive values are compared in max-norm, relative to the newer one.
    A change of at most ``floor`` also counts as agreement: an absolute
    roundoff level, below which a value that vanishes cannot settle in
    relative terms.  Stops with ``converged=False`` when one level's
    points reach the budget ``cap``, level 0 included, or a value comes
    back non-finite.
    """
    prev = None
    rel = np.inf
    for level in range(_MAX_LEVELS + 1):
        value, nodes = integrator(level)
        nodes = tuple(int(m) for m in nodes)
        value = complex(value) if np.ndim(value) == 0 \
            else np.asarray(value, dtype=np.complex128)
        if not np.all(np.isfinite(value)):
            return RefinementReport(value, nodes, np.inf, False, level)
        if prev is not None:
            diff = _max_abs(value - prev)
            rel = 0.0 if diff == 0.0 else diff / max(_max_abs(value), 1e-300)
            if rel <= tol or diff <= floor:
                return RefinementReport(value, nodes, rel, True, level)
        if math.prod(nodes) >= cap:
            return RefinementReport(value, nodes, rel, False, level)
        prev = value
    return RefinementReport(prev, nodes, rel, False, _MAX_LEVELS)
