"""Deterministic quadrature on torus shells and dyadic radial panels.

The norm estimators integrate over torus shells r * T^n, n >= 1, with the
equispaced trapezoid rule in each angle: exact for trigonometric
polynomials of degree below the node count and spectrally accurate for
integrands that extend analytically past the shell.  A circle is the
one-axis shell.  Volumes are integrated in polar form: Gauss-Legendre
panels in each radius with dyadic panel boundaries 1 - 2^-k concentrated
toward the rim (:func:`dyadic_panels`), times the shell rule.  The disc
is not special-cased; ``norms`` treats it as ``polydisc(1)``.

This module owns the two pieces every estimator shares: :func:`unit_nodes`
builds the equispaced nodes e^(2 pi i k / m) on the circle and, shaped for
broadcasting, on the axes of a torus grid; :func:`refine_until` is the one
node-doubling loop, for scalar and array values alike.  The only other
doubling loop is ``norms.hardy_norm_reinhardt``'s, which refines all the
dilations of a frontier shell at once.

Everything here is binary64 and deterministic: node construction, chunking
and accumulation order are fixed functions of the rule parameters, so two
runs with the same inputs produce bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

# Keep vectorized evaluation blocks below ~4M points so big rules do not
# allocate multi-GB scratch arrays.  Fixed constant, hence deterministic.
_CHUNK = 1 << 22

# Hard stop for refine_until; the node budget normally ends a refinement
# long before this many doublings.
_MAX_LEVELS = 40


def unit_nodes(m: int, axis: int = 0, ndim: int = 1) -> np.ndarray:
    """The m equispaced nodes exp(2 pi i k / m) on the unit circle.

    The nodes run along ``axis`` of an ``ndim``-dimensional array whose
    other axes have length one, so the axes of a torus grid broadcast
    against each other.  The exponential is taken in place: building m
    nodes holds one complex array of m values and, briefly, their angles.
    """
    shape = [1] * ndim
    shape[axis] = m
    w = 1j * (TWO_PI * np.arange(m) / m)
    np.exp(w, out=w)
    return w.reshape(shape)


# Grid policy by dimension (3 stands for three or more): angular floor and
# spike scale of each axis, radial Gauss order per panel, base panel
# depth.  Tensor grids in several variables get leaner axes to keep the
# product budget workable.
_GRID = {1: (4096, 64.0, 64, 6), 2: (128, 16.0, 12, 2), 3: (32, 8.0, 8, 1)}


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


def torus_integrals(g: Callable, radii, angular: Sequence[int]) -> np.ndarray:
    """Unnormalized trapezoid integrals of g over the shells radii[k] * T^n.

    ``radii`` holds one radius vector per row, ``angular`` the node count
    of each of the n circle factors.  The integrand is called as
    ``g(z1, ..., zn)`` with coordinate arrays that broadcast to
    (shells, m_1, ..., m_n), in blocks of shells that keep each call near
    ``_CHUNK`` points.  Each result approximates the d theta_1 ...
    d theta_n integral with total mass (2pi)^n, no normalization.
    """
    radii = np.atleast_2d(np.asarray(radii, dtype=np.float64))
    n = radii.shape[1]
    if len(angular) != n:
        raise ValueError("radii and angular node counts must align")
    axes = [unit_nodes(m, j + 1, n + 1) for j, m in enumerate(angular)]
    cells = math.prod(angular)
    block = max(1, _CHUNK // cells)
    sums = []
    for s in range(0, radii.shape[0], block):
        rows = radii[s:s + block]
        zs = [rows[:, j].reshape(-1, *[1] * n) * axes[j] for j in range(n)]
        vals = np.broadcast_to(np.asarray(g(*zs)), (rows.shape[0], *angular))
        sums.append(vals.reshape(rows.shape[0], -1).sum(axis=1))
    return np.concatenate(sums) * math.prod(TWO_PI / m for m in angular)


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
    ``(value, node_counts)``.  The value is a complex scalar or an array;
    successive values are compared in max-norm, relative to the newer one.
    A change of at most ``floor`` also counts as agreement: an absolute
    roundoff level, below which a value that vanishes cannot settle in
    relative terms.  Stops with ``converged=False`` when the node budget
    ``cap`` (product of node counts) is reached or a value comes back
    non-finite.
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
