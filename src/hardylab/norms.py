"""Hardy and Bergman norm estimators on complete Reinhardt domains.

The unit disc is ``polydisc(1)``: its estimators integrate over the same
one-axis torus shells (``quadrature.torus_integrals``) and radial cells
as every other dimension.  One table, ``quadrature._GRID``, holds the
grid policy per dimension: the angular floor and spike scale of each
axis, the radial Gauss order and the base dyadic panel depth.  ``_grid``
reads it and raises the floors, and in one variable the panel depth, for
a declared spike.  The shell rules use the rim's floor; the volume rule
gives each ring the floor of the spike seen from its own radius, doubled
per level, so inner rings are not resolved for a peak they never see.

One-variable conventions: the Hardy p-norm is the supremum over radii of
the normalized circle mean

    sup_{r<1} (1/2pi) int |f(r e^{i t})|^p dt,

while the Bergman p-norm integrates |f|^p against plain area measure with
no normalization.  In several variables the Hardy norm follows the
frontier convention: the supremum over frontier radius vectors of the
unnormalized torus integral of |f|^p.  The two normalizations are kept
exactly as stated; values across dimensions differ by powers of 2pi by
design.

A spike tag on every axis is a declaration: f is holomorphic on the
polydisc of radii 1/|s_j| (a tag 0.0 declares an entire axis).  Circle
means of |f|^p are nondecreasing in the radius and, for such f,
continuous up to the boundary, so the Hardy supremum is the boundary
mean itself.  The Hardy estimators then integrate |f|^p once on the
boundary shells with doubling angular refinement; the trapezoid rule
converges geometrically there, at the rate set by the spike.  For an
undeclared f, or a frontier shell that reaches past 1/|s_j|, the
supremum is approached along the dyadic ladder r_k = 1 - 2^{-k}: each
rung is integrated the same way, and the ladder stops once consecutive
rungs agree to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (TWO_PI, _GRID, angular_floor,
                         doubled_torus_integrals, dyadic_panels, _panel_gauss,
                         refine_until, torus_integrals, torus_levels)
from .reinhardt import (ReinhardtDomain, frontier_sample, polydisc,
                        section_tops)


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with the ladder evidence behind it."""

    value: float
    space: str                      # "H" for Hardy, "A" for Bergman
    p: float
    ladder: tuple                   # shell parameters visited, innermost first
    ladder_values: tuple            # p-th power shell values per rung
    tail_increments: tuple          # trailing relative increments
    converged: bool


def _grid(f, spike, n):
    """Per-axis spike moduli and angular floors, radial Gauss order, base
    panel depth, and whether f is declared holomorphic past the rim.

    A spike tag (keyword, else ``f.spike``; one per coordinate, or a
    scalar for all) is parsed into one modulus per axis, 0.0 for none;
    a modulus >= 1 raises ``ValueError``.  A tag on every axis declares
    f holomorphic on the polydisc of radii 1/|s_j|.  The floor of an
    axis is the rim's, about scale / (1 - |spike|); the volume rule
    lowers it ring by ring from the moduli.  In one variable a spike
    also deepens the panel stack so the smallest panel resolves the
    1 - |spike| boundary scale.
    """
    if spike is None:
        spike = getattr(f, "spike", None)
    if isinstance(spike, (tuple, list, np.ndarray)):
        if len(spike) != n:
            raise ValueError(f"need one spike tag per coordinate, got {spike}")
    else:
        spike = (spike,) * n
    declared = all(s is not None for s in spike)
    spikes = tuple(0.0 if s is None else float(abs(s)) for s in spike)
    _, _, order, depth = _GRID[min(n, 3)]
    floors = tuple(angular_floor(s, n) for s in spikes)
    if n == 1 and spikes[0] > 0.0:
        depth = max(depth,
                    math.ceil(math.log2(1.0 / (1.0 - spikes[0]))) + 2)
    return spikes, floors, order, depth, declared


def _abs_power(f, p):
    return lambda *z: np.abs(np.asarray(f(*z), dtype=np.complex128)) ** p


def hardy_norm_disc(f, p: float = 1.0, tol: float = 1e-6, *,
                    k_max: int = 24, spike=None,
                    max_nodes: int = 1 << 20) -> NormEstimate:
    """Hardy p-norm of f on the unit disc.

    f is any vectorized callable on complex arrays.  A spike tag (the
    modulus s of a boundary concentration point, from the function
    itself or the keyword) raises the angular floor to resolve narrow
    boundary peaks, and declares f holomorphic on |z| < 1/|s| (entire for
    s = 0).  A declared f is integrated on the unit circle alone: the
    estimate reports ``ladder=(1.0,)``, the boundary mean as its one
    ladder value and the last relative change of the angular refinement
    as its tail increment.  An undeclared f climbs the dyadic radius
    ladder, which stops when two rungs agree to ``tol``; sharper peaks
    need more rungs, and the default k_max resolves tails with values up
    to roughly 1e3 * (1 - |s|)^-1 contrast.
    """
    if p <= 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    _, (floor,), _, _, declared = _grid(f, spike, 1)
    g = _abs_power(f, p)
    quad_tol = max(0.25 * tol, 1e-14)

    def circle_mean(r):
        shell = torus_levels(g, [[r]], (floor,))

        def mean(level):
            vals, points = shell(level)
            return vals[0] / TWO_PI, points
        return refine_until(mean, quad_tol, cap=max_nodes)

    if declared:
        rep = circle_mean(1.0)
        v = float(rep.value.real)
        return NormEstimate(value=v ** (1.0 / p), space="H", p=float(p),
                            ladder=(1.0,), ladder_values=(v,),
                            tail_increments=(rep.rel_change,),
                            converged=bool(rep.converged))
    rungs, vals, incs = [], [], []
    quad_ok = True
    tail_ok = False
    for k in range(1, k_max + 1):
        r = 1.0 - 2.0 ** -k
        rep = circle_mean(r)
        quad_ok = quad_ok and rep.converged
        v = float(rep.value.real)
        rungs.append(r)
        if vals:
            incs.append((v - vals[-1]) / max(abs(v), abs(vals[-1]), 1e-300))
        vals.append(v)
        if incs and abs(incs[-1]) <= tol:
            tail_ok = True
            break
    return NormEstimate(value=max(vals) ** (1.0 / p), space="H", p=float(p),
                        ladder=tuple(rungs), ladder_values=tuple(vals),
                        tail_increments=tuple(incs[-3:]),
                        converged=bool(quad_ok and tail_ok))


def bergman_norm_disc(f, p: float = 1.0, tol: float = 1e-8, *,
                      spike=None, max_nodes: int = 1 << 28) -> NormEstimate:
    """Bergman p-norm on the unit disc, plain area measure.

    The ``polydisc(1)`` case of :func:`bergman_norm_reinhardt`, with a
    tighter default tolerance and a larger node budget.
    """
    return _bergman(f, p, tol, polydisc(1), spike, max_nodes)


def _maximal_rows(radii: np.ndarray) -> np.ndarray:
    """Indices of rows not componentwise dominated by another row.

    Circle means of |f|^p are nondecreasing in each radius coordinate, so
    dominated frontier shells cannot carry the supremum and are skipped.
    """
    rj, ri = radii[:, None, :], radii[None, :, :]     # [j, i] compares j to i
    covers = (np.all(rj >= ri - 1e-12, axis=2)
              & np.any(rj > ri + 1e-12, axis=2))
    # of exact duplicates the first row is kept
    twins = np.triu(np.all(np.abs(rj - ri) <= 1e-12, axis=2), 1)
    return np.flatnonzero(~np.any(covers | twins, axis=0))


def hardy_norm_reinhardt(f, p: float = 1.0, domain: ReinhardtDomain = None,
                         dirs: int = 64, tol: float = 1e-6, *,
                         k_max: int = 24, spike=None,
                         max_nodes: int = 1 << 24) -> NormEstimate:
    """Hardy p-norm over a complete Reinhardt domain.

    Value^p is the supremum over sampled frontier shells of the
    unnormalized torus integral of |f|^p.  Shells dominated componentwise
    by another sampled shell are pruned, which leaves a single shell on a
    polydisc and the full sample on a ball.  When a spike tag on every
    axis declares f holomorphic on the polydisc of radii 1/|s_j| and every
    remaining shell radius satisfies r_j |s_j| < 1, the shells themselves
    carry the supremum: the estimate integrates them at the one dilation
    t = 1 and reports the last relative change of the angular refinement
    as its tail increment.  Otherwise each shell is approached along the
    dilation ladder t_k = 1 - 2^{-k}, which must settle to ``tol``.
    """
    if domain is None:
        raise ValueError("a ReinhardtDomain is required")
    if p <= 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    spikes, floors, _, _, declared = _grid(f, spike, domain.dim)
    sample = frontier_sample(domain, dirs)
    shells = sample.radii[_maximal_rows(sample.radii)]
    boundary = declared and bool(np.all(shells * np.array(spikes) < 1.0))
    ts = (np.ones(1) if boundary
          else 1.0 - 2.0 ** -np.arange(1, k_max + 1, dtype=np.float64))
    quad_tol = max(0.25 * tol, 1e-14)
    quad_ok = True
    quad_change = 0.0
    best = None
    g = _abs_power(f, p)
    for radii in shells:
        levels = torus_levels(g, ts[:, None] * radii, floors)
        prev = None
        level = 0
        ok = False
        change = np.inf
        while True:
            vec, _ = levels(level)
            if prev is not None:
                diff = float(np.max(np.abs(vec - prev)))
                den = max(float(vec.max()), float(prev.max()), 1e-300)
                change = diff / den
                if change <= quad_tol:
                    ok = True
                    break
            nxt = int(np.prod([m << (level + 1) for m in floors]))
            if nxt > max_nodes or not np.all(np.isfinite(vec)):
                break
            prev = vec
            level += 1
        quad_ok = quad_ok and ok
        quad_change = max(quad_change, change)
        best = vec if best is None else np.maximum(best, vec)
    vals = best
    if boundary:
        incs, tail_ok = np.array([quad_change]), True
    else:
        incs = np.diff(vals) / np.maximum(
            np.maximum(np.abs(vals[1:]), np.abs(vals[:-1])), 1e-300)
        tail_ok = bool(incs.size and abs(incs[-1]) <= tol)
    return NormEstimate(value=float(np.max(vals)) ** (1.0 / p), space="H",
                        p=float(p), ladder=tuple(ts.tolist()),
                        ladder_values=tuple(vals.tolist()),
                        tail_increments=tuple(incs[-3:].tolist()),
                        converged=bool(quad_ok and tail_ok))


def _radial_cells(domain: ReinhardtDomain, depth: int, order: int):
    """Tensor radial cells filling the radius region of the domain.

    Coordinates are swept in order; each coordinate gets dyadic panels on
    [0, top] where top solves the gauge section over the radii already
    fixed.  Returns (cells, weights) with the polar jacobian prod r_j
    folded into the weights.
    """
    unit_nodes, unit_w = _panel_gauss(dyadic_panels(depth), order)
    q = unit_nodes.size
    cells = np.zeros((1, 0))
    weights = np.ones(1)
    for j in range(domain.dim):
        tops = section_tops(domain, cells)
        nodes = tops[:, None] * unit_nodes[None, :]            # (m, q)
        wj = (tops[:, None] * unit_w[None, :]) * nodes         # jacobian r_j
        cells = np.concatenate([np.repeat(cells, q, axis=0),
                                nodes.reshape(-1, 1)], axis=1)
        weights = (weights[:, None] * wj).reshape(-1)
    return cells, weights


def bergman_norm_reinhardt(f, p: float = 1.0, domain: ReinhardtDomain = None,
                           tol: float = 1e-6, *, spike=None,
                           max_nodes: int = 1 << 27) -> NormEstimate:
    """Bergman p-norm over a complete Reinhardt domain, plain volume."""
    if domain is None:
        raise ValueError("a ReinhardtDomain is required")
    return _bergman(f, p, tol, domain, spike, max_nodes)


def _bergman(f, p, tol, domain, spike, max_nodes) -> NormEstimate:
    """Refine radial cells x torus shells until the volume integral of
    |f|^p settles; report its p-th root.

    Each level deepens the dyadic radial panels, which pile up toward the
    rim where holomorphic mass concentrates, and doubles every angular
    count.  The counts are set ring by ring: a cell with coordinate radii
    r_j gets the floor of the spike seen from its own radius,
    ``angular_floor(r_j |s_j|)``, on axis j, since the trapezoid error on
    that ring decays like (r_j |s_j|)^m.  Rings at r_j >= 1, on domains
    wider than the unit polydisc, keep the rim's floor.  Cells with equal
    counts share one shell call; their sums go back in cell order before
    the one dot product with the weights, so values do not depend on the
    grouping.

    A level keeps every radial panel of the one before but the last, so a
    cell whose radius vector the previous level also had carries its sum
    over: the level adds only the half-shifted cosets of that cell's
    previous grid (``doubled_torus_integrals``) and evaluates the cells of
    the two new rim panels afresh.  It reports the points it evaluated.
    """
    if p <= 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    n = domain.dim
    spikes, _, order, depth, _ = _grid(f, spike, n)
    g = _abs_power(f, p)
    carried = {}                    # radius vector bytes -> last level's sum

    def level_fn(level):
        cells, weights = _radial_cells(domain, depth + level, order)
        radii = np.minimum(cells, 1.0)
        counts = np.stack([angular_floor(radii[:, j] * s, n)
                           for j, s in enumerate(spikes)], axis=1) << level
        keys = [row.tobytes() for row in cells]
        kept = np.array([k in carried for k in keys], dtype=np.int64)
        # a carried cell is evaluated at its previous counts, shifted
        groups, inverse = np.unique(
            np.column_stack([kept, counts >> kept[:, None]]), axis=0,
            return_inverse=True)
        inverse = inverse.reshape(-1)
        sums = np.empty(cells.shape[0])
        points = 0
        for k, (old, *ms) in enumerate(groups.tolist()):
            rows = np.flatnonzero(inverse == k)
            if old:
                sums[rows], pts = doubled_torus_integrals(
                    g, cells[rows], ms, [carried[keys[i]] for i in rows])
            else:
                sums[rows] = torus_integrals(g, cells[rows], ms)
                pts = rows.size * math.prod(ms)
            points += pts
        carried.clear()
        carried.update(zip(keys, sums.tolist()))
        return complex(float(sums @ weights)), (points,)

    rep = refine_until(level_fn, max(tol, 1e-14), cap=max_nodes)
    return NormEstimate(value=max(rep.value.real, 0.0) ** (1.0 / p),
                        space="A", p=float(p), ladder=(), ladder_values=(),
                        tail_increments=(rep.rel_change,),
                        converged=bool(rep.converged))


def monotonicity_check(f, p: float, r, R, tol: float = 1e-9, *,
                       spike=None) -> bool:
    """Check the shell ordering r <= R implies I(r) <= I(R).

    I(s) is the unnormalized torus integral of |f|^p over the shell with
    radius vector s; both shells share one grid so the comparison is free
    of quadrature bias.  Slack is tol * max(1, I(R)).
    """
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    R = np.atleast_1d(np.asarray(R, dtype=np.float64))
    if r.shape != R.shape or r.ndim != 1:
        raise ValueError("shell radius vectors must share one shape")
    if np.any(r < 0) or np.any(R < r):
        raise ValueError("need componentwise 0 <= r <= R")
    _, floors, _, _, _ = _grid(f, spike, r.size)
    i_r, i_R = torus_integrals(_abs_power(f, p), np.vstack([r, R]),
                               [m << 1 for m in floors])
    return bool(i_r <= i_R + tol * max(1.0, i_R))
