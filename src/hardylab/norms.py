"""Hardy and Bergman norm estimators on complete Reinhardt domains.

The unit disc is ``polydisc(1)``: its estimators integrate over the same
one-axis torus shells (``quadrature.torus_integrals``) and radial cells
as every other dimension.  One table, ``quadrature._GRID``, holds the
grid policy per dimension: the angular floor and spike scale of each
axis, the radial Gauss order and the base dyadic panel depth.  ``_grid``
reads it and raises the floors, and in one variable the panel depth, for
a declared spike.  The shell rules use the rim's floor; the volume rule
gives each ring the floor of the spike seen from its own radius, rounded
up onto a ladder of at most eight counts per octave and doubled per
level, so inner rings are not resolved for a peak they never see and
rings with equal counts share one shell call.  The angular floors are
lean: every level doubles every angular count, so the stopping rule
sees the angular error.  A level deepens only the rim panel, so the
radial Gauss order of the inner panels stays high (see ``_GRID``),
except where a declared pole bounds its error: in one variable a panel
of width h at distance d from the pole takes max(8, ceil(2 order h / d))
points, at most the order (:func:`_panel_orders`).

One-variable conventions: the Hardy p-norm is the supremum over radii of
the normalized circle mean

    sup_{r<1} (1/2pi) int |f(r e^{i t})|^p dt,

while the Bergman p-norm integrates |f|^p against plain area measure with
no normalization.  In several variables the Hardy norm follows the
frontier convention: the supremum over frontier radius vectors of the
unnormalized torus integral of |f|^p.  The two normalizations are kept
exactly as stated; values across dimensions differ by powers of 2pi by
design.

A Hardy norm is the boundary mean: by Duren, *Theory of H^p Spaces*,
ch. 2, ||f||_{H^p} = ||f*||_{L^p(T)}, since circle means of |f|^p are
nondecreasing in the radius and reach the boundary mean in the limit.
The Hardy estimators therefore integrate |f|^p once on the boundary
shells, with doubling angular refinement, and need f declared
holomorphic past them: a spike tag on every axis declares f holomorphic
on the polydisc of radii 1/|s_j| (a tag 0.0 declares an entire axis), so
the trapezoid rule converges geometrically on the shells, at the rate
set by the spike.  An undeclared f is refused, and so is a domain whose
frontier shells reach a declared pole, r_j |s_j| >= 1: f has no Hardy
norm there (:func:`boundary_grid`).

Every estimator builds its integrand |f|^p with :func:`_abs_power`.  When
f holds the ``terms`` of a sum of products (``registry.sum_of_products``),
so does the integrand, with the |.|^p map, and in several variables
``quadrature.torus_cosets`` evaluates each factor once per distinct
radius and shift on its axis; the estimators themselves do not branch.
A product is the one-term sum and is integrated factor by factor, at
sum_j m_j points per shell instead of prod_j m_j: the Hardy norm of a
product, the Bergman norm of its square partial sums (S_N f is the
product of the factors' S_N) and the shell checks take that path on
every domain kind, since the radial cells need not form a product.
Tails and density differences, with several terms, form |f|^p on the
tensor grid from the factor values, bit for bit the callable's own, at
the tensor grid's point count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainModelError
from .quadrature import (TWO_PI, _GRID, NormEstimate, RefinementReport,
                         angular_floor, doubled, dyadic_panels, _panel_gauss,
                         half_shifts, refine_until, torus_cosets,
                         torus_integrals, torus_levels, torus_points)
from .registry import TaggedEvaluator
from .reinhardt import (ReinhardtDomain, _maximal_rows, frontier_sample,
                        polydisc, section_tops)


def _grid(f, n):
    """Per-axis spike moduli and angular floors, radial Gauss order, base
    panel depth, and whether f is declared holomorphic past the rim.

    f's spike tag (``f.spike``; one per coordinate, or a scalar for all)
    is parsed into one modulus per axis, 0.0 for none; a modulus not
    < 1, NaN included, raises ``ValueError``.  A tag on every axis
    declares f holomorphic on the polydisc of radii 1/|s_j|.  The floor of an
    axis is the rim's, about scale / (1 - |spike|); the volume rule
    lowers it ring by ring from the moduli.  In one variable a spike
    also deepens the panel stack so the smallest panel resolves the
    1 - |spike| boundary scale.
    """
    spike = getattr(f, "spike", None)
    if np.ndim(spike) == 0:
        spike = (spike,) * n
    elif len(spike) != n:
        raise ValueError(f"need one spike tag per coordinate, got {spike}")
    declared = all(s is not None for s in spike)
    spikes = tuple(0.0 if s is None else float(abs(s)) for s in spike)
    _, _, order, depth = _GRID[min(n, 3)]
    floors = tuple(angular_floor(s, n) for s in spikes)
    if n == 1 and spikes[0] > 0.0:
        depth = max(depth,
                    math.ceil(math.log2(1.0 / (1.0 - spikes[0]))) + 2)
    return spikes, floors, order, depth, declared


def _abs_power(f, p):
    """|f|^p as an integrand: the power is taken in place on the fresh
    modulus array, and skipped at p = 1, where x ** 1.0 == x exactly.  An
    exponent that is not positive and finite, NaN included, raises
    ``ValueError``.

    When f holds the ``terms`` of a sum of products, a product included,
    the integrand holds them too, with the |.|^p map as its ``map``,
    which ``quadrature.torus_cosets`` applies to the values it forms from
    the terms' factor values.  When f declares ``conj_symmetric``,
    f(conj z) = conj f(z), the integrand is flagged ``conj_even``, since
    |f|^p is then even under z -> conj z; this is the one place a
    function's declaration becomes an integrand's flag."""
    if not 0 < p < np.inf:
        raise ValueError(f"norm exponent must be positive and finite, "
                         f"got {p}")
    def power(v):
        a = np.abs(np.asarray(v, dtype=np.complex128))
        if p != 1:
            a **= p
        return a

    def g(*z):
        return power(f(*z))
    terms = getattr(f, "terms", None)
    if terms is not None:
        g.terms, g.map = terms, power
    g.conj_even = bool(getattr(f, "conj_symmetric", False))
    return g


def boundary_grid(f, domain: ReinhardtDomain, dirs: int = 64) -> tuple:
    """The angular floors and the frontier shells on which a Hardy norm of
    f over ``domain`` is integrated.

    The shells are the sampled frontier radius vectors that no other
    sampled one dominates.  Raises ``ValueError`` unless f's spike tag
    declares every axis, and ``DomainModelError`` when a shell reaches a
    declared pole, r_j |s_j| >= 1 on some axis j.
    """
    spikes, floors, _, _, declared = _grid(f, domain.dim)
    if not declared:
        raise ValueError("a Hardy norm is the boundary mean of an f declared "
                         "holomorphic past the boundary: f needs a spike "
                         "tag on every axis (0.0 for an entire one)")
    sample = frontier_sample(domain, dirs)
    shells = sample[_maximal_rows(sample)]
    reach = shells * np.array(spikes) >= 1.0
    if np.any(reach):
        i, j = np.argwhere(reach)[0]
        raise DomainModelError(
            f"the shell radius {shells[i, j]:g} on axis {j} reaches the pole "
            f"at 1/{spikes[j]:g} declared by the spike tag: f has no Hardy "
            f"norm on this {domain.kind}")
    return floors, shells


def hardy_norm_disc(f, p: float = 1.0, tol: float = 1e-6, *,
                    k_max=None, spike=None,
                    max_nodes: int = 1 << 20) -> NormEstimate:
    """Hardy p-norm of f on the unit disc: the mean of |f|^p on the unit
    circle, to the power 1/p.

    f is any vectorized callable on complex arrays, declared holomorphic
    on |z| < 1/|s| by its spike tag s (0.0 for an entire f), which also
    raises the angular floor to resolve the boundary peak near the spike.
    """
    # k_max is ignored, and a spike tag wraps f at the door; both stay
    # because perfbench/workloads.py:112 passes them
    if spike is not None:
        f = TaggedEvaluator(f, spike)
    g = _abs_power(f, p)
    floors, shells = boundary_grid(f, polydisc(1))
    circle = torus_levels(g, shells, floors)

    def mean(level):
        vals, points = circle(level)
        return vals[0] / TWO_PI, points

    rep = refine_until(mean, max(0.25 * tol, 1e-14), cap=max_nodes)
    return NormEstimate(float(rep.value.real) ** (1.0 / p), rep)


def bergman_norm_disc(f, p: float = 1.0, tol: float = 1e-8, *,
                      max_nodes: int = 1 << 28) -> NormEstimate:
    """Bergman p-norm on the unit disc, plain area measure.

    The ``polydisc(1)`` case of :func:`bergman_norm_reinhardt`, with a
    tighter default tolerance and a larger node budget.
    """
    return _bergman(f, p, tol, polydisc(1), max_nodes)


def hardy_norm_reinhardt(f, p: float, domain: ReinhardtDomain,
                         dirs: int = 64, tol: float = 1e-6, *,
                         max_nodes: int = 1 << 24) -> NormEstimate:
    """Hardy p-norm over a complete Reinhardt domain.

    Value^p is the supremum over sampled frontier shells of the
    unnormalized torus integral of |f|^p (:func:`boundary_grid`).  Shells
    dominated componentwise by another sampled shell are pruned, which
    leaves a single shell on a polydisc and the full sample on a ball.
    The remaining shells are refined together, every angular count
    doubling per level, until the largest change relative to the largest
    shell value is within the tolerance.  A level whose points
    (``quadrature.torus_points``) would exceed ``max_nodes`` is not
    evaluated, and the estimate is then flagged non-converged.  The
    report holds the shell values and the points of the last level.
    """
    g = _abs_power(f, p)
    floors, shells = boundary_grid(f, domain, dirs)
    levels = torus_levels(g, shells, floors)
    quad_tol = max(0.25 * tol, 1e-14)
    # Its own loop, not refine_until: perfbench/tracer.py:137 traces this
    # estimator with levels=None, which refine_until's wrapper would append to.
    prev, change, level = None, np.inf, 0
    while True:
        vec, nodes = levels(level)
        if prev is not None:
            change = float(np.max(np.abs(vec - prev))) / max(
                float(vec.max()), float(prev.max()), 1e-300)
            if change <= quad_tol:
                break
        # the points of level + 1: the half-shifted cosets at these counts
        nxt = torus_points(g, shells, [m << level for m in floors],
                           half_shifts(domain.dim))
        if nxt > max_nodes or not np.all(np.isfinite(vec)):
            break
        prev = vec
        level += 1
    return NormEstimate(float(np.max(vec)) ** (1.0 / p),
                        RefinementReport(vec, nodes, change,
                                         change <= quad_tol, level))


def _radial_cells(domain: ReinhardtDomain, depth: int, order):
    """Tensor radial cells filling the radius region of the domain.

    Coordinates are swept in order; each coordinate gets dyadic panels on
    [0, top] where top solves the gauge section over the radii already
    fixed, with ``order`` Gauss points on each panel, or ``order[i]`` on
    panel i (:func:`_panel_orders`).  Returns (cells, weights) with the
    polar jacobian prod r_j folded into the weights.
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


def _panel_orders(domain: ReinhardtDomain, spikes, depth: int, order: int):
    """The Gauss order of each dyadic panel of the volume rule at ``depth``.

    In one variable a tag s declares f holomorphic on |z| < 1/|s|, whose
    edge lies at distance d = 1/|s| - R past the rim of the disc of
    radius R.  A panel of width h (in r) then gets
    max(8, ceil(2 order h / d)) points, at most ``order``.  The circle
    mean M_p(r) is analytic inside the Bernstein ellipse about the panel
    that reaches the pole, of parameter rho >= 5 + sqrt(24) ~ 9.9 once
    h <= d/2 and about 4d/h as h shrinks, and n-point Gauss errs like
    rho^(-2n) there (Trefethen, *Approximation Theory and Approximation
    Practice*, 2013, Thm 19.3): the rule gives 64 points at h = d/2 and
    its floor of 8 from h = d/16 on.  The narrow panels near the rim,
    whose rings carry the most angular nodes, take the fewest.  The
    order depends on the width alone, so a panel kept from one level to
    the next keeps its nodes.  Every panel keeps ``order`` when f declares
    no spike (None or 0.0), when the disc reaches its pole (d <= 0), and
    on every tensor grid (two or more variables).
    """
    if domain.dim > 1 or not spikes[0]:
        return order
    rim = float(section_tops(domain, np.zeros((1, 0)))[0])
    gap = 1.0 / spikes[0] - rim
    if gap <= 0.0:
        return order
    width = rim * np.diff(dyadic_panels(depth))
    return np.clip(np.ceil(2 * order * width / gap), 8, order).astype(np.int64)


def radial_cells(f, domain: ReinhardtDomain, level: int):
    """The radial cells and weights over which the volume rule integrates
    f at refinement ``level``: the base panel depth of :func:`_grid`
    deepened by ``level``, with :func:`_panel_orders`' Gauss orders."""
    spikes, _, order, depth, _ = _grid(f, domain.dim)
    return _radial_cells(domain, depth + level,
                         _panel_orders(domain, spikes, depth + level, order))


def bergman_norm_reinhardt(f, p: float, domain: ReinhardtDomain,
                           tol: float = 1e-6, *,
                           max_nodes: int = 1 << 27) -> NormEstimate:
    """Bergman p-norm over a complete Reinhardt domain, plain volume."""
    return _bergman(f, p, tol, domain, max_nodes)


def _on_ladder(m: np.ndarray) -> np.ndarray:
    """Each count rounded up to a multiple of 2^(floor(log2 m) - 3): at most
    eight counts per octave, and at most 12.5% more nodes than asked for."""
    _, e = np.frexp(m)                          # m = x 2^e, 1/2 <= x < 1
    step = np.int64(1) << np.maximum(e - 4, 0)
    return -(-m // step) * step


def _bergman(f, p, tol, domain, max_nodes) -> NormEstimate:
    """Refine radial cells x torus shells until the volume integral of
    |f|^p settles; report its p-th root.

    Each level deepens the dyadic radial panels, which pile up toward the
    rim where holomorphic mass concentrates, and doubles every angular
    count.  The counts are set ring by ring: a cell with coordinate radii
    r_j gets the floor of the spike seen from its own radius,
    ``angular_floor(r_j |s_j|)``, on axis j, since the trapezoid error on
    that ring decays like (r_j |s_j|)^m.  Rings at r_j >= 1, on domains
    wider than the unit polydisc, take the rim's floor.  Each count is
    then rounded up onto a ladder, to a multiple of 2^(floor(log2 m) - 3)
    (``_on_ladder``): at most eight counts per octave, at most 12.5% more
    points per ring.  The rounding commutes with the doubling (the ladder
    of 2m is twice the ladder of m), so nested levels stay exact.

    The stopping rule sees the angular error, which every level halves
    geometrically, but not the Gauss error of the inner radial panels,
    which no level touches; that is why the radial order is not lowered
    with the angular floor (``quadrature._GRID``).  It is lowered only
    where a declared pole bounds that error in advance: in one variable
    a panel narrow against the distance d from the rim to the pole takes
    max(8, ceil(2 order h / d)) points (:func:`_panel_orders`), which
    thins the rim panels, whose rings carry the most angular nodes.  Zero
    moduli, where the circle mean of a polynomial kinks, bound nothing.

    A level keeps every radial panel of the one before but the last, with
    its width and so its Gauss order, so a cell whose radius vector the
    previous level also had carries its sum over: the level adds only the
    half-shifted cosets of that cell's previous grid (``doubled`` over
    ``torus_cosets``) and evaluates the cells of the two new rim panels
    afresh.  So a level makes two shell calls, each with one count
    vector per cell: one for the carried cells' cosets, at their previous
    counts, and one for the new cells at shift 0; the first has no cells
    at level 0.  Each call groups its cells by count, with one factor
    table for all its groups (``torus_cosets``), and gives its sums in
    cell order before the one dot product with the weights, so values do
    not depend on the grouping.  The level reports the points it
    evaluated.
    """
    g = _abs_power(f, p)
    n = domain.dim
    spikes, _, _, _, _ = _grid(f, n)
    carried = {}                    # radius vector bytes -> last level's sum

    def level_fn(level):
        cells, weights = radial_cells(f, domain, level)
        radii = np.minimum(cells, 1.0)
        counts = _on_ladder(np.stack([angular_floor(radii[:, j] * s, n)
                                      for j, s in enumerate(spikes)],
                                     axis=1)) << level
        keys = [row.tobytes() for row in cells]
        kept = np.array([k in carried for k in keys], dtype=bool)
        old, new = np.flatnonzero(kept), np.flatnonzero(~kept)
        sums = np.empty(cells.shape[0])
        # a carried cell is evaluated at its previous counts, shifted
        sums[old], old_points = doubled(
            lambda s: torus_cosets(g, cells[old], list(counts[old].T >> 1), s),
            n, np.array([carried[keys[i]] for i in old]))
        (sums[new],), points = torus_cosets(g, cells[new], list(counts[new].T),
                                            [(0.0,) * n])
        points += old_points
        carried.clear()
        carried.update(zip(keys, sums.tolist()))
        return complex(float(sums @ weights)), (points,)

    rep = refine_until(level_fn, max(tol, 1e-14), cap=max_nodes)
    return NormEstimate(max(rep.value.real, 0.0) ** (1.0 / p), rep)


def monotonicity_check(f, p: float, r, R,
                       tol: float = 1e-9) -> bool | np.ndarray:
    """Check the shell ordering r <= R implies I(r) <= I(R), for one pair
    of radius vectors or for k pairs given as (k, n) arrays.

    I(s) is the unnormalized torus integral of |f|^p over the shell with
    radius vector s.  Every shell of the call shares one grid, so the
    comparison is free of quadrature bias, and k pairs take one shell
    call, whose integrals are those of k calls bit for bit.  Slack is
    tol * max(1, I(R)); p must be > 0.  Returns a bool for one pair, a
    bool array for k.  Radii that are not finite, or not componentwise
    0 <= r <= R, raise ``ValueError``.
    """
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    R = np.atleast_1d(np.asarray(R, dtype=np.float64))
    if r.shape != R.shape or r.ndim not in (1, 2):
        raise ValueError("shell radius vectors must share one shape")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(R))):
        raise ValueError("shell radii must be finite")
    if np.any(r < 0) or np.any(R < r):
        raise ValueError("need componentwise 0 <= r <= R")
    g = _abs_power(f, p)
    _, floors, _, _, _ = _grid(f, r.shape[-1])
    pairs = np.atleast_2d(r).shape[0]
    values = torus_integrals(g, np.vstack([r, R]), [m << 1 for m in floors])
    i_r, i_R = values[:pairs], values[pairs:]
    ok = i_r <= i_R + tol * np.maximum(1.0, i_R)
    return bool(ok[0]) if r.ndim == 1 else ok
