import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardylab import norms
from hardylab.errors import DomainModelError
from hardylab.experiments import RunConfig
from hardylab.norms import (NormEstimate, bergman_norm_disc,
                            bergman_norm_reinhardt, boundary_grid,
                            hardy_norm_disc, hardy_norm_reinhardt,
                            monotonicity_check)
from hardylab.quadrature import (RefinementReport, angular_floor,
                                 half_shifts, torus_cosets, torus_integrals,
                                 torus_points)
from hardylab.registry import (TaggedEvaluator, default_registry, fa_entry,
                               product_entry, sum_of_products)
from hardylab.reinhardt import ball, frontier_sample, polydisc, power_egg
from hardylab.series import PowerSeries
from hardylab.witnesses import T1T2Split, fa_series
from test_quadrature import reference_nodes

TWO_PI = 2.0 * np.pi
RNG = np.random.default_rng(7321)


def _rand_poly(deg):
    c = RNG.uniform(-1, 1, deg + 1) + 1j * RNG.uniform(-1, 1, deg + 1)
    return PowerSeries.from_coefficients(c)


def test_hardy_disc_constant_and_monomials():
    one = hardy_norm_disc(TaggedEvaluator(lambda z: np.ones_like(z), 0.0),
                          1.0, 1e-8)
    assert one.converged
    assert one.value == pytest.approx(1.0, abs=1e-12)
    for k, p in ((1, 1.0), (3, 2.0)):
        est = hardy_norm_disc(TaggedEvaluator(lambda z, k=k: z ** k, 0.0),
                              p, 1e-6)
        assert est.converged
        assert est.value == pytest.approx(1.0, rel=2e-6)


def test_hardy_disc_extremal_family_is_isometric():
    # the family is normalized: Hardy norm 1 for every parameter
    for a in (0.0, 0.5, 0.9):
        est = hardy_norm_disc(fa_series(a), 1.0, 1e-6)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-6)


def _agm(x, y):
    for _ in range(40):            # quadratic convergence: a few suffice
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return x


@pytest.mark.parametrize("a", [0.99, 0.9999, 1.0 - 1e-5])
def test_hardy_disc_sharp_spike_on_the_boundary(a):
    # declared, a spike is integrated on the unit circle alone; its level 0
    # holds ceil(64 / (1 - a)) points, 6.4M at a = 1 - 1e-5, which the
    # default budget of 2^20 points refuses after that one level
    est = hardy_norm_disc(fa_series(a), 1.0, 1e-6, max_nodes=1 << 23)
    assert est.converged and est.ladder == (1.0,)
    assert abs(est.value - 1.0) <= 1e-10
    capped = hardy_norm_disc(fa_series(a), 1.0, 1e-6)
    assert capped.converged == (angular_floor(a) < 1 << 20)


@pytest.mark.parametrize("N", [16, 256, 4096])
def test_hardy_boundary_rule_t2_agm(N):
    # ||T2||_H1 = (1 - s^2)(N + 2) s^(N+1) / AGM(1 - s, 1 + s), s = N/(N+1)
    s = N / (N + 1)
    exact = (1 - s * s) * (N + 2) * s ** (N + 1) / _agm(1 - s, 1 + s)
    t2 = TaggedEvaluator(T1T2Split(s, N).t2, s)
    est = hardy_norm_disc(t2, 1.0, 1e-6)
    assert est.converged and est.ladder == (1.0,)
    assert est.value == pytest.approx(exact, rel=1e-12)


def test_hardy_boundary_rule_kink_at_a_zero():
    # |1 - z| = 2 |sin(t/2)| has a kink at t = 0; its mean is 4/pi
    tol = 1e-6
    est = hardy_norm_disc(TaggedEvaluator(lambda z: 1 - z, 0.0), 1.0, tol)
    assert est.converged and est.ladder == (1.0,)
    assert est.value == pytest.approx(4 / np.pi, rel=tol)


def _never(*z):
    raise AssertionError("a refused function was evaluated")


def test_undeclared_and_overreaching_are_refused():
    # an undeclared f has no boundary to be integrated on: refused, naming
    # the tag, before any evaluation; None on one axis is undeclared
    with pytest.raises(ValueError, match="spike tag on every axis"):
        hardy_norm_disc(_never, 1.0, 1e-6)
    with pytest.raises(ValueError, match="spike tag on every axis"):
        hardy_norm_reinhardt(TaggedEvaluator(_never, (0.5, None)), 1.0,
                             polydisc(2))
    # a spike at 1/0.99 lies inside the disc of radius 1.5, and on the
    # ball of radius 1.2 the corner shell (1.2, 0) reaches 1/0.9
    with pytest.raises(DomainModelError, match="pole"):
        hardy_norm_reinhardt(TaggedEvaluator(_never, 0.99), 1.0,
                             polydisc(1, [1.5]))
    with pytest.raises(ValueError, match="axis 0"):
        hardy_norm_reinhardt(TaggedEvaluator(_never, (0.9, 0.0)), 1.0,
                             ball(2, 1.2))
    mild = hardy_norm_reinhardt(fa_series(0.5), 1.0, polydisc(1, [1.5]))
    assert mild.converged and mild.ladder == (1.0,)
    # f_0.5 at radius 1.5: (1 - a^2) / (1 - a^2 r^2) times 2 pi
    assert mild.value == pytest.approx(TWO_PI * 0.75 / (1 - 0.5625),
                                       rel=1e-6)


def test_bergman_disc_constants_and_monomials():
    one = bergman_norm_disc(lambda z: np.ones_like(z), 1.0)
    assert one.converged
    assert one.value == pytest.approx(np.pi, rel=1e-12)
    # int |z|^{kp} dV = 2 pi / (kp + 2)
    for k, p in ((1, 1.0), (2, 1.0), (1, 2.0)):
        est = bergman_norm_disc(lambda z, k=k: z ** k, p)
        assert est.value == pytest.approx((TWO_PI / (k * p + 2)) ** (1 / p),
                                          rel=1e-10)


def _fa_bergman_exact(a):
    return np.pi * (1 - a * a) * np.log(1 / (1 - a * a)) / (a * a)


def test_bergman_disc_extremal_family_closed_form():
    # ||f_a||_A1 = pi (1-a^2) log(1/(1-a^2)) / a^2
    for a in (0.5, 0.9):
        est = bergman_norm_disc(fa_series(a), 1.0)
        assert est.converged
        assert est.value == pytest.approx(_fa_bergman_exact(a), rel=1e-9)
    est9 = bergman_norm_disc(fa_series(0.9), 1.0)
    assert est9.value == pytest.approx(1.2238207187632835, rel=1e-9)
    # sharp spikes, where each ring gets its own angular count and the rim
    # panels narrower than the spike scale take fewer Gauss points
    for a in (0.99, 0.999, 512 / 513):
        est = bergman_norm_disc(fa_series(a), 1.0)
        assert est.converged
        assert est.value == pytest.approx(_fa_bergman_exact(a), rel=1e-9)


@pytest.mark.parametrize("N", [8, 64])
def test_bergman_partial_sums_obey_triangle_inequality(N):
    # | ||S_N f_a|| - ||f_a|| | <= ||f_a - S_N f_a|| in A1, with ||f_a||
    # exact, so both spiked estimates are checked against the closed form
    ent = default_registry().get("fa-0.99")
    part = bergman_norm_disc(ent.partial_evaluator(N), 1.0)
    tail = bergman_norm_disc(ent.tail_evaluator(N), 1.0)
    assert part.converged and tail.converged
    gap = abs(part.value - _fa_bergman_exact(0.99))
    assert gap <= tail.value * (1 + 1e-6)


# A^1 norms of partial sums computed outside the package: scipy.integrate.quad
# over r in [0, 1] (relative tolerance 1e-12) with breakpoints at 1 - 2^-k and
# at the moduli of the polynomial's zeros, of 2 pi r times the circle mean of
# |S_N f|, taken by the trapezoid rule on 2^16 nodes (2^18 for S_512) as an FFT
# of the coefficients c_k r^k.  The f_0.9 and f_0.99 rows take 48-point
# Gauss-Legendre on each half of every panel between the same breakpoints
# instead of quad, and the mean on 2^20 nodes (2^18 for S_512): |S_N f| kinks
# near its zeros, so the mean converges slowly in the node count, and
# S_128 f_0.99 moved by 7.4e-9 from 2^14 to 2^16 nodes.  The last quadrupling
# of the nodes moved each row by at most 6.5e-12 relative, and 32 points on
# whole panels instead gave each within 2.6e-13.
_A1_REFERENCES = [("fa", 512 / 513, 512, 0.08072784720004747),
                  ("fa", 16 / 17, 16, 0.9696338769918226),
                  ("fa", 0.999, 32, 0.0336688891651961),
                  # poly-3 of default_registry(1); its zeros lie at moduli
                  # 0.32, 0.50 and 0.80, inside the inner radial panels
                  ("poly-3", None, 8, 4.450427395296814),
                  ("fa", 0.9, 8, 1.3127745250697032),
                  ("fa", 0.9, 16, 1.2771885059502983),
                  ("fa", 0.9, 32, 1.228426940056442),
                  ("fa", 0.99, 128, 0.2817369964385013),
                  ("fa", 0.99, 512, 0.25010797467629997)]


@pytest.mark.parametrize("kind, a, N, ref", _A1_REFERENCES)
def test_bergman_disc_partial_sums_match_references(kind, a, N, ref):
    # with the degree tag of partial_evaluator, as run_uniform_bound calls it
    entry = fa_entry(a) if kind == "fa" else default_registry(1).get(kind)
    sn = entry.partial_evaluator(N)
    est = bergman_norm_disc(sn, 1.0, 1e-6)
    assert est.converged
    assert est.value == pytest.approx(ref, rel=1e-6)


# the rows whose partial sums declare a spike, but for the two S_512 ones,
# whose calls at tol 1e-8 take seconds each
_SPIKED_REFERENCES = [(a, N, ref) for kind, a, N, ref in _A1_REFERENCES
                      if kind == "fa" and N < 512]


def _errors_at_tol_1e8():
    errors = []
    for a, N, ref in _SPIKED_REFERENCES:
        sn = fa_entry(a).partial_evaluator(N)
        assert sn.spike > 0.0
        est = bergman_norm_disc(sn, 1.0, 1e-8)
        assert est.converged
        errors.append(abs(est.value - ref) / ref)
    return errors


def test_graded_orders_hold_the_spiked_references_at_tol_1e8():
    # the graded Gauss orders keep every spiked row within 5e-8 at tol 1e-8
    # (the uniform order 64 left S_16 f_0.9 2.8e-8 off, stopping at level 1)
    assert len(_SPIKED_REFERENCES) == 6
    assert max(_errors_at_tol_1e8()) <= 5e-8


def test_eight_gauss_points_on_every_spiked_panel_miss_the_references(
        monkeypatch):
    # the mutation: every panel of a spiked function at order 8, as if the
    # pole bound were dropped; several rows then miss by 6e-8 to 1e-6
    graded = norms._panel_orders

    def eight(domain, spikes, depth, order):
        if domain.dim == 1 and spikes[0]:
            return 8
        return graded(domain, spikes, depth, order)
    monkeypatch.setattr(norms, "_panel_orders", eight)
    assert max(_errors_at_tol_1e8()) > 5e-8


def test_embedding_constant_on_random_polynomials():
    # ||f||_A1 <= pi ||f||_H1, with equality approached by constants
    for deg in (0, 2, 5, 9):
        f = _rand_poly(deg)
        a1 = bergman_norm_disc(f, 1.0)
        h1 = hardy_norm_disc(f, 1.0, 1e-7)
        assert a1.value <= np.pi * h1.value * (1 + 1e-6)


class _Level0Done(Exception):
    """Raised by the pinning integrand once level 0 is fully evaluated."""


def _pin_level0(estimator, radii, counts, spike):
    """Run estimator until it has evaluated f, tagged ``spike``, on every ring
    radii[i] * e^(2 pi i k / counts[i]), k < counts[i], with the nodes
    built as unit_nodes states them (``reference_nodes``).

    Calls may take the rings in any order, each call holding whole rings
    of one count or one arc of a ring cut into arcs, which come in order;
    every ring must come bit for bit, and once.
    """
    want = {r.tobytes(): int(m) for r, m in zip(radii, counts)}
    seen = set()
    arcs = []                       # the arcs of the ring under way

    def f(z):
        z = np.ascontiguousarray(z)
        for row in z.reshape(-1, z.shape[-1]):
            arcs.append(row)
            r = arcs[0][0].real               # the first phase is exactly 1
            key = r.tobytes()
            m = want.get(key)
            assert m is not None and key not in seen
            ring = np.concatenate(arcs)
            if ring.size < m:
                continue
            arcs.clear()
            phases = reference_nodes(m)
            assert ring.tobytes() == (r * phases).tobytes()
            seen.add(key)
        if len(seen) == len(want):
            raise _Level0Done
        return np.ones(np.shape(z))

    with pytest.raises(_Level0Done):
        estimator(TaggedEvaluator(f, spike), 1.0)


def _dyadic_bounds(depth):
    return [0.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 1)] + [1.0]


def _unit_gauss_nodes(depth, order):
    # order points on every panel, or orders[i] on panel i
    bounds = _dyadic_bounds(depth)
    orders = [order] * (depth + 1) if np.ndim(order) == 0 else order
    return np.concatenate([
        0.5 * (hi - lo) * np.polynomial.legendre.leggauss(q)[0]
        + 0.5 * (hi + lo)
        for lo, hi, q in zip(bounds[:-1], bounds[1:], orders)])


def _graded_orders(depth, s, order=64):
    # the volume rule's Gauss orders on the unit disc: a panel of width h
    # takes max(8, ceil(2 order h / d)) points, at most order, where
    # d = 1/s - 1 is the distance from the rim to the declared pole
    bounds = _dyadic_bounds(depth)
    d = 1.0 / s - 1.0
    return [min(order, max(8, math.ceil(2 * order * (hi - lo) / d)))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _ladder(m):
    # the volume rule's counts: m rounded up to the next multiple of
    # 2^(floor(log2 m) - 3), eight counts per octave
    step = 1 << max(int(m).bit_length() - 4, 0)
    return -(-int(m) // step) * step


@pytest.mark.parametrize("spike, depth, m", [(None, 6, 256),
                                             (0.999, 12, 64000)])
def test_disc_estimators_level0_node_sets(spike, depth, m):
    # Bergman: Gauss-Legendre on the dyadic panels of [0, 1], 64 points on
    # each for an undeclared f and the graded orders for a spike, times
    # the equispaced angles, max(256, ceil(64 / (1 - r s))) of them on the
    # ring of radius r, rounded up onto the ladder; Hardy: the unit circle
    # with the rim's m, for the entire (0.0) or spiked function, and no
    # evaluation at all for an undeclared one
    radii = _unit_gauss_nodes(depth, 64 if spike is None
                              else _graded_orders(depth, spike))
    counts = [256 if spike is None
              else _ladder(max(256, math.ceil(64 / (1 - r * spike))))
              for r in radii]
    _pin_level0(bergman_norm_disc, radii, counts, spike)
    _pin_level0(hardy_norm_disc, np.array([1.0]), [m],
                0.0 if spike is None else spike)
    if spike is None:
        with pytest.raises(ValueError, match="spike tag"):
            hardy_norm_disc(_never, 1.0)


def test_rings_past_the_unit_radius_keep_the_rim_floor():
    # a disc of radius 1.5 reaches past the pole at 1/0.99; its rings at
    # r >= 1 get the rim's 6400 nodes on the ladder (6656), inner rings
    # their own count
    radii = 1.5 * _unit_gauss_nodes(9, 64)
    counts = [_ladder(max(256, math.ceil(64 / (1 - min(r, 1.0) * 0.99))))
              for r in radii]
    assert counts[-1] == 6656
    wide = functools.partial(bergman_norm_reinhardt,
                             domain=polydisc(1, [1.5]))
    _pin_level0(wide, radii, counts, 0.99)


def test_bergman_polydisc_ring_counts():
    # on polydisc(2) the cell (r1, r2) gets angular_floor(r_j s_j, 2) nodes
    # on axis j, on the ladder; level 0 evaluates exactly the per-ring
    # formula's total
    s = (0.95, 0.9)
    x = _unit_gauss_nodes(2, 12)

    def floor2(r, sj):
        return _ladder(max(64, math.ceil(16 / (1 - r * sj))))

    per_axis = [np.array([floor2(r, sj) for r in x]) for sj in s]
    expect = int(np.outer(*per_axis).sum())
    assert expect < x.size ** 2 * floor2(1.0, s[0]) * floor2(1.0, s[1])
    points = [0]

    def f(z1, z2):
        for j, (zj, sj) in enumerate(((z1, s[0]), (z2, s[1]))):
            r = zj.reshape(zj.shape[0], -1)[:, 0].real
            assert all(_ladder(angular_floor(rk * sj, 2)) == zj.shape[j + 1]
                       for rk in r)
        points[0] += z1.shape[0] * z1.shape[1] * z2.shape[2]
        if points[0] >= expect:
            raise _Level0Done
        return np.ones(np.broadcast(z1, z2).shape)

    with pytest.raises(_Level0Done):
        bergman_norm_reinhardt(TaggedEvaluator(f, s), 1.0, polydisc(2))
    assert points[0] == expect


def _record_levels(monkeypatch, counter):
    """Record every ``refine_until`` call of ``norms`` as a list of
    (reported, evaluated) points per level; the integrand adds the points
    it is evaluated on to ``counter[0]``."""
    calls = []
    orig = norms.refine_until

    def recording(integrator, tol, cap=1 << 20, floor=0.0):
        levels = []
        calls.append(levels)

        def counted(level):
            before = counter[0]
            value, nodes = integrator(level)
            levels.append((math.prod(nodes), counter[0] - before))
            return value, nodes
        return orig(counted, tol, cap, floor)

    monkeypatch.setattr(norms, "refine_until", recording)
    return calls


def _counting(f, counter):
    def g(*z):
        counter[0] += math.prod(np.broadcast(*z).shape)
        return f(*z)
    return g


@pytest.mark.parametrize("dim, spike, depth, order, base, scale", [
    (1, (0.99,), 9, 64, 256, 64.0),
    (2, (0.95, 0.9), 2, 12, 64, 16.0)])
def test_bergman_nested_level_points(monkeypatch, dim, spike, depth, order,
                                     base, scale):
    # level 1 keeps all radial panels but the last: a cell in the kept
    # panels adds (2^n - 1) * prod(m_j) points, the half-shifted cosets of
    # its level-0 grid; a cell of the two new rim panels is evaluated at
    # its doubled counts, 2^n * prod(m_j).  In one variable the panels
    # take the graded orders, and a kept panel keeps its width and so its
    # order; tensor grids keep the uniform order.
    counter = [0]
    calls = _record_levels(monkeypatch, counter)
    f = default_registry().get("prod-fa-0.9-0.5" if dim == 2 else "fa-0.99")
    bergman_norm_reinhardt(TaggedEvaluator(_counting(f.evaluator, counter),
                                           spike),
                           1.0, polydisc(dim), tol=1e-4)
    (levels,) = calls
    orders = (_graded_orders(depth + 1, spike[0], order) if dim == 1
              else [order] * (depth + 2))
    x = _unit_gauss_nodes(depth + 1, orders)
    kept = np.arange(x.size) < sum(orders[:depth])
    axes = [np.array([_ladder(m) for m in
                      np.maximum(base, np.ceil(scale / (1.0 - x * s)))])
            for s in spike]
    m0 = functools.reduce(np.multiply.outer, axes)
    old = functools.reduce(np.logical_and.outer, [kept] * dim)
    want = int(np.sum(np.where(old, (1 << dim) - 1, 1 << dim) * m0))
    assert levels[1] == (want, want)
    assert all(reported == seen for reported, seen in levels)


@pytest.mark.parametrize("case", ["bergman-disc", "bergman-ball",
                                  "hardy-rim"])
def test_levels_report_the_points_they_evaluate(monkeypatch, case):
    counter = [0]
    calls = _record_levels(monkeypatch, counter)
    if case == "bergman-disc":
        est = bergman_norm_disc(
            TaggedEvaluator(_counting(fa_series(0.9), counter), 0.9), 1.0)
        assert est.value == pytest.approx(np.pi * 0.19 / 0.81
                                          * np.log(1 / 0.19), rel=1e-12)
    elif case == "bergman-ball":
        est = bergman_norm_reinhardt(
            _counting(lambda z1, z2: z1 * z2, counter), 1.0, ball(2))
        # (2 pi)^2 int r1^2 r2^2 over the quarter disc = pi^3 / 24
        assert est.value == pytest.approx(np.pi ** 3 / 24, rel=1e-6)
    else:
        est = hardy_norm_disc(
            TaggedEvaluator(_counting(lambda z: 1 - z, counter), 0.0), 1.0,
            1e-8)
        assert est.value == pytest.approx(4 / np.pi, rel=1e-8)
    assert est.converged
    assert calls and all(len(levels) >= 2 for levels in calls)
    for levels in calls:
        assert all(reported == seen for reported, seen in levels)
        if case == "hardy-rim":
            # a circle's doubling adds the m_0 half-shifted nodes alone
            assert levels[1][0] == levels[0][0]


_PRODUCT_DOMAINS = pytest.mark.parametrize(
    "domain", [polydisc(2), ball(2), power_egg([1.0, 1.0])],
    ids=["polydisc", "ball", "power-egg"])


def _hidden(f):
    # the same callable with its terms out of sight: the tensor grid
    return TaggedEvaluator(lambda *z: f(*z), f.spike)


@_PRODUCT_DOMAINS
def test_products_integrate_factor_by_factor(domain):
    # A1 of a square partial sum and H1 of the product itself: the factor
    # path gives the tensor grid's value
    entry = default_registry().get("prod-fa-0.9-0.5")
    sn = entry.partial_evaluator(8)
    f = entry.evaluator
    assert len(sn.terms) == 1 and len(sn.terms[0]) == 2
    assert f.terms == (entry.factors,)
    a1 = [bergman_norm_reinhardt(g, 1.0, domain, tol=1e-4)
          for g in (sn, _hidden(sn))]
    h1 = [hardy_norm_reinhardt(g, 1.0, domain) for g in (f, _hidden(f))]
    for fast, tensor in (a1, h1):
        assert fast.converged and tensor.converged
        assert fast.value == pytest.approx(tensor.value, rel=1e-13, abs=0)


@_PRODUCT_DOMAINS
def test_monotonicity_check_integrates_products_factor_by_factor(
        monkeypatch, domain):
    seen = []
    orig = norms.torus_integrals

    def recording(*args):
        seen.append(orig(*args))
        return seen[-1]
    monkeypatch.setattr(norms, "torus_integrals", recording)
    f = default_registry().get("prod-fa-0.9-0.5").partial_evaluator(16)
    rng = np.random.default_rng(11)
    for u in frontier_sample(domain, 8):
        t = np.sort(rng.uniform(0.2, 1.0, 2))
        checks = [monotonicity_check(g, 1.0, t[0] * u, t[1] * u)
                  for g in (f, _hidden(f))]
        assert checks == [True, True]
        fast, tensor = seen[-2:]
        assert np.max(np.abs(fast - tensor) / tensor) <= 1e-13


@_PRODUCT_DOMAINS
def test_product_levels_report_the_points_the_factors_evaluate(
        monkeypatch, domain):
    # the points each level reports, and refine_until's cap counts, are
    # the points the one-variable factors are evaluated on
    counter = [0]
    calls = _record_levels(monkeypatch, counter)
    entry = default_registry().get("prod-fa-0.9-0.5")
    (factors,) = entry.partial_evaluator(8).terms
    f = sum_of_products([[TaggedEvaluator(_counting(fac, counter), fac.spike)
                          for fac in factors]])
    est = bergman_norm_reinhardt(f, 1.0, domain, tol=1e-4)
    assert est.converged
    (levels,) = calls
    assert len(levels) >= 2 and counter[0] > 0
    assert all(reported == seen for reported, seen in levels)


def test_each_factor_ring_is_evaluated_once_per_level(monkeypatch):
    # a level of the volume rule makes two shell calls, one for the
    # carried cells' cosets and one for the new cells, and each groups its
    # cells by count with one factor table: no factor of the err_a1 tail
    # is evaluated twice on a ring (radius, count and shift, each ring
    # known by its first two nodes) within a level.  The counters keep
    # each factor's declarations, so the tail still takes the half circle
    # and gives the plain tail's estimate.
    tail = default_registry().get("prod-fa-0.9").tail_evaluator(64)
    seen, repeats, calls = set(), [], []

    def counting(fac):
        def fn(z):
            for row in z.reshape(-1, z.shape[-1]):
                key = (id(fac), row[:2].tobytes())
                if key in seen:
                    repeats.append(key)
                seen.add(key)
            return fac(z)
        fn.conj_symmetric = fac.conj_symmetric
        return TaggedEvaluator(fn, fac.spike)
    wrapped = {id(fac): counting(fac) for term in tail.terms for fac in term}
    f = sum_of_products([[wrapped[id(fac)] for fac in term]
                         for term in tail.terms])
    cells, cosets = norms.radial_cells, norms.torus_cosets

    def level_start(*args, **kwargs):
        seen.clear()
        calls.append(0)
        return cells(*args, **kwargs)

    def counted(*args):
        calls[-1] += 1
        return cosets(*args)
    monkeypatch.setattr(norms, "radial_cells", level_start)
    monkeypatch.setattr(norms, "torus_cosets", counted)
    est = bergman_norm_reinhardt(f, 1.0, polydisc(2), tol=1e-3)
    assert est.converged and len(calls) >= 2
    assert repeats == [] and calls == [2] * len(calls)
    monkeypatch.undo()
    plain = bergman_norm_reinhardt(tail, 1.0, polydisc(2), tol=1e-3)
    assert est.report == plain.report


@pytest.mark.parametrize("domain, exact", [
    (polydisc(3), TWO_PI ** 3),
    (ball(3), TWO_PI ** 3 * (1 - 0.81) ** 2)], ids=["polydisc", "ball"])
def test_three_variable_hardy_norm_of_a_product(domain, exact):
    # (fa-0.9)^3: every frontier shell of the polydisc is the unit torus;
    # the supremum over the ball's frontier sits on a corner shell,
    # (2 pi)^3 (1 - 0.9^2)^2 = 8.954613...  On the tensor grid, level 1
    # alone would exceed the budget.
    fa = default_registry().get("fa-0.9")
    f = product_entry((fa, fa, fa))
    est = hardy_norm_reinhardt(f.evaluator, 1.0, domain, max_nodes=1 << 22)
    assert est.converged
    assert est.value == pytest.approx(exact, rel=1e-6)


def test_boundary_spikes_are_refused_at_entry():
    # per ring r * s < 1 even for s = 1; the rim's check must still fire.
    # A NaN tag takes the same refusal, not a failed integer conversion.
    def f(*z):
        raise AssertionError("evaluated a function with a boundary spike")

    for s in (1.0, float("nan")):
        with pytest.raises(ValueError, match="spike modulus must be < 1"):
            bergman_norm_disc(TaggedEvaluator(f, s), 1.0)
        with pytest.raises(ValueError, match="spike modulus must be < 1"):
            hardy_norm_disc(TaggedEvaluator(f, s), 1.0)
        with pytest.raises(ValueError, match="spike modulus must be < 1"):
            bergman_norm_reinhardt(TaggedEvaluator(f, (0.5, s)), 1,
                                   polydisc(2))


def test_a_function_declares_its_own_spike():
    # the estimators take no spike= of their own: the function's tag is
    # the one declaration.  hardy_norm_disc keeps the keyword for the
    # benchmark's calls, as the wrapper it turns into at the door.
    f = fa_series(0.5)
    with pytest.raises(TypeError, match="spike"):
        bergman_norm_disc(f, spike=0.5)
    for estimate in (bergman_norm_reinhardt, hardy_norm_reinhardt):
        with pytest.raises(TypeError, match="spike"):
            estimate(f, 1.0, polydisc(1), spike=0.5)
    with pytest.raises(TypeError, match="spike"):
        monotonicity_check(f, 1.0, [0.3], [0.5], spike=0.5)
    split = T1T2Split(0.9, 16)
    assert hardy_norm_disc(split.t1, 1.0, spike=0.9) == \
        hardy_norm_disc(TaggedEvaluator(split.t1, 0.9), 1.0)


def test_one_variable_spike_tuple_needs_one_entry():
    f = fa_series(0.5)
    for estimate in (hardy_norm_disc, bergman_norm_disc):
        with pytest.raises(ValueError, match="one spike tag per coordinate"):
            estimate(TaggedEvaluator(f, (0.9, 0.5)), 1.0)
    with pytest.raises(ValueError, match="one spike tag per coordinate"):
        bergman_norm_reinhardt(TaggedEvaluator(f, (0.999, 0.5)), 1.0,
                               polydisc(1))
    one = hardy_norm_disc(TaggedEvaluator(f, (0.9,)), 1.0)
    assert one == hardy_norm_disc(TaggedEvaluator(f, 0.9), 1.0)


def test_zero_dimensional_array_spike_is_a_scalar_tag():
    f = fa_series(0.5)
    for estimate in (hardy_norm_disc, bergman_norm_disc):
        assert estimate(TaggedEvaluator(f, np.array(0.5)), 1.0) == \
            estimate(TaggedEvaluator(f, 0.5), 1.0)
    assert hardy_norm_disc(TaggedEvaluator(lambda z: z,
                                           np.array(0.5))).value == \
        pytest.approx(1.0, abs=1e-12)


def test_hardy_reinhardt_constant_mass():
    U2 = polydisc(2)
    one = TaggedEvaluator(lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                          0.0)
    est = hardy_norm_reinhardt(one, 1.0, U2)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-12)
    est2 = hardy_norm_reinhardt(one, 2.0, U2)
    assert est2.value == pytest.approx(TWO_PI, rel=1e-12)


def test_hardy_reinhardt_product_factorizes():
    # product of one-variable members: unnormalized torus integral gives
    # (2pi)^2 times the product of the disc Hardy norms, here 1 * 1
    reg = default_registry()
    ent = reg.get("prod-fa-0.9-0.5")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, polydisc(2), tol=1e-7)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-6)


def test_hardy_reinhardt_boundary_rule_product():
    # a declared product is integrated on the bidisc's torus alone
    ent = default_registry().get("prod-fa-0.9")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, polydisc(2))
    assert est.converged and est.ladder == (1.0,)
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-12)


def test_hardy_reinhardt_monomial_on_ball():
    # sup of r1 over the ball frontier is 1, attained at a corner
    B2 = ball(2)
    est = hardy_norm_reinhardt(
        TaggedEvaluator(lambda z1, z2: z1 * np.ones(np.broadcast(z1, z2).shape),
                        0.0), 2.0, B2)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI, rel=1e-6)


@pytest.mark.parametrize("domain", [polydisc(2), ball(2)],
                         ids=["polydisc", "ball"])
def test_hardy_reinhardt_reports_its_last_level(domain):
    # the report holds the shell values and the points of the last level,
    # which adds the half-shifted cosets of the level before it
    ent = default_registry().get("prod-fa-0.9")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, domain, dirs=16)
    rep = est.report
    assert est.converged and rep.converged and rep.levels >= 1
    assert rep.rel_change <= 0.25 * 1e-6
    assert est.value == float(np.max(rep.value))
    floors, shells = boundary_grid(ent.evaluator, domain, 16)
    assert rep.value.shape == (len(shells),)
    last = [m << (rep.levels - 1) for m in floors]
    assert rep.node_counts == (torus_points(norms._abs_power(ent.evaluator,
                                                             1.0),
                                            shells, last, half_shifts(2)),)


def test_hardy_reinhardt_budget_below_the_first_doubling():
    # no level past level 0 fits the budget: one level, unconverged
    ent = default_registry().get("prod-fa-0.9")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, polydisc(2), max_nodes=1)
    assert not est.converged and est.report.levels == 0
    assert est.report.rel_change == np.inf


@pytest.mark.parametrize("p", [float("nan"), 0.0, -1.0, np.inf])
def test_every_estimator_refuses_a_non_positive_exponent(p):
    # one check, in _abs_power, which every estimator calls; NaN and an
    # infinite exponent included (|f|^inf is 0 or inf on every node, and
    # x ** (1/inf) is 1, so it gave 1.0 and a passing monotonicity check)
    f = fa_series(0.5)
    calls = [lambda: hardy_norm_disc(f, p),
             lambda: bergman_norm_disc(f, p),
             lambda: hardy_norm_reinhardt(f, p, polydisc(1)),
             lambda: bergman_norm_reinhardt(f, p, polydisc(1)),
             lambda: monotonicity_check(f, p, [0.3], [0.5])]
    for call in calls:
        with pytest.raises(ValueError, match="exponent must be positive"):
            call()


def test_bergman_reinhardt_volumes():
    one2 = bergman_norm_reinhardt(
        lambda z1, z2: np.ones(np.broadcast(z1, z2).shape), 1.0, polydisc(2))
    assert one2.converged
    assert one2.value == pytest.approx(np.pi ** 2, rel=1e-10)
    oneb = bergman_norm_reinhardt(
        lambda z1, z2: np.ones(np.broadcast(z1, z2).shape), 1.0, ball(2))
    assert oneb.value == pytest.approx(np.pi ** 2 / 2, rel=1e-10)


def test_bergman_reinhardt_monomial_values():
    # int_{U^2} |z1| dV = (2pi/3) * pi ; ball: 4 pi^2 / 15
    est = bergman_norm_reinhardt(
        lambda z1, z2: z1 * np.ones(np.broadcast(z1, z2).shape), 1.0,
        polydisc(2))
    assert est.value == pytest.approx(TWO_PI / 3 * np.pi, rel=1e-9)
    estb = bergman_norm_reinhardt(
        lambda z1, z2: z1 * np.ones(np.broadcast(z1, z2).shape), 1.0, ball(2))
    assert estb.value == pytest.approx(4 * np.pi ** 2 / 15, rel=1e-9)


def test_bergman_reinhardt_undeclared_pole_on_the_bidisc():
    # an untagged f gets the base floor on every ring; 1/(1 - 0.95 z1)^2
    # needs about 16 / (1 - 0.95) = 320 nodes at the rim.  At a volume
    # budget of 2^28 points base 64 converges at level 3 and base 128 at
    # level 2; base 32, a level behind base 64, stops on the budget
    # unconverged.  ||f||_A1 = pi^2 / s^2 log(1 / (1 - s^2)).
    s = 0.95
    est = bergman_norm_reinhardt(lambda z1, z2: 1 / (1 - s * z1) ** 2 + 0 * z2,
                                 1.0, polydisc(2), tol=1e-4,
                                 max_nodes=1 << 28)
    exact = np.pi ** 2 / s ** 2 * math.log(1 / (1 - s * s))
    assert est.converged
    assert est.value == pytest.approx(exact, rel=1e-4)


def test_bergman_reinhardt_dim1_delegates():
    # the unit disc is polydisc(1); both estimators share one routine
    est = bergman_norm_reinhardt(lambda z: np.ones_like(z), 1.0, polydisc(1))
    assert est.value == pytest.approx(np.pi, rel=1e-12)


def test_power_egg_volume():
    # |z1|^2 + |z2|^2 < 1 as a power egg reproduces the ball volume
    egg = power_egg([2.0, 2.0])
    est = bergman_norm_reinhardt(
        lambda z1, z2: np.ones(np.broadcast(z1, z2).shape), 1.0, egg)
    assert est.value == pytest.approx(np.pi ** 2 / 2, rel=1e-9)


def test_monotonicity_on_shells_battery():
    reg = default_registry()
    ent = reg.get("prod-fa-0.9")
    for _ in range(20):
        u = RNG.uniform(0.1, 0.9, 2)
        lo = RNG.uniform(0.1, 0.7)
        hi = lo + RNG.uniform(0.05, 0.25)
        assert monotonicity_check(ent.evaluator, 1.0, lo * u, hi * u)


def test_monotonicity_one_variable():
    f = fa_series(0.7)
    assert monotonicity_check(f, 1.0, [0.3], [0.8])
    assert monotonicity_check(f, 2.0, [0.0], [0.95])


def test_monotonicity_rejects_bad_pairs():
    f = fa_series(0.5)
    with pytest.raises(ValueError):
        monotonicity_check(f, 1.0, [0.5, 0.2], [0.4, 0.3])
    with pytest.raises(ValueError):
        monotonicity_check(f, 1.0, [0.5], [0.4, 0.6])


def test_monotonicity_refuses_non_finite_radii():
    # a NaN or infinite radius is refused, in one pair and among k pairs,
    # before anything is integrated
    f = default_registry().get("prod-fa-0.9").evaluator
    for r, R in (([np.nan, 0.5], [0.6, 0.6]), ([0.2, 0.5], [np.inf, 0.6]),
                 ([0.2, 0.5], [0.6, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            monotonicity_check(f, 1.0, r, R)
        with pytest.raises(ValueError, match="finite"):
            monotonicity_check(f, 1.0, [[0.1, 0.1], r], [[0.2, 0.2], R])


@pytest.mark.parametrize("hide", [False, True], ids=["product", "tensor"])
def test_monotonicity_pairs_in_one_call_match_one_call_each(monkeypatch,
                                                            hide):
    # k pairs as (k, n) arrays take one shell call, whose integrals and
    # booleans are those of k calls bit for bit, on the factor path and
    # the tensor grid.  A pair r = R at a negative slack fails, so the
    # booleans are mixed.
    f = default_registry().get("prod-fa-0.9-0.5").evaluator
    f = _hidden(f) if hide else f
    seen = []
    integrals = norms.torus_integrals

    def recording(*args):
        seen.append(integrals(*args))
        return seen[-1]
    monkeypatch.setattr(norms, "torus_integrals", recording)
    rng = np.random.default_rng(17)
    shells = frontier_sample(ball(2), 16)
    t = np.sort(rng.uniform(0.2, 0.95, (12, 2)), axis=1)
    t[3, 1] = t[3, 0]
    u = shells[rng.integers(0, len(shells), 12)]
    lo, hi = t[:, :1] * u, t[:, 1:] * u
    single = [monotonicity_check(f, 1.0, a, b, tol=-1e-12)
              for a, b in zip(lo, hi)]
    pairs, seen[:] = list(seen), []
    batch = monotonicity_check(f, 1.0, lo, hi, tol=-1e-12)
    (values,) = seen
    assert batch.dtype == bool and batch.tolist() == single
    assert single.count(False) == 1 and not single[3]
    assert values.tobytes() == np.concatenate(
        [v[:1] for v in pairs] + [v[1:] for v in pairs]).tobytes()


def test_norm_estimate_is_frozen():
    report = RefinementReport(1.0 + 0j, (8,), 0.0, True, 1)
    est = NormEstimate(1.0, report)
    with pytest.raises(Exception):
        est.value = 2.0


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_abs_power_kernel_matches_the_plain_expression(p):
    r = RNG.uniform(0.0, 1.0, (3, 1, 1))
    z = (r * np.exp(1j * RNG.uniform(0.0, 6.3, (1, 17, 1))),
         np.exp(1j * RNG.uniform(0.0, 6.3, (1, 1, 11))))
    kept = [zj.copy() for zj in z]
    f = TaggedEvaluator(lambda z1, z2: (1.0 - 0.7 * z1) ** 2 * (0.2 + z2), 0.7)
    cases = [(f, z), (lambda z1: z1, z[:1]), (lambda z1: np.abs(z1), z[:1])]
    for fn, args in cases:
        got = norms._abs_power(fn, p)(*args)
        want = np.abs(np.asarray(fn(*args), dtype=np.complex128)) ** p
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for zj, k in zip(z, kept):
        assert zj.tobytes() == k.tobytes()


def test_untagged_polynomial_takes_the_boundary_rule():
    # a PowerSeries of known degree is entire: exact boundary mean
    z5 = PowerSeries.from_coefficients([0] * 5 + [1])
    assert z5.spike == 0.0
    est = hardy_norm_disc(z5, 1.0, 1e-8)
    assert est.converged and est.ladder == (1.0,)
    assert abs(est.value - 1.0) <= 1e-12
    # a series of unknown degree declares nothing
    assert PowerSeries.from_generator(lambda k: 1.0 + 0j).spike is None


def test_bergman_disc_peak_memory_stays_in_cache_sized_blocks():
    # the volume rule evaluates torus shells in blocks of about
    # quadrature._CHUNK points, so its temporaries stay small
    import tracemalloc
    f = default_registry().get("mono-5").evaluator
    tracemalloc.start()
    try:
        est = bergman_norm_disc(f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.converged
    assert est.value == pytest.approx(TWO_PI / 7, rel=1e-8)
    assert peak <= 16 * 2 ** 20


# run_blowup's S_512 f_(512/513) Bergman call, twice in one process; prints
# the minor page faults of the second call
_REFAULT_PROBE = """
import resource
from hardylab.norms import bergman_norm_disc
from hardylab.registry import TaggedEvaluator
from hardylab.witnesses import T1T2Split
a = 512 / 513
sn = TaggedEvaluator(T1T2Split(a, 512).partial, a)
bergman_norm_disc(sn, 1.0, 1e-6)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
est = bergman_norm_disc(sn, 1.0, 1e-6)
assert est.converged
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the page faults of glibc's heap")
def test_bergman_disc_call_keeps_its_heap_pages():
    # the closed form of S_N f_a keeps about six complex temporaries per
    # integrand call; with blocks of 1 << 16 points (1 MiB each) they grew
    # the heap past glibc's trim threshold on every call, which gave the
    # pages back and faulted them in again: 255k minor faults per call.  A
    # fresh process, so that no earlier test has raised the thresholds, and
    # without the MALLOC_ settings that would hide the churn.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(norms.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", _REFAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) < 25_000


def _two_levels(s, depth, orders_at, half):
    # the points of levels 0 and 1 of the volume rule on the unit disc for
    # a spike s, with orders_at(depth) Gauss points per panel: each ring's
    # count is max(256, ceil(64 / (1 - r s))) on the ladder, doubled at
    # level 1.  A ring of m nodes shifted by h steps is evaluated at its
    # floor(m/2 - h) + 1 nodes in [0, pi] on the half circle, else at all
    # m.  Level 1 evaluates the half-shifted coset of a kept panel's ring
    # and the two new rim panels' rings at their doubled counts.
    def evaluated(m, h):
        return math.floor(m / 2 - h) + 1 if half else m

    def counts(d):
        radii = _unit_gauss_nodes(d, orders_at(d))
        return [_ladder(max(256, math.ceil(64 / (1 - r * s)))) for r in radii]
    kept = sum(orders_at(depth + 1)[:depth])
    return (sum(evaluated(m, 0.0) for m in counts(depth)),
            sum(evaluated(m, 0.5) if i < kept else evaluated(2 * m, 0.0)
                for i, m in enumerate(counts(depth + 1))))


def test_blowup_bergman_call_on_s512_takes_the_half_circle(monkeypatch):
    # run_blowup's largest call, ||S_512 f_a||_A1 at a = 512/513 at the
    # runner's tol and budget: the real coefficients of f_a flag |S_N f_a|
    # conj_even, so every ring is evaluated on its half circle, at half the
    # points of the full grid (a callable that declares nothing, wrapped
    # with the same spike: a wrapper of sn.fn itself now takes its
    # declaration).  Its
    # panels take the graded Gauss orders, which more than halve the
    # points of 64 on every panel.
    levels = []
    refine = norms.refine_until

    def counted(integrator, *args, **kw):
        def level_fn(level):
            value, nodes = integrator(level)
            levels.append(math.prod(nodes))
            return value, nodes
        return refine(level_fn, *args, **kw)
    monkeypatch.setattr(norms, "refine_until", counted)
    cfg = RunConfig()
    sn = fa_entry(512 / 513).partial_evaluator(512)
    assert sn.conj_symmetric and sn.spike == 512 / 513
    depth = math.ceil(math.log2(513)) + 2

    def graded(d):
        return _graded_orders(d, sn.spike)
    plain = TaggedEvaluator(lambda z: sn.fn(z), sn.spike)
    assert not plain.conj_symmetric
    for f, half in ((sn, True), (plain, False)):
        levels.clear()
        est = bergman_norm_disc(f, 1.0, cfg.tol, max_nodes=cfg.vol_cap())
        assert est.converged
        want = _two_levels(sn.spike, depth, graded, half)
        assert levels == list(want)
        assert est.report.node_counts == (want[1],)
        uniform = _two_levels(sn.spike, depth, lambda d: [64] * (d + 1), half)
        assert sum(want) < 0.5 * sum(uniform)


class _CountedSplit(T1T2Split):
    # the split, counting the points its t1 is evaluated at
    def __init__(self, a, N, count):
        super().__init__(a, N)
        object.__setattr__(self, "count", count)

    def t1(self, z):
        self.count[0] += np.size(z)
        return super().t1(z)


def test_circle_t1_takes_the_half_circle_over_the_schedule():
    # perfbench's circle workload wraps T1 as TaggedEvaluator(T1T2Split(a,
    # N).t1, a) along a = N/(N+1), N = 16, ..., 4096, at the default
    # tol and budget: the wrapper takes the split's declaration, so T1 is
    # evaluated on its half circles, 349,512 points against 699,014 for
    # a callable that declares nothing, with the same norms to tol
    cfg = RunConfig()
    points = {True: [0], False: [0]}
    for N in (16, 64, 256, 1024, 4096):
        a = N / (N + 1.0)
        norm = {}
        for declared, count in points.items():
            split = _CountedSplit(a, N, count)
            f = (TaggedEvaluator(split.t1, a) if declared
                 else TaggedEvaluator(lambda z, t1=split.t1: t1(z), a))
            assert f.conj_symmetric is declared
            est = hardy_norm_disc(f, 1.0, cfg.tol, max_nodes=cfg.max_nodes)
            assert est.converged
            norm[declared] = est.value
        assert norm[True] == pytest.approx(norm[False], rel=cfg.tol)
    assert (points[True][0], points[False][0]) == (349_512, 699_014)


def test_a_false_declaration_moves_the_t1_norm():
    # T1 at complex a is not conjugate-symmetric, and its split declares
    # nothing; declared so by hand, its Hardy norm takes the half circle
    # and moves off its full-circle value, so the declaration is what the
    # half circle rests on
    a = 0.6 + 0.3j
    split = T1T2Split(a, 16)
    assert not TaggedEvaluator(split.t1, abs(a)).conj_symmetric
    full = hardy_norm_disc(TaggedEvaluator(split.t1, abs(a)), 1.0, 1e-8)

    def t1(z):
        return split.t1(z)
    t1.conj_symmetric = True
    assert TaggedEvaluator(t1, abs(a)).conj_symmetric
    wrong = hardy_norm_disc(TaggedEvaluator(t1, abs(a)), 1.0, 1e-8)
    assert full.converged
    assert abs(wrong.value - full.value) > 1e-3 * full.value
    # at real a the inherited declaration keeps the full-circle value
    real = T1T2Split(0.9, 16)
    half = hardy_norm_disc(TaggedEvaluator(real.t1, 0.9), 1.0, 1e-8)
    whole = hardy_norm_disc(TaggedEvaluator(lambda z: real.t1(z), 0.9), 1.0,
                            1e-8)
    assert half.value == pytest.approx(whole.value, rel=1e-8)


class _DeclaredFa:
    # f_a at a = 0.9 declared conj_symmetric, counting its points
    conj_symmetric = True
    spike = 0.9

    def __init__(self):
        self.points = 0

    def __call__(self, z):
        self.points += np.size(z)
        return fa_series(0.9)(z)


def test_undeclared_integrands_take_the_full_grid():
    # only |f|^p of a conj_symmetric f takes the half circle: an undeclared
    # lambda and poly-3 (complex coefficients), its S_N and its tail are
    # evaluated on every node, and so is a declared series integrated raw,
    # with no |.|^p, whose integral the half circle would get wrong
    poly3 = default_registry().get("poly-3")
    radii, ms, shifts = [[0.9], [1.0]], (256,), [(0.0,), (0.5,)]
    for f in (lambda z: 1.0 + z, poly3.evaluator, poly3.partial_evaluator(2),
              poly3.tail_evaluator(2)):
        g = norms._abs_power(f, 1.0)
        assert not g.conj_even
        assert (torus_cosets(g, radii, ms, shifts)[1]
                == torus_points(g, radii, ms, shifts) == 2 * 2 * 256)
    raw = _DeclaredFa()
    values = torus_integrals(raw, radii, ms)
    assert raw.points == 2 * 256
    # the mean value property: 2 pi f_a(0) = 2 pi (1 - a^2) on each circle
    np.testing.assert_allclose(values, TWO_PI * 0.19, rtol=1e-9)
    absolute = _DeclaredFa()
    torus_integrals(norms._abs_power(absolute, 1.0), radii, ms)
    assert absolute.points == 2 * 129
