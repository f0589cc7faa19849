import functools
import math

import numpy as np
import pytest

from hardylab import norms
from hardylab.norms import (NormEstimate, bergman_norm_disc,
                            bergman_norm_reinhardt, hardy_norm_disc,
                            hardy_norm_reinhardt, monotonicity_check)
from hardylab.quadrature import angular_floor
from hardylab.registry import TaggedEvaluator, default_registry
from hardylab.reinhardt import ball, polydisc, power_egg
from hardylab.series import PowerSeries
from hardylab.witnesses import T1T2Split, WitnessFa

TWO_PI = 2.0 * np.pi
RNG = np.random.default_rng(7321)


def _rand_poly(deg):
    c = RNG.uniform(-1, 1, deg + 1) + 1j * RNG.uniform(-1, 1, deg + 1)
    return PowerSeries.from_coefficients(c)


def test_hardy_disc_constant_and_monomials():
    one = hardy_norm_disc(lambda z: np.ones_like(z), 1.0, 1e-8)
    assert one.converged
    assert one.value == pytest.approx(1.0, abs=1e-12)
    for k, p in ((1, 1.0), (3, 2.0)):
        est = hardy_norm_disc(lambda z, k=k: z ** k, p, 1e-6)
        assert est.converged
        assert est.value == pytest.approx(1.0, rel=2e-6)


def test_hardy_disc_extremal_family_is_isometric():
    # the family is normalized: Hardy norm 1 for every parameter
    for a in (0.0, 0.5, 0.9):
        est = hardy_norm_disc(WitnessFa(a), 1.0, 1e-6, k_max=30)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-6)


def _undeclared(f):
    """f without its spike tag: the Hardy estimators climb the ladder."""
    return lambda *z: f(*z)


def test_hardy_disc_sharp_spike_needs_deeper_ladder():
    f = _undeclared(WitnessFa(0.99))
    est_short = hardy_norm_disc(f, 1.0, 1e-6, k_max=20)
    assert not est_short.converged
    est = hardy_norm_disc(f, 1.0, 1e-6, k_max=36)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_hardy_disc_ladder_values_monotone():
    est = hardy_norm_disc(_undeclared(WitnessFa(0.8)), 1.0, 1e-6, k_max=28)
    vals = np.array(est.ladder_values)
    assert vals.size > 2
    assert np.all(np.diff(vals) >= -1e-12)
    assert est.value == pytest.approx(vals.max(), rel=1e-15)


def test_hardy_disc_ladder_climbs_to_the_boundary_mean():
    # circle means increase to the boundary mean: every rung of the
    # undeclared ladder lies below the declared estimate, the last within
    # the ladder's stopping tolerance
    f = WitnessFa(0.8)
    ladder = hardy_norm_disc(_undeclared(f), 1.0, 1e-6, k_max=28)
    rim = hardy_norm_disc(f, 1.0, 1e-6, k_max=28)
    assert rim.converged and rim.ladder == (1.0,)
    assert rim.ladder_values == (rim.value,)
    assert max(ladder.ladder_values) <= rim.value
    assert ladder.value == pytest.approx(rim.value, rel=2e-6)


def _agm(x, y):
    for _ in range(40):            # quadratic convergence: a few suffice
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return x


@pytest.mark.parametrize("a", [0.99, 0.9999, 1.0 - 1e-5])
def test_hardy_disc_sharp_spike_on_the_boundary(a):
    # declared, a spike needs no ladder: any k_max, one circle
    est = hardy_norm_disc(WitnessFa(a), 1.0, 1e-6, k_max=1)
    assert est.converged and est.ladder == (1.0,)
    assert abs(est.value - 1.0) <= 1e-10


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


def test_undeclared_and_overreaching_keep_the_ladder():
    est = hardy_norm_disc(lambda z: 1 - z, 1.0, 1e-6)
    assert len(est.ladder) > 1 and est.ladder[0] == 0.5
    # a spike at 1/0.99 lies inside the disc of radius 1.5
    wide = hardy_norm_reinhardt(WitnessFa(0.99), 1.0, polydisc(1, [1.5]),
                                k_max=4, spike=0.99)
    assert wide.ladder == (0.5, 0.75, 0.875, 0.9375)
    mild = hardy_norm_reinhardt(WitnessFa(0.5), 1.0, polydisc(1, [1.5]),
                                k_max=4, spike=0.5)
    assert mild.ladder == (1.0,)


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
        est = bergman_norm_disc(WitnessFa(a), 1.0)
        assert est.converged
        assert est.value == pytest.approx(_fa_bergman_exact(a), rel=1e-9)
    est9 = bergman_norm_disc(WitnessFa(0.9), 1.0)
    assert est9.value == pytest.approx(1.2238207187632835, rel=1e-9)
    # sharp spikes, where each ring gets its own angular count
    for a in (0.99, 0.999):
        est = bergman_norm_disc(WitnessFa(a), 1.0, spike=a)
        assert est.converged
        assert est.value == pytest.approx(_fa_bergman_exact(a), rel=1e-9)


@pytest.mark.parametrize("N", [8, 64])
def test_bergman_partial_sums_obey_triangle_inequality(N):
    # | ||S_N f_a|| - ||f_a|| | <= ||f_a - S_N f_a|| in A1, with ||f_a||
    # exact, so both spiked estimates are checked against the closed form
    ent = default_registry().get("fa-0.99")
    part = bergman_norm_disc(ent.partial_evaluator(N), 1.0, spike=ent.spike)
    tail = bergman_norm_disc(ent.tail_evaluator(N), 1.0, spike=ent.spike)
    assert part.converged and tail.converged
    gap = abs(part.value - _fa_bergman_exact(0.99))
    assert gap <= tail.value * (1 + 1e-6)


def test_embedding_constant_on_random_polynomials():
    # ||f||_A1 <= pi ||f||_H1, with equality approached by constants
    for deg in (0, 2, 5, 9):
        f = _rand_poly(deg)
        a1 = bergman_norm_disc(f, 1.0)
        h1 = hardy_norm_disc(f, 1.0, 1e-7, k_max=30)
        assert a1.value <= np.pi * h1.value * (1 + 1e-6)


class _Level0Done(Exception):
    """Raised by the pinning integrand once level 0 is fully evaluated."""


def _pin_level0(estimator, radii, counts, **kw):
    """Run estimator until it has evaluated f on every ring
    radii[i] * e^(2 pi i k / counts[i]), k < counts[i].

    Calls may take the rings in any order, each call holding rings of one
    count; every ring must come bit for bit, and once.
    """
    want = {r.tobytes(): int(m) for r, m in zip(radii, counts)}
    seen = set()

    def f(z):
        z = np.ascontiguousarray(z)
        m = z.shape[-1]
        phases = np.exp(1j * (TWO_PI * np.arange(m) / m))
        for row in z.reshape(-1, m):
            r = row[0].real                   # the first phase is exactly 1
            key = r.tobytes()
            assert want.get(key) == m and key not in seen
            assert row.tobytes() == (r * phases).tobytes()
            seen.add(key)
        if len(seen) == len(want):
            raise _Level0Done
        return np.ones(np.shape(z))

    with pytest.raises(_Level0Done):
        estimator(f, 1.0, **kw)


def _unit_gauss_nodes(depth, order):
    bounds = [0.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 1)] + [1.0]
    x, _ = np.polynomial.legendre.leggauss(order)
    return np.concatenate([0.5 * (hi - lo) * x + 0.5 * (hi + lo)
                           for lo, hi in zip(bounds[:-1], bounds[1:])])


@pytest.mark.parametrize("spike, depth, m", [(None, 6, 4096),
                                             (0.999, 12, 64000)])
def test_disc_estimators_level0_node_sets(spike, depth, m):
    # Bergman: 64-point Gauss-Legendre on the dyadic panels of [0, 1] times
    # the equispaced angles, max(4096, ceil(64 / (1 - r s))) of them on the
    # ring of radius r; Hardy, with the rim's m: the unit circle for the
    # spiked (declared) function, else the first rung r = 1/2 of its ladder
    radii = _unit_gauss_nodes(depth, 64)
    counts = [4096 if spike is None
              else max(4096, math.ceil(64 / (1 - r * spike))) for r in radii]
    _pin_level0(bergman_norm_disc, radii, counts, spike=spike)
    rung = 0.5 if spike is None else 1.0
    _pin_level0(hardy_norm_disc, np.array([rung]), [m], spike=spike)


def test_rings_past_the_unit_radius_keep_the_rim_floor():
    # a disc of radius 1.5 reaches past the pole at 1/0.99; its rings at
    # r >= 1 get the rim's 6400 nodes, inner rings their own count
    radii = 1.5 * _unit_gauss_nodes(9, 64)
    counts = [max(4096, math.ceil(64 / (1 - min(r, 1.0) * 0.99)))
              for r in radii]
    wide = functools.partial(bergman_norm_reinhardt,
                             domain=polydisc(1, [1.5]))
    _pin_level0(wide, radii, counts, spike=0.99)


def test_bergman_polydisc_ring_counts():
    # on polydisc(2) the cell (r1, r2) gets angular_floor(r_j s_j, 2) nodes
    # on axis j; level 0 evaluates exactly the per-ring formula's total
    s = (0.95, 0.9)
    x = _unit_gauss_nodes(2, 12)

    def floor2(r, sj):
        return max(128, math.ceil(16 / (1 - r * sj)))

    per_axis = [np.array([floor2(r, sj) for r in x]) for sj in s]
    expect = int(np.outer(*per_axis).sum())
    assert expect < x.size ** 2 * floor2(1.0, s[0]) * floor2(1.0, s[1])
    points = [0]

    def f(z1, z2):
        for j, (zj, sj) in enumerate(((z1, s[0]), (z2, s[1]))):
            r = zj.reshape(zj.shape[0], -1)[:, 0].real
            assert all(angular_floor(rk * sj, 2) == zj.shape[j + 1]
                       for rk in r)
        points[0] += z1.shape[0] * z1.shape[1] * z2.shape[2]
        if points[0] >= expect:
            raise _Level0Done
        return np.ones(np.broadcast(z1, z2).shape)

    with pytest.raises(_Level0Done):
        bergman_norm_reinhardt(f, 1.0, polydisc(2), spike=s)
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
    (1, (0.99,), 9, 64, 4096, 64.0),
    (2, (0.95, 0.9), 2, 12, 128, 16.0)])
def test_bergman_nested_level_points(monkeypatch, dim, spike, depth, order,
                                     base, scale):
    # level 1 keeps all radial panels but the last: a cell in the kept
    # panels adds (2^n - 1) * prod(m_j) points, the half-shifted cosets of
    # its level-0 grid; a cell of the two new rim panels is evaluated at
    # its doubled counts, 2^n * prod(m_j)
    counter = [0]
    calls = _record_levels(monkeypatch, counter)
    f = default_registry().get("prod-fa-0.9-0.5" if dim == 2 else "fa-0.99")
    bergman_norm_reinhardt(_counting(f.evaluator, counter), 1.0,
                           polydisc(dim), tol=1e-4, spike=spike)
    (levels,) = calls
    x = _unit_gauss_nodes(depth + 1, order)
    kept = np.arange(x.size) < depth * order
    axes = [np.maximum(base, np.ceil(scale / (1.0 - x * s))) for s in spike]
    m0 = functools.reduce(np.multiply.outer, axes)
    old = functools.reduce(np.logical_and.outer, [kept] * dim)
    want = int(np.sum(np.where(old, (1 << dim) - 1, 1 << dim) * m0))
    assert levels[1] == (want, want)
    assert all(reported == seen for reported, seen in levels)


@pytest.mark.parametrize("case", ["bergman-disc", "bergman-ball",
                                  "hardy-rim", "hardy-ladder"])
def test_levels_report_the_points_they_evaluate(monkeypatch, case):
    counter = [0]
    calls = _record_levels(monkeypatch, counter)
    if case == "bergman-disc":
        est = bergman_norm_disc(_counting(WitnessFa(0.9), counter), 1.0,
                                spike=0.9)
        assert est.value == pytest.approx(np.pi * 0.19 / 0.81
                                          * np.log(1 / 0.19), rel=1e-12)
    elif case == "bergman-ball":
        est = bergman_norm_reinhardt(
            _counting(lambda z1, z2: z1 * z2, counter), 1.0, ball(2))
        # (2 pi)^2 int r1^2 r2^2 over the quarter disc = pi^3 / 24
        assert est.value == pytest.approx(np.pi ** 3 / 24, rel=1e-6)
    elif case == "hardy-rim":
        est = hardy_norm_disc(_counting(lambda z: 1 - z, counter), 1.0,
                              1e-8, spike=0.0)
        assert est.value == pytest.approx(4 / np.pi, rel=1e-8)
    else:
        est = hardy_norm_disc(_counting(lambda z: 1 - z, counter), 1.0)
        assert len(calls) == len(est.ladder) > 1
    assert est.converged
    assert calls and all(len(levels) >= 2 for levels in calls)
    for levels in calls:
        assert all(reported == seen for reported, seen in levels)
        if case.startswith("hardy"):
            # a circle's doubling adds the m_0 half-shifted nodes alone
            assert levels[1][0] == levels[0][0]


def test_boundary_spikes_are_refused_at_entry():
    # per ring r * s < 1 even for s = 1; the rim's check must still fire
    def f(*z):
        raise AssertionError("evaluated a function with a boundary spike")

    with pytest.raises(ValueError, match="spike modulus"):
        bergman_norm_disc(f, 1.0, spike=1.0)
    with pytest.raises(ValueError, match="spike modulus"):
        hardy_norm_disc(f, 1.0, spike=1.0)
    with pytest.raises(ValueError, match="spike modulus"):
        bergman_norm_reinhardt(f, 1, polydisc(2), spike=(0.5, 1.0))


def test_one_variable_spike_tuple_needs_one_entry():
    f = WitnessFa(0.5)
    for estimate in (hardy_norm_disc, bergman_norm_disc):
        with pytest.raises(ValueError, match="one spike tag per coordinate"):
            estimate(f, 1.0, spike=(0.9, 0.5))
    with pytest.raises(ValueError, match="one spike tag per coordinate"):
        bergman_norm_reinhardt(f, 1.0, polydisc(1), spike=(0.999, 0.5))
    one = hardy_norm_disc(f, 1.0, spike=(0.9,))
    assert one == hardy_norm_disc(f, 1.0, spike=0.9)


def test_hardy_reinhardt_constant_mass():
    U2 = polydisc(2)
    est = hardy_norm_reinhardt(lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                               1.0, U2, k_max=10)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-12)
    est2 = hardy_norm_reinhardt(lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                                2.0, U2, k_max=10)
    assert est2.value == pytest.approx(TWO_PI, rel=1e-12)


def test_hardy_reinhardt_product_factorizes():
    # product of one-variable members: unnormalized torus integral gives
    # (2pi)^2 times the product of the disc Hardy norms, here 1 * 1
    reg = default_registry()
    ent = reg.get("prod-fa-0.9-0.5")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, polydisc(2), tol=1e-7,
                               k_max=28, spike=ent.spike)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-6)


def test_hardy_reinhardt_boundary_rule_product():
    # a declared product is integrated on the bidisc's torus alone
    ent = default_registry().get("prod-fa-0.9")
    est = hardy_norm_reinhardt(ent.evaluator, 1.0, polydisc(2),
                               spike=ent.spike)
    assert est.converged and est.ladder == (1.0,)
    assert est.value == pytest.approx(TWO_PI ** 2, rel=1e-12)


def test_hardy_reinhardt_monomial_on_ball():
    # sup of r1 over the ball frontier is 1, attained at a corner
    B2 = ball(2)
    est = hardy_norm_reinhardt(
        lambda z1, z2: z1 * np.ones(np.broadcast(z1, z2).shape), 2.0, B2,
        k_max=26)
    assert est.converged
    assert est.value == pytest.approx(TWO_PI, rel=1e-6)


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


def test_bergman_reinhardt_dim1_delegates():
    # the unit disc is polydisc(1); both estimators share one routine
    est = bergman_norm_reinhardt(lambda z: np.ones_like(z), 1.0, polydisc(1))
    assert est.space == "A"
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
        assert monotonicity_check(ent.evaluator, 1.0, lo * u, hi * u,
                                  spike=ent.spike)


def test_monotonicity_one_variable():
    f = WitnessFa(0.7)
    assert monotonicity_check(f, 1.0, [0.3], [0.8])
    assert monotonicity_check(f, 2.0, [0.0], [0.95])


def test_monotonicity_rejects_bad_pairs():
    f = WitnessFa(0.5)
    with pytest.raises(ValueError):
        monotonicity_check(f, 1.0, [0.5, 0.2], [0.4, 0.3])
    with pytest.raises(ValueError):
        monotonicity_check(f, 1.0, [0.5], [0.4, 0.6])


def test_norm_estimate_is_frozen():
    est = NormEstimate(1.0, "H", 1.0, (), (), (), True)
    with pytest.raises(Exception):
        est.value = 2.0
