import numpy as np
import pytest

from hardylab.norms import bergman_norm_disc, bergman_norm_reinhardt
from hardylab.quadrature import (angular_floor, doubled_torus_integrals,
                                 dyadic_panels, refine_until, torus_integrals,
                                 torus_levels, unit_nodes)
from hardylab.reinhardt import polydisc

TWO_PI = 2.0 * np.pi


def test_angular_floor_defaults_and_spike():
    assert angular_floor(None) == 256
    assert angular_floor(0.0) == 256
    assert angular_floor(0.5) == 256
    # 64 / (1 - 0.875) = 512 lifts the floor above the base
    assert angular_floor(0.875) == 512
    # 64 / (1 - 0.999) = 64000 dominates the base
    assert angular_floor(0.999) == 64000
    # a bidisc axis starts leaner, 64 nodes, with spike scale 16
    assert angular_floor(None, dim=2) == 64
    assert angular_floor(0.999, dim=2) == 16000


def test_angular_floor_rejects_boundary_spike():
    with pytest.raises(ValueError):
        angular_floor(1.0)
    with pytest.raises(ValueError):
        angular_floor(1.5)


def test_angular_floor_per_ring_matches_scalar_rule():
    # an array of r * |spike|, one per ring, gets the scalar rule ring by ring
    ts = 0.999 * np.linspace(0.0, 0.9999, 101)
    for dim in (1, 2, 3):
        counts = angular_floor(ts, dim)
        assert counts.dtype == np.int64
        assert counts.tolist() == [angular_floor(float(t), dim) for t in ts]
    assert type(angular_floor(0.999)) is int
    with pytest.raises(ValueError):
        angular_floor(np.array([0.5, 1.0]))


def _circle_mean(g, r, m):
    # a circle is the one-axis torus shell
    return torus_integrals(g, [[r]], [m])[0] / TWO_PI


def test_circle_rule_mean_of_powers():
    # (1/2pi) int z^k dtheta vanishes for k != 0, equals 1 for k = 0
    assert _circle_mean(lambda z: np.ones_like(z), 0.75, 256) \
        == pytest.approx(1.0)
    for k in (1, 2, 7):
        val = _circle_mean(lambda z, k=k: z ** k, 0.75, 256)
        assert abs(val) < 1e-14


def test_circle_rule_poisson_mean():
    # mean of |1 - a z|^{-2} on |z| = r is 1/(1 - a^2 r^2)
    a, r = 0.6, 0.8
    val = _circle_mean(lambda z: 1.0 / np.abs(1 - a * z) ** 2, r, 512)
    assert val.real == pytest.approx(1.0 / (1.0 - a * a * r * r), rel=1e-13)


def test_dyadic_panels_structure():
    b = dyadic_panels(3)
    assert np.allclose(b, [0.0, 0.5, 0.75, 0.875, 1.0])
    assert np.array_equal(dyadic_panels(0), [0.0, 1.0])
    with pytest.raises(ValueError):
        dyadic_panels(-1)


def test_disc_rule_exact_on_radial_polynomials():
    # ||z^m||_A2^2 = int_U |z|^{2m} dV = 2 pi / (2m + 2)
    for m in (0, 1, 3):
        est = bergman_norm_disc(lambda z, m=m: z ** m, 2.0)
        assert est.converged
        assert est.value ** 2 == pytest.approx(TWO_PI / (2 * m + 2),
                                               rel=1e-14)


def test_disc_rule_area():
    # the disc of radius 1/2 is polydisc(1, [0.5])
    est = bergman_norm_reinhardt(lambda z: np.ones_like(z, dtype=float), 1.0,
                                 polydisc(1, [0.5]))
    assert est.converged
    assert est.value == pytest.approx(np.pi * 0.25, rel=1e-14)


def test_torus_rule_unnormalized_mass():
    val = torus_integrals(lambda z1, z2: np.ones(np.broadcast(z1, z2).shape),
                          (0.5, 0.8), (16, 16))
    assert val.shape == (1,)
    assert val[0] == pytest.approx(TWO_PI ** 2, rel=1e-14)


def test_torus_rule_orthogonality():
    shells = np.array([[0.9, 0.7], [0.3, 0.6]])
    val = torus_integrals(lambda z1, z2: z1 * np.conj(z2), shells, (32, 32))
    assert np.all(np.abs(val) < 1e-12)
    # |z1|^2 mass: one value per shell row
    val2 = torus_integrals(lambda z1, z2: (z1 * np.conj(z1)).real
                           * np.ones(np.broadcast(z1, z2).shape), shells,
                           (32, 16))
    assert val2 == pytest.approx(TWO_PI ** 2 * shells[:, 0] ** 2, rel=1e-13)
    with pytest.raises(ValueError):
        torus_integrals(lambda z1, z2: z1, shells, (32,))


def test_unit_nodes_formula_and_broadcast():
    # bit for bit the angles 2 pi k / m the one-variable rules always used
    for m in (24, 161, 4096):
        theta = TWO_PI * np.arange(m) / m
        assert np.array_equal(unit_nodes(m), np.exp(1j * theta))
    assert unit_nodes(8, 1, 3).shape == (1, 8, 1)
    # half a step: the nodes of the 2m-node rule the m-node rule lacks
    assert np.array_equal(unit_nodes(24, shift=0.0), unit_nodes(24))
    odd = np.exp(1j * TWO_PI * np.arange(1, 48, 2) / 48)
    assert np.allclose(unit_nodes(24, shift=0.5), odd, rtol=0, atol=1e-15)


def _smooth(*z):
    # positive, analytic past the unit torus, not a trigonometric polynomial
    out = np.ones(np.broadcast(*z).shape)
    for j, zj in enumerate(z):
        out = out * np.abs(1.0 + 0.5 * zj / (j + 1)) / np.abs(1.0 - 0.6 * zj)
    return out


class _Counted:
    def __init__(self, g):
        self.g, self.points = g, 0

    def __call__(self, *z):
        self.points += int(np.prod(np.broadcast(*z).shape))
        return self.g(*z)


_SHELLS = {1: [[0.9], [1.0], [0.3]],
           2: [[0.9, 0.5], [1.0, 1.0]],
           3: [[0.9, 0.5, 0.7], [1.0, 0.2, 1.0]]}
_COUNTS = {1: (24,), 2: (12, 10), 3: (6, 8, 5)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_doubled_torus_integrals_match_the_fresh_rule(dim):
    radii, ms = np.array(_SHELLS[dim]), _COUNTS[dim]
    prev = torus_integrals(_smooth, radii, ms)
    g = _Counted(_smooth)
    nested, points = doubled_torus_integrals(g, radii, ms, prev)
    fresh = torus_integrals(_smooth, radii, [2 * m for m in ms])
    assert np.max(np.abs(nested - fresh) / fresh) <= 1e-14
    # only the 2^n - 1 half-shifted cosets are evaluated, and reported
    assert g.points == points == ((1 << dim) - 1) * np.prod(ms) * len(radii)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_torus_levels_report_the_points_they_evaluate(dim):
    radii, ms = np.array(_SHELLS[dim]), _COUNTS[dim]
    g = _Counted(_smooth)
    levels = torus_levels(g, radii, ms)
    for level in range(4):
        before = g.points
        vals, (points,) = levels(level)
        assert g.points - before == points
        grid = [m << level for m in ms]
        if level:
            assert points == (((1 << dim) - 1) * np.prod(grid)
                              // (1 << dim) * len(radii))
        else:
            assert points == np.prod(ms) * len(radii)
        fresh = torus_integrals(_smooth, radii, grid)
        assert np.max(np.abs(vals - fresh) / fresh) <= 1e-14


def test_refine_until_converges_geometrically():
    # value(level) = 1 + 4^-level converges; node counts double
    def integrator(level):
        return 1.0 + 4.0 ** -level, (64 << level,)

    rep = refine_until(integrator, 1e-6, cap=1 << 30)
    assert rep.converged
    assert rep.rel_change <= 1e-6
    assert rep.node_counts[0] >= 64


def test_refine_until_budget_cap():
    def integrator(level):
        return 1.0 + 0.5 * (level % 2), (1024 << level,)

    rep = refine_until(integrator, 1e-12, cap=4096)
    assert not rep.converged


def test_refine_until_budget_binds_at_level_zero():
    # a budget that level 0's points already reach stops after that level
    calls = []

    def integrator(level):
        calls.append(level)
        return 1.0, (64 << level,)

    rep = refine_until(integrator, 1e-6, cap=64)
    assert calls == [0]
    assert not rep.converged and rep.levels == 0
    calls.clear()
    assert refine_until(integrator, 1e-6, cap=65).converged
    assert calls == [0, 1]


def test_refine_until_array_values_max_norm():
    # the second entry settles last; convergence waits for it
    def integrator(level):
        return np.array([1.0, 2.0 + 8.0 ** -level]), (64 << level,)

    rep = refine_until(integrator, 1e-6, cap=1 << 30)
    assert rep.converged
    assert rep.levels == 8
    assert rep.value.shape == (2,)
    assert rep.rel_change == pytest.approx(7 * 8.0 ** -8 / rep.value[1].real)
    zeros = refine_until(lambda level: (np.zeros(3), (8 << level,)), 1e-12)
    assert zeros.converged and zeros.levels == 1


def test_refine_until_floor_settles_roundoff():
    # a vanishing value that flips at roundoff settles only under a floor
    def integrator(level):
        return np.array([1e-18 * (-1) ** level, 0.0]), (64 << level,)

    assert not refine_until(integrator, 1e-12, cap=1 << 10).converged
    rep = refine_until(integrator, 1e-12, cap=1 << 10, floor=1e-17)
    assert rep.converged and rep.levels == 1


def test_refine_until_rejects_nan():
    def integrator(level):
        return float("nan"), (64,)

    rep = refine_until(integrator, 1e-6)
    assert not rep.converged


def _complex_smooth(*z):
    # complex valued, so both parts of every shell sum are compared
    out = np.ones(np.broadcast(*z).shape, dtype=np.complex128)
    for j, zj in enumerate(z):
        out = out * (1.0 + 0.3 * zj) / (1.0 - (0.5 + 0.1 * j) * zj)
    return out


# a shell of the last row of each dimension holds more points than a block
# of 4096 (and, in one variable, more than a block of 1 << 16)
_BLOCK_CASES = {1: ([[0.9], [1.0], [0.3], [0.7]], (5000,), (70001,)),
                2: ([[0.9, 0.5], [1.0, 1.0], [0.2, 0.8]], (24, 20), (96, 80)),
                3: ([[0.9, 0.5, 0.7], [1.0, 0.2, 1.0]], (6, 8, 5),
                    (20, 18, 16))}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True])
def test_torus_integrals_do_not_depend_on_the_block_size(monkeypatch, dim,
                                                         shifted):
    from hardylab import quadrature
    radii, small, large = _BLOCK_CASES[dim]
    for ms in (small, large):
        shift = (0.5,) + (0.0, 0.5)[:dim - 1] if shifted else None
        values = []
        for chunk in (1, 4096, 1 << 16, 1 << 22):
            monkeypatch.setattr(quadrature, "_CHUNK", chunk)
            values.append(torus_integrals(_complex_smooth, radii, ms, shift))
        for v in values[1:]:
            assert v.tobytes() == values[0].tobytes()
