import math

import numpy as np
import pytest

from hardylab import quadrature
from hardylab.norms import (_abs_power, _radial_cells, bergman_norm_disc,
                            bergman_norm_reinhardt)
from hardylab.quadrature import (angular_floor, doubled, dyadic_panels,
                                 half_circle, half_shifts, refine_until,
                                 torus_blocks, torus_cosets, torus_integrals,
                                 torus_levels, torus_points, unit_nodes)
from hardylab.registry import (default_registry, product_entry,
                               sum_of_products)
from hardylab.reinhardt import (ball, density_difference, dilate_truncate,
                                polydisc)
from hardylab.witnesses import fa_series

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
    # NaN compares false against 1.0, so a check for moduli >= 1 let it
    # through: an array with a NaN gave a count of -2^63
    for spike in (float("nan"), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="spike modulus must be < 1"):
            angular_floor(spike)


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


@pytest.mark.parametrize("order", [1, 5, 20, 48])
def test_gauss_rule_is_built_once_and_read_only(order):
    from hardylab.quadrature import _gauss_legendre, _panel_gauss
    x, w = _gauss_legendre(order)
    fresh = np.polynomial.legendre.leggauss(order)
    for got, want in zip((x, w), fresh):
        assert got.tobytes() == want.tobytes()
    assert _gauss_legendre(order)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the panels are mapped as a panel-by-panel loop maps them, bit for bit
    for depth in (0, 1, 7, 30):
        bounds = dyadic_panels(depth)
        nodes, weights = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(half * fresh[0] + 0.5 * (hi + lo))
            weights.append(half * fresh[1])
        for got, want in zip(_panel_gauss(bounds, order),
                             (np.concatenate(nodes), np.concatenate(weights))):
            assert got.tobytes() == want.tobytes()


def test_panel_orders_map_each_panel_alone():
    # per-panel orders give each panel the nodes that panel alone has at
    # its order, bit for bit; equal orders are the uniform rule
    from hardylab.quadrature import _panel_gauss
    bounds = dyadic_panels(5)
    orders = [64, 64, 32, 16, 8, 8]
    nodes, weights = _panel_gauss(bounds, orders)
    at = 0
    for i, q in enumerate(orders):
        x, w = _panel_gauss(bounds[i:i + 2], q)
        assert nodes[at:at + q].tobytes() == x.tobytes()
        assert weights[at:at + q].tobytes() == w.tobytes()
        at += q
    assert at == nodes.size == weights.size
    for got, want in zip(_panel_gauss(bounds, [12] * 6),
                         _panel_gauss(bounds, 12)):
        assert got.tobytes() == want.tobytes()


def test_panel_orders_grade_only_a_one_variable_declared_pole():
    from hardylab.norms import _panel_orders
    # the unit disc and a pole at 1/0.99: d = 1/0.99 - 1, and a panel of
    # width h takes max(8, ceil(128 h / d)) points, at most 64
    orders = _panel_orders(polydisc(1), (0.99,), 9, 64)
    d = 1 / 0.99 - 1
    widths = np.diff(dyadic_panels(9))
    assert orders.tolist() == [min(64, max(8, math.ceil(128 * h / d)))
                               for h in widths]
    assert orders[0] == 64 and orders[-1] < 64 and orders.min() >= 8
    # a panel kept at the next level keeps its order
    assert _panel_orders(polydisc(1), (0.99,), 10, 64)[:9].tolist() == \
        orders[:9].tolist()
    # on a disc of radius R the widths and the distance are R's
    wide = _panel_orders(polydisc(1, [1.005]), (0.99,), 9, 64)
    assert wide.tolist() == [
        min(64, max(8, math.ceil(2 * 64 * (1.005 * h) / (1 / 0.99 - 1.005))))
        for h in widths]
    # no declared pole, a disc that reaches its pole and every tensor
    # grid keep the uniform order
    for domain, spikes in ((polydisc(1), (0.0,)),
                           (polydisc(1, [1.5]), (0.99,)),
                           (polydisc(1, [1 / 0.99]), (0.99,)),
                           (polydisc(2), (0.99, 0.99)),
                           (ball(2), (0.9, 0.5))):
        assert _panel_orders(domain, spikes, 9, 64) == 64


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
    # a scalar or lower-rank value is broadcast to the block, so it sums
    # as the full-shape one does
    for g in (lambda z1, z2: 1.0, lambda z1, z2: np.ones(z1.shape)):
        assert torus_integrals(g, (0.5, 0.8), (16, 16))[0] == val[0]


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


def reference_nodes(m, shift=0.0):
    """unit_nodes(m, shift=shift) as its docstring states the nodes: node
    k = q b + s is coarse[q] * fine[s], with b = 2^floor(bit_length(m) / 2),
    coarse[q] = exp(2 pi i q b / m) and fine[s] = exp(2 pi i (s + shift) / m),
    one exponential per entry."""
    b = 1 << (m.bit_length() // 2)
    k = np.arange(m)
    coarse = np.exp(1j * (TWO_PI * (k - k % b) / m))
    fine = np.exp(1j * (TWO_PI * (k % b + shift) / m))
    return coarse * fine


def test_unit_nodes_formula_and_broadcast():
    # bit for bit the two-table products, and node 0 exactly 1 at shift 0
    for m in (1, 2, 3, 24, 161, 4096, 65600):
        for shift in (0.0, 0.5):
            assert (unit_nodes(m, shift=shift).tobytes()
                    == reference_nodes(m, shift).tobytes())
        assert unit_nodes(m)[:1].tobytes() == np.ones(1, complex).tobytes()
    assert unit_nodes(8, 1, 3).shape == (1, 8, 1)
    # half a step: the nodes of the 2m-node rule the m-node rule lacks
    assert np.array_equal(unit_nodes(24, shift=0.0), unit_nodes(24))
    odd = unit_nodes(48)[1::2]
    assert np.allclose(unit_nodes(24, shift=0.5), odd, rtol=0, atol=1e-15)


def _nodes_error(z, ks, m, shift, mp):
    # the larger error of either component against the exact cos and sin
    worst = 0.0
    with mp.workdps(30):
        for k, x in zip(ks, z):
            t = 2 * mp.pi * (int(k) + mp.mpf(shift)) / m
            worst = max(worst, abs(float(mp.cos(t) - x.real)),
                        abs(float(mp.sin(t) - x.imag)))
    return worst


@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("m", [24, 161, 4096, 65600, 262209])
def test_unit_nodes_stay_within_roundoff_of_the_exact_angles(m, shift):
    # a strided sample, the nodes nearest pi/2, pi and 3 pi/2, and the
    # last; no further off than one exponential per node
    mp = pytest.importorskip("mpmath")
    near = {min(m - 1, max(0, round(m * t - shift) + d))
            for t in (0.25, 0.5, 0.75) for d in (-1, 0, 1)}
    ks = np.array(sorted(set(range(0, m, max(1, m // 500))) | near
                         | {m - 1}))
    new = _nodes_error(unit_nodes(m, shift=shift)[ks], ks, m, shift, mp)
    per_node = np.exp(1j * (TWO_PI * (ks + shift) / m))
    assert new <= 1.2e-15
    assert new <= _nodes_error(per_node, ks, m, shift, mp) + 1e-16


def test_unit_nodes_refuse_a_count_outside_zero_to_m():
    assert unit_nodes(4, count=0).shape == (0,)
    assert unit_nodes(4, count=4).tobytes() == unit_nodes(4).tobytes()
    for count in (6, 5, -1):
        with pytest.raises(ValueError, match="count"):
            unit_nodes(4, count=count)


def test_unit_nodes_refuse_fewer_than_one_node():
    for m in (0, -3):
        with pytest.raises(ValueError, match="m >= 1"):
            unit_nodes(m)


def test_unit_nodes_refuse_a_shift_that_is_not_finite():
    for shift in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite shift"):
            unit_nodes(8, shift=shift)


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
def test_doubled_torus_cosets_match_the_fresh_rule(dim):
    radii, ms = np.array(_SHELLS[dim]), _COUNTS[dim]
    prev = torus_integrals(_smooth, radii, ms)
    g = _Counted(_smooth)
    nested, points = doubled(lambda s: torus_cosets(g, radii, ms, s), dim,
                             prev)
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


def _smooth_factor(j):
    # the one-variable factor of _smooth on axis j
    return lambda z: np.abs(1.0 + 0.5 * z / (j + 1)) / np.abs(1.0 - 0.6 * z)


# rows that share radii on some axes, so an axis has fewer distinct radii
# than the grid has shells
_FACTOR_SHELLS = {1: [[0.9], [0.3], [0.9]],
                  2: [[0.9, 0.5], [0.9, 1.0], [0.3, 0.5], [0.3, 1.0]],
                  3: [[0.9, 0.5, 0.7], [0.9, 0.2, 0.7], [1.0, 0.5, 0.7]]}


def _counted_product(dim):
    counted = [_Counted(_smooth_factor(j)) for j in range(dim)]
    return sum_of_products([counted]), counted


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_integrands_sum_factor_by_factor(dim):
    # the product of the per-axis circle sums is the tensor sum, and each
    # axis is evaluated once per distinct radius and shift on that axis; a
    # product of real factors stays real.  One factor is the function
    # itself and takes the tensor grid.
    radii, ms = np.array(_FACTOR_SHELLS[dim]), _COUNTS[dim]
    for shifts in ([(0.0,) * dim], [(0.5,) + (0.0,) * (dim - 1)],
                   half_shifts(dim)):
        g, counted = _counted_product(dim)
        values, points = torus_cosets(g, radii, ms, shifts)
        per_axis = [np.unique(radii[:, j]).size * m
                    * len({s[j] for s in shifts}) for j, m in enumerate(ms)]
        if dim == 1:
            per_axis = [len(shifts) * len(radii) * ms[0]]
        assert [c.points for c in counted] == per_axis
        assert all(np.isrealobj(v) for v in values)
        assert points == sum(per_axis) == torus_points(g, radii, ms, shifts)
        # the same product with its factors hidden takes the tensor grid
        tensor, tensor_points = torus_cosets(lambda *z: g(*z), radii, ms,
                                             shifts)
        for v, t in zip(values, tensor, strict=True):
            assert np.max(np.abs(v - t) / t) <= 1e-13
        assert tensor_points == torus_points(lambda *z: g(*z), radii, ms,
                                             shifts)
        assert tensor_points == len(shifts) * len(radii) * np.prod(ms)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_levels_report_the_points_they_evaluate(dim):
    radii, ms = np.array(_FACTOR_SHELLS[dim]), _COUNTS[dim]
    g, counted = _counted_product(dim)
    levels = torus_levels(g, radii, ms)
    for level in range(4):
        before = sum(c.points for c in counted)
        vals, (points,) = levels(level)
        assert sum(c.points for c in counted) - before == points
        grid = [m << level for m in ms]
        fresh = torus_integrals(_smooth, radii, grid)
        assert np.max(np.abs(vals - fresh) / fresh) <= 1e-13
    prev = torus_integrals(g, radii, ms)
    before = sum(c.points for c in counted)
    nested, points = doubled(lambda s: torus_cosets(g, radii, ms, s), dim,
                             prev)
    assert sum(c.points for c in counted) - before == points
    # one variable has one coset, shifted, on every shell; more have shift
    # 0 and 1/2 per axis
    assert points == (len(radii) * ms[0] if dim == 1 else 2 * sum(
        np.unique(radii[:, j]).size * m for j, m in enumerate(ms)))


def test_product_integrand_needs_a_factor_per_axis():
    g = sum_of_products([(_smooth_factor(0), _smooth_factor(1))])
    with pytest.raises(ValueError, match="3 axes has 2 factors"):
        torus_integrals(g, [[0.5, 0.5, 0.5]], (8, 8, 8))


def _counted_sum(dim):
    # a sum of three products; term k holds its own counted factor on each
    # axis but the last, where terms 0 and 1 share one
    counted = [[_Counted(lambda z, j=j, k=k: (1.0 + 0.2 * k * z)
                         * _smooth_factor(j)(z))
                for j in range(dim)] for k in range(3)]
    counted[1][-1] = counted[0][-1]
    return sum_of_products(counted), counted


@pytest.mark.parametrize("dim", [2, 3])
def test_sums_of_products_evaluate_each_factor_once_per_radius_and_shift(
        dim):
    # each distinct factor is evaluated once per distinct radius and shift
    # on its axis; the points reported are the tensor grid's, where the
    # sum's values are formed, and the values are the tensor grid's bit
    # for bit
    radii, ms = np.array(_FACTOR_SHELLS[dim]), _COUNTS[dim]
    for shifts in ([(0.0,) * dim], [(0.5,) + (0.0,) * (dim - 1)],
                   half_shifts(dim)):
        g, counted = _counted_sum(dim)
        values, points = torus_cosets(g, radii, ms, shifts)
        for j, m in enumerate(ms):
            once = np.unique(radii[:, j]).size * m * len({s[j]
                                                          for s in shifts})
            assert {c.points for c in (term[j] for term in counted)} == {once}
        hidden = lambda *z: g(*z)   # noqa: E731
        tensor, tensor_points = torus_cosets(hidden, radii, ms, shifts)
        assert [v.tobytes() for v in values] == [t.tobytes() for t in tensor]
        assert points == tensor_points == torus_points(g, radii, ms, shifts)
        assert points == len(shifts) * len(radii) * np.prod(ms)


def _sum_cases(dim):
    # a tail and a density difference of a product of dim factors
    reg = default_registry()
    fa09, fa05 = reg.get("fa-0.9"), reg.get("fa-0.5")
    entry = product_entry((fa09, fa05, fa09)[:dim])
    q = [dilate_truncate(s, 0.75, 6) for s in entry.factors]
    return {"tail": entry.tail_evaluator(8),
            "difference": density_difference(entry, q)}


# one shell count within every block but the smallest, one cut at 1024 and
# 4096 points
_SUM_COUNTS = {2: [(24, 20), (41, 30), (90, 50)],
               3: [(6, 8, 5), (20, 9, 7), (20, 16, 15)]}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("domain", ["polydisc", "ball"])
@pytest.mark.parametrize("kind", ["tail", "difference"])
def test_sums_of_products_match_the_tensor_grid(monkeypatch, dim, domain,
                                                kind):
    # the terms path gives the values of the same callable with its terms
    # hidden bit for bit, with and without the |.|^p map, at every shift
    # and block size, on shells that share radii on an axis (polydisc
    # cells) and shells that do not (ball cells), whole or cut along
    # their first axis.  The hidden callable keeps the integrand's
    # conj_even flag: the tail and the difference, both declared, take the
    # half circle of the first axis on both paths.
    f = _sum_cases(dim)[kind]
    assert f.terms is not None and len(f.terms) == (dim if kind == "tail"
                                                    else 2)
    dom = polydisc(dim) if domain == "polydisc" else ball(dim)
    cells, _ = _radial_cells(dom, 0, 3 if dim == 2 else 2)
    for g in (f, _abs_power(f, 1.0), _abs_power(f, 3.0)):
        hidden = lambda *z, g=g: g(*z)   # noqa: E731
        hidden.conj_even = getattr(g, "conj_even", False)
        half = hidden.conj_even
        assert half == (g is not f)
        for ms in _SUM_COUNTS[dim]:
            for shifts in ([(0.0,) * dim], [(0.5,) + (0.0,) * (dim - 1)],
                           half_shifts(dim)):
                _chunk(monkeypatch, 1 << 22)
                tensor, points = torus_cosets(hidden, cells, ms, shifts)
                first = [half_circle(ms[0], s[0])[0] if half else ms[0]
                         for s in shifts]
                assert points == sum(first) * len(cells) * math.prod(ms[1:])
                for chunk in (1024, 4096, None, 1 << 22):
                    _chunk(monkeypatch, chunk)
                    values, terms_points = torus_cosets(g, cells, ms, shifts)
                    assert ([v.tobytes() for v in values]
                            == [t.tobytes() for t in tensor])
                    assert terms_points == points == torus_points(
                        g, cells, ms, shifts)


def test_a_one_variable_sum_of_products_takes_the_circle_rule():
    # on one axis terms are not read: the disc's density difference holds
    # its two terms and is integrated on the circle like any callable,
    # every shell counted, and |f - q|, declared, on the half circle
    entry = default_registry().get("fa-0.9")
    diff = density_difference(entry,
                              [dilate_truncate(entry.factors[0], 0.75, 6)])
    assert len(diff.terms) == 2 and diff.conj_symmetric
    radii, ms = [[0.5], [0.9], [0.9]], (64,)
    for g in (diff, _abs_power(diff, 1.0)):
        hidden = lambda z, g=g: g(z)   # noqa: E731
        hidden.conj_even = half = getattr(g, "conj_even", False)
        assert half == (g is not diff)
        for shifts in ([(0.0,)], [(0.5,)], half_shifts(1)):
            values, points = torus_cosets(g, radii, ms, shifts)
            circle, circle_points = torus_cosets(hidden, radii, ms, shifts)
            assert [v.tobytes() for v in values] == \
                [c.tobytes() for c in circle]
            first = [half_circle(64, s[0])[0] if half else 64
                     for s in shifts]
            assert points == circle_points == 3 * sum(first) == \
                torus_points(g, radii, ms, shifts)


def _path_integrand(path, dim):
    # an integrand for each path of torus_cosets, with the counters of
    # what it evaluates: the tensor grid (no terms), a sum of several
    # products and a product
    if path == "tensor":
        g = _Counted(_smooth)
        return g, [g]
    if path == "terms":
        g, counted = _counted_sum(dim)
        return g, list({id(c): c for term in counted for c in term}.values())
    return _counted_product(dim)


@pytest.mark.parametrize("path", ["tensor", "terms", "product"])
def test_zero_shells_give_empty_integrals_and_no_points(path):
    # no shell, as the volume rule's carried cells at its first level: one
    # empty array per shift and 0 points on every path, with one count
    # vector for all shells or one per shell, and nothing evaluated
    g, counted = _path_integrand(path, 2)
    none = np.empty((0, 2))
    for ms in (_COUNTS[2], [np.zeros(0, dtype=np.int64)] * 2):
        for shifts in ([(0.0, 0.0)], half_shifts(2)):
            values, points = torus_cosets(g, none, ms, shifts)
            assert [v.shape for v in values] == [(0,)] * len(shifts)
            assert points == 0 == torus_points(g, none, ms, shifts)
    assert [c.points for c in counted] == [0] * len(counted)


@pytest.mark.parametrize("path", ["tensor", "terms", "product"])
def test_per_shell_counts_match_one_call_per_count_vector(path):
    # shells with their own counts, a count per axis set by the radius on
    # that axis as the volume rule sets them: one call groups them by
    # count vector and gives every shell the integrals of one call per
    # group bit for bit, in shell order.  The tensor paths report the
    # points of those calls; a product evaluates each factor once per
    # axis, radius, count and shift, and reports what it evaluated
    radii = np.array([[r1, r2] for r1 in (0.3, 0.6, 0.9)
                      for r2 in (1.0, 0.5, 0.8)])
    ms = [np.where(radii[:, 0] < 0.5, 8, 12), np.where(radii[:, 1] < 0.9,
                                                        10, 14)]
    counts = np.column_stack(ms)
    for shifts in ([(0.0, 0.0)], half_shifts(2)):
        g, counted = _path_integrand(path, 2)
        values, points = torus_cosets(g, radii, ms, shifts)
        evaluated = sum(c.points for c in counted)
        assert points == torus_points(g, radii, ms, shifts)
        expected = [np.empty_like(v) for v in values]
        per_group = 0
        for group in np.unique(counts, axis=0):
            rows = np.flatnonzero(np.all(counts == group, axis=1))
            part, part_points = torus_cosets(g, radii[rows], group.tolist(),
                                             shifts)
            per_group += part_points
            for e, v in zip(expected, part):
                e[rows] = v
        assert [v.tobytes() for v in values] == \
            [e.tobytes() for e in expected]
        if path != "product":
            assert points == per_group
            continue
        rings = sum(np.unique(radii[counts[:, j] == m, j]).size * m
                    * len({s[j] for s in shifts})
                    for j in range(2) for m in np.unique(counts[:, j]))
        assert points == evaluated == rings < per_group


def test_sum_of_products_needs_a_factor_per_axis():
    g = sum_of_products([(_smooth_factor(0), _smooth_factor(1))] * 2)
    with pytest.raises(ValueError, match="3 axes has 2 factors"):
        torus_integrals(g, [[0.5, 0.5, 0.5]], (8, 8, 8))


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


def _chunk(monkeypatch, points):
    # blocks of about ``points`` on grids of every number of axes; None
    # keeps the default sizes
    from hardylab import quadrature
    if points is not None:
        monkeypatch.setattr(quadrature, "_CHUNK",
                            dict.fromkeys((1, 2, 3), points))


# shells of each dimension: one within a block of 1024 (in one variable),
# one of 1024 + 1 or 4096 + 1 points, the default one-axis block + 1
# (16385), and one larger than every block but the largest; 5000, 70001
# and the block + 1 counts do not cut into equal pieces
_BLOCK_CASES = {1: ([[0.9], [1.0], [0.3], [0.7]],
                    [(1000,), (1025,), (5000,), (16385,), (70001,)]),
                2: ([[0.9, 0.5], [1.0, 1.0], [0.2, 0.8]],
                    [(24, 20), (241, 17), (96, 80)]),
                3: ([[0.9, 0.5, 0.7], [1.0, 0.2, 1.0]],
                    [(6, 8, 5), (41, 5, 5), (20, 18, 16)])}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True])
def test_torus_integrals_do_not_depend_on_the_block_size(monkeypatch, dim,
                                                         shifted):
    # whole shells grouped into blocks, and shells cut along their first
    # axis, give the whole-shell sums (one block of 1 << 22) bit for bit,
    # and the same point counts
    radii, counts = _BLOCK_CASES[dim]
    shift = (0.5,) + (0.0, 0.5)[:dim - 1] if shifted else (0.0,) * dim
    for ms in counts:
        _chunk(monkeypatch, 1 << 22)
        whole = torus_integrals(_complex_smooth, radii, ms, shift)
        points = torus_points(_complex_smooth, radii, ms, [shift])
        assert points == len(radii) * math.prod(ms)
        for chunk in (1024, 4096, None):
            _chunk(monkeypatch, chunk)
            assert (torus_integrals(_complex_smooth, radii, ms, shift)
                    .tobytes() == whole.tobytes())
            assert torus_points(_complex_smooth, radii, ms, [shift]) == points


def _width(zs):
    return np.broadcast_shapes(*(z.shape for z in zs))[1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_torus_blocks_cut_a_large_circle_into_near_equal_arcs(monkeypatch,
                                                              dim):
    # a shell larger than a block is cut along its first axis into
    # ceil(size / block) pieces of near-equal width, at most m_1 // 2 of
    # them so that none holds fewer than 2 of that axis's nodes; each
    # piece is a slice of the whole shell's coordinates, and the integrals
    # are the whole shell's, down to blocks of one point.  A circle is the
    # one-axis case, cut into arcs.
    radii, counts = _BLOCK_CASES[dim]
    shift = (0.5,) * dim
    small = [(1,), (2,), (5,), (7,)] if dim == 1 else []
    for ms in small + [ms for ms in counts if math.prod(ms) <= 8000]:
        size = math.prod(ms)
        _chunk(monkeypatch, 1 << 22)
        (whole,) = torus_blocks(radii, ms, shift)
        value = torus_integrals(_complex_smooth, radii, ms, shift)
        for chunk in (1, 1024, 4096):
            _chunk(monkeypatch, chunk)
            blocks = list(torus_blocks(radii, ms, shift))
            widths = [_width(zs) for zs in blocks]
            if size <= chunk:
                assert set(widths) == {ms[0]}
                continue
            pieces = max(1, min(-(-size // chunk), ms[0] // 2))
            assert len(blocks) == len(radii) * pieces
            assert max(widths) - min(widths) <= 1
            assert min(widths) >= min(2, ms[0])
            for k in range(len(radii)):
                shell = blocks[k * pieces:(k + 1) * pieces]
                for j in range(dim):
                    cut = np.concatenate(
                        [np.broadcast_to(zs[j], (1, _width(zs), *ms[1:]))
                         for zs in shell], axis=1)
                    assert cut.tobytes() == np.broadcast_to(
                        whole[j][k:k + 1], cut.shape).tobytes()
            assert (torus_integrals(_complex_smooth, radii, ms, shift)
                    .tobytes() == value.tobytes())


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_half_circle_takes_the_nodes_in_zero_to_pi(shift):
    # brute force over the full rule: the nodes whose angle lies in [0, pi]
    # are the first count, those at 0 or pi are their own mirror images,
    # and unit_nodes builds the first count of them bit for bit
    for m in list(range(1, 12)) + [64, 65, 16385]:
        angles = [2 * (k + shift) for k in range(m)]       # in units of pi/m
        count, ends = half_circle(m, shift)
        assert [k for k, t in enumerate(angles) if t <= m] == list(
            range(count))
        assert ends == tuple(k for k in range(count) if angles[k] in (0, m))
        assert (unit_nodes(m, shift=shift, count=count).tobytes()
                == unit_nodes(m, shift=shift)[:count].tobytes())


def _declared_cases(dim):
    # integrands flagged conj_even (|f| of a conj_symmetric f): in one
    # variable mono-k, f_a, S_N f_a, its tail and a density difference; in
    # several a product and its S_N with their terms hidden (so they take
    # the tensor grid), and a tail and a density difference (their terms)
    reg = default_registry()
    fa09, fa05, mono2 = (reg.get(k) for k in ("fa-0.9", "fa-0.5", "mono-2"))
    if dim == 1:
        entry = fa09
        fs = [mono2.evaluator, fa_series(0.9), fa09.partial_evaluator(8)]
    else:
        entry = product_entry((fa09, mono2, fa05)[:dim])
        fs = []
        for f in (entry.evaluator, entry.partial_evaluator(8)):
            g = _abs_power(f, 1.0)
            hidden = lambda *z, g=g: g(*z)   # noqa: E731
            hidden.conj_even = True
            fs.append(hidden)
    q = [dilate_truncate(s, 0.75, 6) for s in entry.factors]
    fs += [entry.tail_evaluator(8), density_difference(entry, q)]
    return [f if hasattr(f, "conj_even") else _abs_power(f, p)
            for f in fs for p in (1.0, 3.0)]


_HALF_RADII = {1: [[0.9], [1.0]], 2: [[0.9, 0.5], [1.0, 1.0]],
               3: [[1.0, 0.7, 0.5]]}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_circle_rule_matches_the_full_grid(dim):
    # a conj_even integrand evaluated on the first axis's half circle and
    # doubled gives the full tensor grid's integral to roundoff, at odd and
    # even counts, shifted or not, on the tensor grid and the several-term
    # path, with the half circle's points
    radii = _HALF_RADII[dim]
    for g in _declared_cases(dim):
        assert g.conj_even
        full = lambda *z, g=g: g(*z)   # noqa: E731
        for m in (1, 2, 3, 4, 5, 64, 65, 16385):
            ms = (m, 6, 5)[:dim]
            for shift in (0.0, 0.5):
                shifts = [(shift,) + (0.0, 0.5)[:dim - 1]]
                (half,), points = torus_cosets(g, radii, ms, shifts)
                (ref,), ref_points = torus_cosets(full, radii, ms, shifts)
                np.testing.assert_allclose(half, ref, rtol=1e-13, atol=0)
                count = half_circle(m, shift)[0]
                assert points == torus_points(g, radii, ms, shifts) == (
                    len(radii) * count * math.prod(ms[1:]))
                assert ref_points == len(radii) * math.prod(ms)


def test_cut_shell_sums_match_a_fresh_row(monkeypatch):
    # the row of a cut shell comes from one kept buffer: each shell's sum
    # is that of a freshly allocated row bit for bit, for real and complex
    # values, with the ends halved, a larger row after a smaller and a
    # smaller after a larger; the buffer grows to exactly the largest row
    # and is kept
    monkeypatch.setattr(quadrature, "_ROW", [np.empty(0, dtype=np.uint8)])
    rng = np.random.default_rng(29)
    one = quadrature._CHUNK[1]
    largest = 0
    for shape, kind in (((3 * one + 7,), float), ((2 * one + 1,), complex),
                        ((5 * one,), float), ((701, 300), float),
                        ((2 * one + 3,), float)):
        assert math.prod(shape) > quadrature._CHUNK[len(shape)]
        vals = rng.standard_normal((3, *shape))
        if kind is complex:
            vals = vals + 1j * rng.standard_normal(vals.shape)
        ends = (0, shape[0] - 1)
        halved = vals.copy()
        halved[:, list(ends)] *= 0.5
        want = [halved[k].reshape(1, -1).sum(axis=1) for k in range(3)]
        blocks = (vals[start:stop, lo:hi].copy() for start, stop, lo, hi
                  in quadrature._block_plan(3, shape))
        got = quadrature._row_sums(blocks, shape, ends)
        assert got.tobytes() == np.concatenate(want).tobytes()
        largest = max(largest, math.prod(shape) * vals.itemsize)
        assert quadrature._ROW[0].nbytes == largest


def test_a_nested_integration_keeps_its_own_row(monkeypatch):
    # an integrand that itself integrates over a cut circle runs while the
    # outer circle's row is in use, and takes a fresh array: the values are
    # those with every row freshly allocated (the buffer held throughout),
    # bit for bit.  The first inner call, before the outer row is taken,
    # grows the buffer to its own larger row.
    monkeypatch.setattr(quadrature, "_ROW", [np.empty(0, dtype=np.uint8)])
    m, m_inner = 3 * quadrature._CHUNK[1] + 5, 4 * quadrature._CHUNK[1] + 3

    def outer(z):
        r = 0.5 + 0.4 * abs(z.flat[-1].imag)
        inner = torus_integrals(lambda w: np.abs(1.0 + 0.5 * w) ** 3,
                                [[r]], (m_inner,))
        return np.abs(1.0 - 0.3 * z) * inner[0]
    with quadrature._ROW_LOCK:
        fresh = torus_integrals(outer, [[1.0], [0.7]], (m,))
    assert quadrature._ROW[0].nbytes == 0
    kept = torus_integrals(outer, [[1.0], [0.7]], (m,))
    assert kept.tobytes() == fresh.tobytes()
    assert quadrature._ROW[0].nbytes == 8 * m_inner


def test_threads_sharing_the_row_keep_their_sums(monkeypatch):
    # more threads than cores integrate cut circles at once, switching
    # often: a thread that finds the row in use takes a fresh array, so
    # every sum is the serial one bit for bit
    import sys
    import threading
    monkeypatch.setattr(quadrature, "_ROW", [np.empty(0, dtype=np.uint8)])
    m = 2 * quadrature._CHUNK[1] + 9

    def job(k):
        return torus_integrals(lambda z: np.abs(1.0 - 0.1 * k * z) ** 1.5,
                               [[1.0], [0.9]], (m + k,))
    want = [job(k).tobytes() for k in range(6)]
    got = [[] for _ in range(6)]

    def worker(k):
        for _ in range(5):
            got[k].append(job(k).tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]
