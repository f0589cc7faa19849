import numpy as np
import pytest

from hardylab.errors import DomainModelError
from hardylab import quadrature, reinhardt
from hardylab.experiments import run_density
from hardylab.registry import default_registry, fa_entry, product_entry
from hardylab.reinhardt import (ReinhardtDomain, ball, contains,
                                custom_domain, density_experiment,
                                dilate_truncate, domain_from_config,
                                frontier_max_radius, frontier_sample,
                                monomial_moments, polydisc, power_egg,
                                section_tops, simplex_directions)
from hardylab.series import PowerSeries
from hardylab.witnesses import fa_series

RNG = np.random.default_rng(99017)


def test_polydisc_gauge_and_contains():
    U2 = polydisc(2)
    assert contains(U2, [0.5, 0.9])
    assert contains(U2, [0.99j, -0.99])
    assert not contains(U2, [1.0, 0.0])
    assert U2.gauge_at([0.5, 0.25]) == pytest.approx(0.5)


def test_ball_gauge_and_contains():
    B2 = ball(2)
    assert contains(B2, [0.6, 0.6])
    assert not contains(B2, [0.8, 0.7])
    assert B2.gauge_at([3.0, 4.0]) == pytest.approx(5.0)


def test_power_egg_gauge():
    egg = power_egg([2.0, 4.0])
    assert egg.gauge_at([0.5, 0.5]) == pytest.approx(0.25 + 0.0625)
    assert contains(egg, [0.7, 0.7])


def test_frontier_max_radius_closed_forms():
    U2 = polydisc(2, radii=[1.0, 0.5])
    r = frontier_max_radius(U2, [1.0, 1.0])
    assert np.allclose(r, [0.5, 0.5])
    r2 = frontier_max_radius(U2, [1.0, 0.25])
    assert np.allclose(r2, [1.0, 0.25])
    B2 = ball(2)
    r3 = frontier_max_radius(B2, [3.0, 4.0])
    assert np.allclose(r3, [0.6, 0.8])


def test_frontier_max_radius_bisection_matches_closed_form():
    # a custom gauge equal to the ball gauge must agree with the formula
    dom = custom_domain(lambda r: np.sqrt(np.sum(r * r, axis=-1)), 2, 1.0)
    for _ in range(10):
        u = RNG.uniform(0.1, 1.0, 2)
        got = frontier_max_radius(dom, u)
        expect = u / np.linalg.norm(u)
        assert np.allclose(got, expect, atol=1e-12)


def test_frontier_max_radius_rejects_unbounded_ray():
    dom = custom_domain(lambda r: r[..., 0] * 1.0, 2, 1.0)
    with pytest.raises(DomainModelError):
        frontier_max_radius(dom, [0.0, 1.0])


def test_section_tops():
    B2 = ball(2)
    tops = section_tops(B2, np.array([[0.0], [0.6], [1.0]]))
    assert np.allclose(tops, [1.0, 0.8, 0.0])
    U2 = polydisc(2, radii=[1.0, 0.25])
    tops2 = section_tops(U2, np.array([[0.3], [0.9]]))
    assert np.allclose(tops2, [0.25, 0.25])
    egg = power_egg([2.0, 2.0])
    tops3 = section_tops(egg, np.array([[0.6]]))
    assert tops3[0] == pytest.approx(0.8)


def test_simplex_directions_cover_and_normalize():
    dirs = simplex_directions(2, 16)
    assert dirs.shape[1] == 2
    assert np.allclose(dirs.sum(axis=1), 1.0)
    # corners and barycenter are always present
    assert any(np.allclose(d, [1, 0]) for d in dirs)
    assert any(np.allclose(d, [0, 1]) for d in dirs)
    assert any(np.allclose(d, [0.5, 0.5]) for d in dirs)
    dirs3 = simplex_directions(3, 24)
    assert dirs3.shape[1] == 3
    assert np.allclose(dirs3.sum(axis=1), 1.0)
    assert np.all(dirs3 >= 0)


def test_frontier_sample_sits_on_frontier():
    for dom in (polydisc(2), ball(2), power_egg([2.0, 3.0])):
        fs = frontier_sample(dom, 24)
        g = np.array([dom.gauge_at(r) for r in fs])
        assert np.all(g <= 1.0 + 1e-10)
        assert np.all(g >= 1.0 - 1e-10)


def test_dilate_truncate_one_variable():
    # geometric coefficients 1, rho, rho^2, ... truncated at M
    g = PowerSeries.from_generator(lambda k: 1.0 + 0j)
    q = dilate_truncate(g, 0.5, 3)
    assert q.coefficient(0) == pytest.approx(1.0)
    assert q.coefficient(1) == pytest.approx(0.5)
    assert q.coefficient(2) == pytest.approx(0.25)
    assert q.coefficient(3) == pytest.approx(0.125)
    assert q.coefficient(4) == 0j


def test_dilate_truncate_validates():
    g = fa_series(0.5)
    with pytest.raises(ValueError):
        dilate_truncate(g, 0.0, 3)
    with pytest.raises(ValueError):
        dilate_truncate(g, 1.5, 3)
    with pytest.raises(ValueError):
        dilate_truncate(g, 0.5, -1)
    with pytest.raises(TypeError):
        dilate_truncate(lambda z: z, 0.5, 3)


def test_dilate_truncate_converges_pointwise():
    f = fa_series(0.8)
    z = np.array([0.9, -0.9j, 0.6 + 0.6j])
    prev_err = np.inf
    for rho, M in ((0.9, 16), (0.99, 64), (0.999, 256), (0.9999, 512)):
        q = dilate_truncate(f, rho, M)
        err = float(np.max(np.abs(f(z) - q(z))))
        assert err < prev_err
        prev_err = err
    assert prev_err < 5e-3


def test_domain_from_config():
    d1 = domain_from_config({"kind": "polydisc", "dim": 2})
    assert d1.kind == "polydisc" and d1.dim == 2
    d2 = domain_from_config({"kind": "ball", "dim": 3, "radius": 0.5})
    assert d2.kind == "ball" and d2.params == (0.5,)
    d3 = domain_from_config({"kind": "power-egg", "powers": [2, 4]})
    assert d3.dim == 2
    with pytest.raises(ValueError):
        domain_from_config({"kind": "torus"})


def test_density_experiment_disc():
    reg = default_registry()
    rows = density_experiment(reg.get("fa-0.9"), polydisc(1), 1.0,
                              eps_ladder=(0.5, 0.1), norm_tol=1e-4)
    assert len(rows) == 2
    for row in rows:
        assert row.converged
        assert row.met
        assert row.error <= row.eps
    # tighter target forces dilation closer to 1 and a larger degree
    assert rows[1].rho >= rows[0].rho
    assert rows[1].M >= rows[0].M


def test_density_one_factor_product_matches_disc_entry():
    # a one-variable entry is the one-factor product of its series
    fa09 = default_registry().get("fa-0.9")
    rows = [density_experiment(ent, polydisc(1), 1.0, (0.5, 0.1, 0.02),
                               norm_tol=1e-3)
            for ent in (fa09, product_entry((fa09,)))]
    assert rows[0] == rows[1]


def test_density_probe_does_not_depend_on_the_block_size(monkeypatch):
    # the probe takes its max over the blocks of quadrature.torus_blocks:
    # blocks of 1024 points, shells cut into pieces of at most that many,
    # give the same rows as the default
    ent = default_registry().get("prod-fa-0.9")

    def rows():
        return density_experiment(ent, polydisc(2), 1.0, (0.5, 0.1, 0.02),
                                  norm_tol=1e-3)
    default = rows()
    monkeypatch.setattr(quadrature, "_CHUNK", dict.fromkeys((1, 2, 3), 1024))
    assert rows() == default


@pytest.mark.parametrize("dim", [1, 2])
def test_density_probe_takes_each_rung_once(dim):
    # every target scans the rungs rho_k = 1 - 2^-k from k = 1; the probe
    # of a rung is evaluated once per call, however many targets reach it
    fa09 = default_registry().get("fa-0.9")
    entry = product_entry((fa09,) * dim)
    calls = []
    evaluator = entry.evaluator

    def counted(*zs):
        calls.append(zs[0].shape)
        return evaluator(*zs)
    entry.__dict__["evaluator"] = counted     # the cached property's slot
    rows = density_experiment(entry, polydisc(dim), 1.0, (0.5, 0.1, 0.02),
                              norm_tol=1e-3)
    # a polydisc probes its one maximal frontier shell, (1, ..., 1)
    m_probe = 2048 if dim == 1 else 128
    blocks = len(list(quadrature.torus_blocks(np.ones((1, dim)),
                                              (m_probe,) * dim)))
    rungs = round(-np.log2(1.0 - max(row.rho for row in rows)))
    assert len(calls) == blocks * (1 + rungs)
    fresh = density_experiment(product_entry((fa09,) * dim), polydisc(dim),
                               1.0, (0.5, 0.1, 0.02), norm_tol=1e-3)
    assert rows == fresh


class _Probed(Exception):
    pass


def test_density_probe_takes_the_maximal_frontier_shells(monkeypatch):
    # a dominated shell never carries the sup of |f - f_rho|: a polydisc
    # probes its one shell (1, 1), while no shell of the 16-direction
    # frontier sample of a ball or a power egg dominates another
    probed = []

    def recording(radii, angular, shift=None, count=None):
        probed.append(np.asarray(radii))
        raise _Probed
    monkeypatch.setattr(reinhardt, "torus_blocks", recording)
    ent = default_registry().get("prod-fa-0.9")
    for dom in (polydisc(2), ball(2), power_egg([1, 1])):
        with pytest.raises(_Probed):
            density_experiment(ent, dom, 1.0, (0.5,))
    sample = [frontier_sample(dom, 16) for dom in (ball(2),
                                                  power_egg([1, 1]))]
    assert [p.tolist() for p in probed] == [[[1.0, 1.0]]] + [
        s.tolist() for s in sample]


def test_density_rows_do_not_move_when_dominated_shells_are_probed(
        monkeypatch):
    # probing every shell of the sample again, dominated ones included,
    # gives the bidisc rows bit for bit: the same rho, M and error
    ent = default_registry().get("prod-fa-0.9")

    def rows():
        return density_experiment(ent, polydisc(2), 1.0, (0.5, 0.1, 0.02),
                                  norm_tol=1e-3)
    maximal = rows()
    monkeypatch.setattr(reinhardt, "_maximal_rows",
                        lambda radii: np.arange(len(radii)))
    assert rows() == maximal
    assert [(r.rho, r.M) for r in maximal] == [
        (1 - 2.0 ** -21, 135), (1 - 2.0 ** -24, 152), (1 - 2.0 ** -26, 168)]


def test_density_degree_is_the_smallest_that_clears_the_tail_target():
    # M is the smallest degree whose coefficient tail bound
    # prod_j full_j - prod_j sum_{k <= M} |a_{j,k}| x_j^k, with x_j rho times
    # the domain's extent on axis j, is at most eps / (2 norm_factor)
    reg = default_registry()
    domains = {"disc": polydisc(1), "bidisc": polydisc(2)}
    k = np.arange(2048)
    for label, name, eps, rho, M, *_ in run_density().rows:
        dom, entry = domains[label], reg.get(name)
        n = dom.dim
        sums = [np.cumsum(np.abs(fac.coefficients(k[-1]))
                          * (rho * frontier_max_radius(dom, axis)[j]) ** k)
                for j, (fac, axis) in enumerate(zip(entry.factors,
                                                    np.eye(n)))]
        tail = np.prod([s[-1] for s in sums]) - np.prod(sums, axis=0)
        target = eps / (2.0 * (1.0 if n == 1 else (2.0 * np.pi) ** n))
        assert tail[M] <= target
        assert M == 0 or tail[M - 1] > target


def test_density_row_is_unconverged_when_the_coefficient_sum_is_slow():
    # sum (k+1) (0.999 rho)^k needs about 50,000 terms to settle, past the
    # 20,000-term limit: the row comes back marked unconverged, with its
    # measured error against eps, instead of raising
    (row,) = density_experiment(fa_entry(0.999), polydisc(1), 1.0, (0.5,))
    assert not row.converged
    assert row.met == (row.error <= 0.5) and np.isfinite(row.error)


def test_density_experiment_dimension_mismatch():
    reg = default_registry()
    with pytest.raises(ValueError):
        density_experiment(reg.get("fa-0.9"), polydisc(2), 1.0, (0.5,))


def test_domain_validation():
    with pytest.raises(ValueError):
        polydisc(2, radii=[1.0, -1.0])
    with pytest.raises(ValueError):
        ball(2, radius=0.0)
    with pytest.raises(ValueError):
        power_egg([])
    with pytest.raises(ValueError):
        ReinhardtDomain(dim=0, kind="custom", gauge=lambda r: r,
                        params=(), diameter_bound=1.0)


def test_monomial_moments_closed_forms():
    # m_alpha = int_D |z^alpha|^2 dV; alpha = 0 is the volume
    m = monomial_moments(polydisc(2, [0.5, 2.0]), 3)
    assert m.shape == (4, 4)
    assert m[2, 1] == pytest.approx(np.pi * 0.5 ** 6 / 3 * np.pi * 2.0 ** 4
                                    / 2, rel=1e-15)
    # the unit ball is the power-egg with p = (2, ..., 2), of volume
    # pi^n / n!
    for n in (1, 2, 3):
        b, e = monomial_moments(ball(n), 4), monomial_moments(
            power_egg([2.0] * n), 4)
        assert b.shape == (5,) * n
        assert np.allclose(b, e, rtol=1e-13, atol=0)
        assert b.flat[0] == pytest.approx(np.pi ** n / np.prod(range(1, n + 1)),
                                          rel=1e-14)
    # ball of radius R: |z1|^2 has moment pi^2 R^6 / 6
    assert monomial_moments(ball(2, 1.5), 1)[1, 0] == pytest.approx(
        np.pi ** 2 * 1.5 ** 6 / 6, rel=1e-14)
    # the simplex |z1| + |z2| < 1: (2 pi)^2 / 4! for alpha = 0
    assert monomial_moments(power_egg([1.0, 1.0]), 0)[0, 0] == pytest.approx(
        (2 * np.pi) ** 2 / 24, rel=1e-14)
    assert monomial_moments(custom_domain(lambda r: r[..., 0], 1, 1.0),
                            3) is None
