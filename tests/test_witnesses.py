import numpy as np
import pytest

from hardylab.errors import NonConvergenceError, PoleError
from hardylab.quadrature import angular_floor
from hardylab.witnesses import (IcQuery, T1T2Split, WitnessFa, _ic_mean,
                                blowup_lower_bound, blowup_schedule, eval_fa,
                                eval_ic, fa_series, ic_comparison,
                                t2_hardy_vs_bound)

RNG = np.random.default_rng(424242)


def test_eval_fa_matches_series():
    a = 0.6 + 0.2j
    f = fa_series(a)
    z = RNG.uniform(-0.6, 0.6, 6) + 1j * RNG.uniform(-0.6, 0.6, 6)
    termwise = sum((1 - abs(a) ** 2) * (k + 1) * np.conj(a) ** k * z ** k
                   for k in range(400))
    assert np.allclose(eval_fa(a, z), termwise, rtol=1e-12)


def test_eval_fa_rejects_unit_parameter():
    with pytest.raises(ValueError):
        WitnessFa(1.0)
    with pytest.raises(ValueError):
        eval_fa(1.2, 0.3)


def test_eval_fa_pole_guard():
    # the pole sits at 1/conj(a), outside the disc but reachable by input
    with pytest.raises(PoleError):
        eval_fa(0.5, 2.0)


def test_fa_coefficients_closed_form():
    a = 0.75
    w = WitnessFa(a)
    assert w.coefficient(0) == pytest.approx(1 - a * a)
    assert w.coefficient(1) == pytest.approx((1 - a * a) * 2 * a)
    assert w.coefficient(2) == pytest.approx((1 - a * a) * 3 * a * a)
    s = fa_series(a)
    assert s.coefficient(5) == pytest.approx((1 - a * a) * 6 * a ** 5)


def test_fa_circle_mean_closed_form():
    # (1/2pi) int |f_a(r e^it)| dt = (1-a^2)/(1-a^2 r^2) for real a
    a, r = 0.8, 0.9
    theta = 2 * np.pi * np.arange(4096) / 4096
    mean = np.mean(np.abs(eval_fa(a, r * np.exp(1j * theta))))
    assert mean == pytest.approx((1 - a * a) / (1 - a * a * r * r), rel=1e-12)


def test_split_reassembles_partial_sum():
    a, N = 0.85, 23
    split = T1T2Split(a, N)
    f = fa_series(a)
    z = RNG.uniform(-0.7, 0.7, 8) + 1j * RNG.uniform(-0.7, 0.7, 8)
    coeffs = f.coefficients(N)
    horner = np.polynomial.polynomial.polyval(z, coeffs)
    assert np.allclose(split.t1(z) + split.t2(z), horner, rtol=1e-11)
    assert np.allclose(split.partial(z), horner, rtol=1e-11)


def test_split_tail_complements_partial():
    a, N = 0.9, 40
    split = T1T2Split(a, N)
    z = RNG.uniform(-0.8, 0.8, 8) + 1j * RNG.uniform(-0.5, 0.5, 8)
    f_val = eval_fa(a, z)
    assert np.allclose(split.partial(z) + split.tail(z), f_val, rtol=1e-11)


def test_split_at_zero_parameter():
    split = T1T2Split(0.0, 7)
    z = np.array([0.3, -0.2j])
    assert np.allclose(split.partial(z), 1.0)
    assert np.allclose(split.tail(z), 0.0)


def test_blowup_schedule_and_bound():
    assert blowup_schedule(10) == pytest.approx(10 / 11)
    a = 10 / 11
    # (1-a^2) a^{N+1} (N+2) log(1/(1-a))
    expect = (1 - a * a) * a ** 11 * 12 * np.log(11.0)
    assert blowup_lower_bound(a, 10) == pytest.approx(expect, rel=1e-15)
    assert blowup_lower_bound(a, 10) == pytest.approx(1.7503538141090642,
                                                      rel=1e-13)


def test_blowup_lower_bound_grows_along_schedule():
    vals = [blowup_lower_bound(blowup_schedule(N), N)
            for N in (16, 64, 256, 1024)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ic_closed_form_at_critical_exponent_one():
    # c = 1: the integral is exactly 2 pi / (1 - |z|^2)
    for r in (0.0, 0.5, 0.9, 0.99):
        got = eval_ic(IcQuery(1.0, complex(r)))
        assert got.converged
        assert got.value == pytest.approx(2 * np.pi / (1 - r * r), rel=1e-10)
    got = eval_ic(IcQuery(1.0, 0.9))
    assert got.value == pytest.approx(33.06939635357677, rel=1e-10)


def _agm(x, y):
    for _ in range(40):
        x, y = 0.5 * (x + y), np.sqrt(x * y)
    return x


@pytest.mark.parametrize("m", [angular_floor(0.9999),
                               2 * angular_floor(0.9999)])
@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("z", [0.9999, 0.9999 * np.exp(0.3j)])
def test_ic_half_circle_rule_closed_forms(m, shift, z):
    # I_1 = 2 pi / ((1 - r)(1 + r)) and I_0 = 2 pi / AGM(1 - r, 1 + r); the
    # floor at r = 0.9999 is odd (640001), its double even
    r = abs(z)
    i1, points = _ic_mean(1.0, z, m, shift)
    i0, _ = _ic_mean(0.0, z, m, shift)
    assert abs(i1 * (1 - r) * (1 + r) - 1.0) <= 1e-13
    assert abs(i0 * _agm(1 - r, 1 + r) - 1.0) <= 1e-13
    # the nodes in [0, pi] alone: angles pi j / m, j = 2 shift, ... <= m
    assert points == (m - int(2 * shift)) // 2 + 1


def test_ic_levels_evaluate_the_new_half_circle_nodes():
    # level 0 evaluates m // 2 + 1 nodes of [0, pi]; level 1 only the
    # half-shifted ones, (m + 1) // 2, and no node twice
    m = angular_floor(0.9999)
    got = eval_ic(IcQuery(0.5, 0.9999))
    assert got.converged and got.report.levels == 1
    assert got.report.node_counts == ((m + 1) // 2,)


def test_ic_rotation_invariance():
    q1 = eval_ic(IcQuery(0.5, 0.8 + 0j))
    q2 = eval_ic(IcQuery(0.5, 0.8 * np.exp(0.7j)))
    assert q1.value == pytest.approx(q2.value, rel=1e-10)


def test_ic_monotone_in_radius():
    # circle integrals of |1 - z e^{-it}|^{-(1+c)} grow with |z|
    for c in (1.0, 0.5, 0.0, -0.5):
        vals = [eval_ic(IcQuery(c, complex(r))).value
                for r in (0.3, 0.6, 0.9, 0.99)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ic_subcritical_bounded():
    # c = -0.5 stays below its r -> 1 limit 2 pi Gamma(1/2) / Gamma(3/4)^2
    from math import gamma
    limit = 2 * np.pi * gamma(0.5) / gamma(0.75) ** 2
    v = eval_ic(IcQuery(-0.5, 0.9999)).value
    assert v < limit
    assert v > 0.98 * limit


def test_ic_log_regime():
    # c = 0 grows like 2 log(1/(1-r)) plus a constant, so the ratio to the
    # comparison log(1/(1-r^2)) decreases toward 2 from above
    r1 = eval_ic(IcQuery(0.0, 0.999)).value / ic_comparison(0.0, 0.999)
    r2 = eval_ic(IcQuery(0.0, 0.9999)).value / ic_comparison(0.0, 0.9999)
    assert r2 < r1
    assert 2.0 < r2 < 3.0


def test_ic_rejects_points_outside_disc():
    with pytest.raises(ValueError):
        eval_ic(IcQuery(0.5, 1.2))


def test_ic_comparison_regimes():
    assert ic_comparison(1.0, 0.6) == pytest.approx(1 / (1 - 0.36))
    assert ic_comparison(0.0, 0.6) == pytest.approx(np.log(1 / (1 - 0.36)))
    assert ic_comparison(-0.5, 0.6) == 1.0


def test_ic_ratio_rows():
    # I_1(z) / comparison(1, z) = 2 pi exactly, since I_1(z) = 2 pi / (1 - |z|^2)
    rows = [eval_ic(IcQuery(1.0, complex(r))).value / ic_comparison(1.0, r)
            for r in (0.5, 0.9)]
    assert len(rows) == 2
    assert rows[0] == pytest.approx(2 * np.pi, rel=1e-9)
    assert rows[1] == pytest.approx(2 * np.pi, rel=1e-9)


def test_t2_hardy_vs_bound_prefactor():
    a, N = 0.9, 12
    row = t2_hardy_vs_bound(a, N)
    assert row.converged
    # ||T2||_H1 = (1-a^2)(N+2) a^{N+1} * mean of 1/|1 - a e^{it}|
    theta = 2 * np.pi * np.arange(1 << 16) / (1 << 16)
    mean = np.mean(1.0 / np.abs(1 - a * np.exp(1j * theta)))
    expect = (1 - a * a) * (N + 2) * a ** (N + 1) * mean
    assert row.t2_h1 == pytest.approx(expect, rel=1e-8)
    assert row.ratio == pytest.approx(row.t2_h1 / blowup_lower_bound(a, N),
                                      rel=1e-12)


def test_t2_ratio_band_on_schedule():
    ratios = [t2_hardy_vs_bound(blowup_schedule(N), N).ratio
              for N in (16, 64, 256)]
    assert max(ratios) / min(ratios) < 3.0
    assert all(0.1 < r < 10.0 for r in ratios)
