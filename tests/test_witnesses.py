import numpy as np
import pytest

from hardylab.errors import NonConvergenceError, PoleError
from hardylab.experiments import DEFAULT_C_SET
from hardylab.quadrature import angular_floor
from hardylab.witnesses import (IcQuery, T1T2Split, _ic_mean,
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
        fa_series(1.0)
    with pytest.raises(ValueError):
        eval_fa(1.2, 0.3)


def test_eval_fa_pole_guard():
    # the pole sits at 1/conj(a), outside the disc but reachable by input
    with pytest.raises(PoleError):
        eval_fa(0.5, 2.0)


def test_fa_coefficients_closed_form():
    for a in (0.75, 0.6 + 0.3j):
        s = fa_series(a)
        for k in (0, 1, 2, 5):
            assert s.coefficient(k) == pytest.approx(
                (1 - abs(a) ** 2) * (k + 1) * np.conj(a) ** k)


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


def _ic_floor(r):
    # the angular floor at the Moebius distance delta = min(1, sqrt(2 eps))
    return angular_floor(1.0 - min(1.0, np.sqrt(2.0 * (1.0 - r))))


def test_ic_levels_evaluate_the_new_half_circle_nodes():
    # level 0 evaluates m // 2 + 1 nodes of [0, pi]; level 1 only the
    # half-shifted ones, (m + 1) // 2, and no node twice
    m = _ic_floor(0.9999)
    got = eval_ic(IcQuery(0.5, 0.9999))
    assert got.converged and got.report.levels == 1
    assert got.report.node_counts == ((m + 1) // 2,)


@pytest.fixture
def ic_points(monkeypatch):
    """The points of each ``_ic_mean`` call, in order."""
    import hardylab.witnesses as w
    seen = []

    def counted(*args, **kw):
        mean, points = _ic_mean(*args, **kw)
        seen.append(points)
        return mean, points
    monkeypatch.setattr(w, "_ic_mean", counted)
    return seen


@pytest.mark.parametrize("c", DEFAULT_C_SET)
def test_ic_points_at_the_benchmark_radius(ic_points, c):
    # on the order of 1/sqrt(1 - r) nodes: the floor at r = 0.99999 is
    # 14,311 and its two levels evaluate 7,156 points each
    assert _ic_floor(0.99999) == 14311
    got = eval_ic(IcQuery(c, 0.99999))
    assert got.converged
    assert sum(ic_points) <= 2 * -(-14311 // 2) + 2


@pytest.mark.parametrize("r, max_nodes", [(1 - 1e-11, 1 << 22),
                                          (1 - 2.0 ** -52, 1 << 22),
                                          (0.99999, 1000)])
def test_ic_near_rim_stays_within_the_node_budget(ic_points, r, max_nodes):
    # a floor past max_nodes gets one capped evaluation, flagged
    got = eval_ic(IcQuery(1.0, r), max_nodes=max_nodes)
    assert not got.converged and np.isfinite(got.value)
    assert ic_points and max(ic_points) <= max_nodes
    row = t2_hardy_vs_bound(r, 16, max_nodes=max_nodes)
    assert not row.converged and max(ic_points) <= max_nodes


@pytest.mark.parametrize("c, z", [(float("nan"), 0.5), (float("inf"), 0.5),
                                  (0.5, float("nan")), (0.5, complex("nan")),
                                  (0.5, complex(0.5, float("inf"))),
                                  (0.5, 1.0)])
def test_ic_refuses_non_finite_inputs(ic_points, c, z):
    with pytest.raises(ValueError):
        eval_ic(IcQuery(c, z))
    if np.isfinite(c):
        with pytest.raises(ValueError):
            t2_hardy_vs_bound(z, 16)
    assert not ic_points


def test_ic_every_c_meets_the_hypergeometric_form():
    # I_c(r) = 2 pi 2F1((1+c)/2, (1+c)/2; 1; r^2), the Taylor series of
    # |1 - r e^(i theta)|^(-(1+c)) integrated term by term
    mp = pytest.importorskip("mpmath")
    for c in DEFAULT_C_SET:
        for r in (0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
            got = eval_ic(IcQuery(c, complex(r)))
            with mp.workdps(30):
                b = mp.mpf(c + 1) / 2
                exact = 2 * mp.pi * mp.hyp2f1(b, b, 1, mp.mpf(r) ** 2)
                assert got.converged
                assert abs(got.value - exact) <= 1e-14 * exact, (c, r)


def test_t2_meets_the_agm_form_along_the_schedule():
    # ||T2||_H1 = (1 - s^2)(N + 2) s^(N+1) / AGM(1 - s, 1 + s), s the float
    # the function receives
    mp = pytest.importorskip("mpmath")
    for k in range(4, 13):
        N = 1 << k
        s = blowup_schedule(N)
        row = t2_hardy_vs_bound(s, N)
        with mp.workdps(30):
            S = mp.mpf(s)
            exact = (1 - S**2) * (N + 2) * S ** (N + 1) / mp.agm(1 - S, 1 + S)
            assert row.converged
            assert abs(row.t2_h1 - exact) <= 1e-13 * exact, N


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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _ipow_reference(t, n):
    # the plain repeated squaring the in-place kernel must reproduce
    if n <= 64:
        return t ** n
    out = np.ones_like(t)
    base = t
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _kernel_points(radius):
    r = radius * np.sqrt(RNG.uniform(0.0, 1.0, (4, 33)))
    z = r * np.exp(1j * RNG.uniform(0.0, 2 * np.pi, (4, 33)))
    z[0, :3] = [0.0, radius, -radius]
    return [z,                                             # 2-d
            z[:, ::3],                                     # strided view
            np.broadcast_to(z[1], (3, 33)),                # read-only view
            z[2, :2]]                                      # two points


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 513, 4097])
def test_ipow_kernel_matches_repeated_squaring_bit_for_bit(n):
    from hardylab.witnesses import _ipow
    for t in _kernel_points(0.9995):
        kept = t.copy()
        assert _same_bits(_ipow(t, n), _ipow_reference(t, n))
        assert _same_bits(t, kept)


def _split_reference(a, N, z):
    # the closed forms of T1T2Split written out as plain expressions
    t = np.conj(complex(a)) * np.asarray(z, dtype=np.complex128)
    one = 1.0 - abs(complex(a)) ** 2
    w = _ipow_reference(t, N + 1)
    return {"t1": one * (1.0 - _ipow_reference(t, N + 2)) / (1.0 - t) ** 2,
            "t2": -one * (N + 2) * w / (1.0 - t),
            "partial": one * (((1.0 - w * t) - (N + 2) * w * (1.0 - t))
                              / (1.0 - t) ** 2),
            "tail": one * w * ((N + 2) - (N + 1) * t) / (1.0 - t) ** 2}


@pytest.mark.parametrize("N", [0, 7, 63, 64, 200, 4095])
def test_split_kernels_match_the_closed_forms_bit_for_bit(N):
    a = 0.9 * np.exp(0.3j)
    split = T1T2Split(a, N)
    for z in _kernel_points(1.0):
        kept = z.copy()
        ref = _split_reference(a, N, z)
        for name, want in ref.items():
            assert _same_bits(getattr(split, name)(z), want), name
        assert _same_bits(z, kept)
    # numpy rounds a one-element complex product differently in place and
    # out of place, so a single point agrees to a few roundoffs per
    # squaring, not bit for bit
    for z in (0.4 - 0.7j, np.array([0.4 - 0.7j])):
        ref = _split_reference(a, N, z)
        for name, want in ref.items():
            got = getattr(split, name)(z)
            assert np.abs(got - want) <= 1e-14 * np.abs(want), name


@pytest.mark.parametrize("a, N", [(0.5, 8), (0.99, 8), (0.999, 8),
                                  (0.999, 64), (512 / 513, 512),
                                  (4096 / 4097, 4096)])
def test_partial_over_one_denominator_is_as_accurate_as_t1_plus_t2(a, N):
    # S_N f_a over one denominator against the sum of the two divisions,
    # both measured against sum_{k<=N} (1 - a^2)(k + 1)(a z)^k taken to
    # 40 digits, relative to |T1| + |T2|, the size of what cancels.  The
    # sum is taken as (1 - (N + 2) t^(N+1) + (N + 1) t^(N+2)) / (1 - t)^2,
    # t = a z, which cancels at most about 11 of the 40 digits here.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(N)
    radii = np.concatenate([[0.3, 0.9, 0.999, 1.0],
                            1.0 - 10.0 ** rng.uniform(-5.0, -0.5, 6)])
    angles = np.concatenate([[0.0, np.pi], 10.0 ** rng.uniform(-4.0, 0.0, 3),
                             rng.uniform(0.0, 2 * np.pi, 3)])
    z = (radii[:, None] * np.exp(1j * angles)).ravel()
    split = T1T2Split(a, N)
    t = a * z
    one = 1.0 - a * a
    w = _ipow_reference(t, N + 1)
    old = one * ((1.0 - w * t) / (1.0 - t) ** 2 - (N + 2) * w / (1.0 - t))
    new = split.partial(z)
    scale = np.abs(split.t1(z)) + np.abs(split.t2(z))
    err_old = err_new = 0.0
    with mp.workdps(40):
        A = mp.mpf(a)
        for i, zi in enumerate(z):
            ti = A * mp.mpc(zi.real, zi.imag)
            exact = ((1 - A * A) * (1 - (N + 2) * ti ** (N + 1)
                                    + (N + 1) * ti ** (N + 2))
                     / (1 - ti) ** 2)
            err_old = max(err_old, float(abs(old[i] - exact)) / scale[i])
            err_new = max(err_new, float(abs(new[i] - exact)) / scale[i])
    assert err_new <= 1.25 * err_old + 1e-16, (err_new, err_old)
