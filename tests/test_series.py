import numpy as np
import pytest

from hardylab.errors import NonConvergenceError
from hardylab.series import PowerSeries, partial_sum, partial_sum_kernel
from hardylab.witnesses import fa_series

RNG = np.random.default_rng(20260823)


def test_power_series_trims_and_degree():
    p = PowerSeries.from_coefficients([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coefficient(0) == 1
    assert p.coefficient(5) == 0j
    z = PowerSeries.from_coefficients([0])
    assert z.degree == -1
    assert z(0.3) == 0


def test_power_series_generator_memoizes():
    calls = []

    def gen(k):
        calls.append(k)
        return 1.0 / (k + 1)

    p = PowerSeries.from_generator(gen)
    assert p.coefficient(3) == pytest.approx(0.25)
    assert p.coefficient(3) == pytest.approx(0.25)
    assert calls.count(3) == 1


def test_power_series_eval_matches_horner():
    coeffs = RNG.uniform(-1, 1, 9) + 1j * RNG.uniform(-1, 1, 9)
    p = PowerSeries.from_coefficients(coeffs)
    z = RNG.uniform(-0.7, 0.7, 5) + 1j * RNG.uniform(-0.7, 0.7, 5)
    direct = sum(coeffs[k] * z ** k for k in range(9))
    assert np.allclose(p(z), direct, rtol=1e-14, atol=1e-14)


def test_polynomial_builds_its_coefficient_array_once(monkeypatch):
    # a call reads one complex128 coefficient array, built on the first
    # call and never written; the values are numpy's Horner sum, bit for bit
    for p in (PowerSeries.from_coefficients(RNG.uniform(-1, 1, 41)),
              PowerSeries.from_generator(lambda k: (k + 1) * 0.5j,
                                         degree=40)):
        reads = []
        coefficient = PowerSeries.coefficient
        monkeypatch.setattr(PowerSeries, "coefficient",
                            lambda self, k: reads.append(k)
                            or coefficient(self, k))
        z = RNG.uniform(-0.7, 0.7, 64) + 1j * RNG.uniform(-0.7, 0.7, 64)
        first = p(z)
        assert sorted(reads) == list(range(41))
        for _ in range(3):
            assert p(z).tobytes() == first.tobytes()
        assert len(reads) == 41
        monkeypatch.undo()
        exact = np.polynomial.polynomial.polyval(z, p.coefficients(40))
        assert first.tobytes() == exact.tobytes()
        assert not p._horner.flags.writeable


def test_series_without_closed_form_or_degree_raises():
    # coefficients alone do not make an evaluator
    g = PowerSeries.from_generator(lambda k: 1.0 + 0j)
    with pytest.raises(ValueError, match="closed form"):
        g(np.array([0.5 + 0j]))


def test_partial_sum_truncates():
    p = PowerSeries.from_coefficients([3, 1, 4, 1, 5])
    s2 = partial_sum(p, 2)
    assert s2.degree == 2
    assert [s2.coefficient(k) for k in range(3)] == [3, 1, 4]
    assert s2.coefficient(3) == 0j


def test_series_give_their_own_partial_sums_and_tails():
    # closed forms when given (f_a's split), else the coefficients up to N
    # and above N; a tail needs one or the other
    z = RNG.uniform(-0.6, 0.6, 7) + 1j * RNG.uniform(-0.6, 0.6, 7)
    p = PowerSeries.from_coefficients([3, 1, 4, 1, 5])
    assert np.array_equal(p.partial(2)(z), partial_sum(p, 2)(z))
    assert np.allclose(p.tail(2)(z), z ** 3 + 5 * z ** 4, rtol=1e-14)
    fa = fa_series(0.7)
    for N in (0, 3, 40):
        assert np.allclose(fa.partial(N)(z), partial_sum(fa, N)(z),
                           rtol=1e-12, atol=1e-14)
        assert np.allclose(np.asarray(fa.partial(N)(z)) + fa.tail(N)(z),
                           fa(z), rtol=1e-12, atol=1e-14)
    g = PowerSeries.from_generator(lambda k: 1.0 + 0j)
    assert np.allclose(g.partial(3)(z), 1 + z + z ** 2 + z ** 3, rtol=1e-14)
    with pytest.raises(ValueError, match="closed-form tail"):
        g.tail(3)


def _node_guard(f, sizes):
    """Record each contour rule f is sampled on and refuse, before any
    work, rules past 2^22 nodes."""
    def guarded(xi):
        assert xi.size <= 1 << 22, f"rule of {xi.size} nodes past the budget"
        sizes.append(xi.size)
        return f(xi)
    return guarded


def test_partial_sum_kernel_settles_on_a_vanishing_sum():
    # S_5 of z^20 vanishes: pure roundoff at every refinement level, it
    # must settle there instead of exhausting the node budget
    z20 = PowerSeries.from_coefficients([0.0] * 20 + [1.0])
    pts = np.array([0.3, -0.2 + 0.5j])
    assert np.allclose(partial_sum_kernel(z20, 5, pts), 0.0, rtol=0.0,
                       atol=1e-15)


def test_partial_sum_kernel_budget_stops_a_pole_on_the_contour():
    # a pole on the contour never settles; the refinement must stop at
    # the node budget
    pole = 0.75 * np.exp(1j)
    sizes = []
    f = _node_guard(lambda xi: 1.0 / (xi - pole), sizes)
    with pytest.raises(NonConvergenceError):
        partial_sum_kernel(f, 3, 0.1, contour_radius=0.75, cap=1 << 16)
    assert max(sizes) <= 1 << 16


def test_contour_grids_past_the_budget_are_not_evaluated():
    sizes = []
    f = _node_guard(PowerSeries.from_coefficients([1.0]), sizes)
    with pytest.raises(NonConvergenceError):
        partial_sum_kernel(f, 4095, 0.1, cap=1 << 12)
    with pytest.raises(NonConvergenceError):
        partial_sum_kernel(f, 3, 0.1, cap=255)
    assert sizes == []


def test_partial_sum_kernel_agrees_with_truncation():
    a = 0.8
    f = fa_series(a)
    z = np.array([0.25, -0.3 + 0.4j, 0.55j])
    for N in (0, 3, 17):
        trunc = partial_sum(f, N)(z)
        kern = partial_sum_kernel(f, N, z)
        assert np.allclose(kern, trunc, rtol=1e-10, atol=1e-12)


def test_partial_sum_kernel_small_values():
    # S_1 z at 1e-8 is far below the scale of z on the contour; its
    # roundoff must not stop the refinement, scalar or array
    z = PowerSeries.from_coefficients([0.0, 1.0])
    assert partial_sum_kernel(z, 1, 1e-8) == pytest.approx(1e-8, abs=1e-16)
    pts = np.array([1e-8, 2e-9j])
    assert np.allclose(partial_sum_kernel(z, 1, pts), pts, rtol=0.0,
                       atol=1e-16)


def test_partial_sum_kernel_radius_guard():
    f = fa_series(0.5)
    with pytest.raises(ValueError):
        partial_sum_kernel(f, 4, 0.9, contour_radius=0.8)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _polyval_inputs():
    r = RNG.uniform(0.0, 1.2, 24)
    w = np.exp(1j * RNG.uniform(0.0, 2 * np.pi, 24))
    grid = (r[:4, None, None] * w[None, :6, None]
            * np.exp(1j * np.linspace(0.0, 1.0, 5))[None, None, :])
    return [0.3 - 0.8j,                                   # Python scalar
            np.array(-0.7 + 0.2j),                        # 0-d array
            np.array([0.2 + 0.4j]),                       # one point
            r * w,                                        # 1-d
            grid,                                         # 3-d
            np.broadcast_to((r[:3] * w[:3])[:, None, None], (3, 4, 5))]


@pytest.mark.parametrize("deg", range(21))
def test_polyval_kernel_matches_numpy_bit_for_bit(deg):
    from hardylab.series import _polyval
    c = RNG.uniform(-1, 1, deg + 1) + 1j * RNG.uniform(-1, 1, deg + 1)
    c[deg % 3] = -0.0          # a signed zero coefficient keeps its sign
    for x in _polyval_inputs():
        kept = np.array(x, copy=True)
        got = _polyval(x, c)
        ref = np.polynomial.polynomial.polyval(x, c)
        assert type(got) is type(ref)
        assert _same_bits(got, ref)
        assert _same_bits(x, kept)            # the input is not written
