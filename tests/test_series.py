import json

import numpy as np
import pytest

from hardylab.errors import (AliasingError, NonConvergenceError,
                             SingularKernelError)
from hardylab.series import (MultiIndexSeries, PowerSeries,
                             block_coefficients, block_coefficients_nd,
                             extract_coefficient, kernel_identity_check,
                             partial_sum, partial_sum_kernel,
                             partial_sum_with_report, series_from_json,
                             series_to_json, square_partial_sum)
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


def test_series_eval_by_coefficients_inside_radius():
    # geometric series summed termwise against the closed form
    g = PowerSeries.from_generator(lambda k: 1.0 + 0j)
    z = np.array([0.5, -0.4 + 0.3j, 0.1j])
    got = g.eval_by_coefficients(z)
    assert np.allclose(got, 1.0 / (1.0 - z), rtol=1e-12)


def test_series_eval_outside_radius_raises():
    g = PowerSeries.from_generator(lambda k: 1.0 + 0j)
    with pytest.raises(NonConvergenceError):
        g.eval_by_coefficients(np.array([1.5 + 0j]), max_terms=4000)


def test_partial_sum_truncates():
    p = PowerSeries.from_coefficients([3, 1, 4, 1, 5])
    s2 = partial_sum(p, 2)
    assert s2.degree == 2
    assert [s2.coefficient(k) for k in range(3)] == [3, 1, 4]
    assert s2.coefficient(3) == 0j


def test_square_partial_sum_keeps_max_index():
    F = MultiIndexSeries(2, {(0, 0): 1, (1, 2): 2, (3, 1): 4, (2, 2): 5})
    S2 = square_partial_sum(F, 2)
    assert S2.coefficient((1, 2)) == 2
    assert S2.coefficient((2, 2)) == 5
    assert S2.coefficient((3, 1)) == 0j


def test_multi_index_eval_matches_loop():
    F = MultiIndexSeries(2, {(0, 0): 1.0, (2, 1): -0.5 + 1j, (1, 3): 0.25})
    z1 = RNG.uniform(-0.6, 0.6, 4) + 1j * RNG.uniform(-0.6, 0.6, 4)
    z2 = RNG.uniform(-0.6, 0.6, 4) + 1j * RNG.uniform(-0.6, 0.6, 4)
    direct = 1.0 + (-0.5 + 1j) * z1 ** 2 * z2 + 0.25 * z1 * z2 ** 3
    assert np.allclose(F(z1, z2), direct, rtol=1e-13)


def test_multi_index_eval_grid():
    F = MultiIndexSeries(2, {(1, 0): 2.0, (0, 2): 1.0})
    ax1 = np.array([0.1, 0.2 + 0.1j])
    ax2 = np.array([0.3j, -0.2, 0.5])
    grid = F.eval_grid([ax1, ax2])
    assert grid.shape == (2, 3)
    for i, a in enumerate(ax1):
        for j, b in enumerate(ax2):
            assert grid[i, j] == pytest.approx(2 * a + b * b)


def test_extract_coefficient_polynomial_exact():
    coeffs = RNG.uniform(-1, 1, 13) + 1j * RNG.uniform(-1, 1, 13)
    p = PowerSeries.from_coefficients(coeffs)
    for j in (0, 4, 12):
        got = extract_coefficient(p, j)
        assert got == pytest.approx(coeffs[j], abs=1e-12)


def test_extract_coefficient_fa_family():
    # coefficients of (1-|a|^2)/(1-conj(a) z)^2 are (1-|a|^2)(k+1) conj(a)^k
    a = 0.7
    f = fa_series(a)
    got = extract_coefficient(f, 4, contour_radius=0.8)
    assert got == pytest.approx((1 - a * a) * 5 * a ** 4, rel=1e-12)


def test_extract_coefficient_aliasing_guard():
    p = PowerSeries.from_coefficients([1.0] * 9)
    with pytest.raises(AliasingError):
        extract_coefficient(p, 8, start_nodes=8)


def test_block_coefficients_matches_single():
    coeffs = RNG.uniform(-1, 1, 8) + 1j * RNG.uniform(-1, 1, 8)
    p = PowerSeries.from_coefficients(coeffs)
    blk = block_coefficients(p, 7)
    assert np.allclose(blk, coeffs, rtol=1e-12, atol=1e-13)


def test_block_coefficients_nd():
    F = MultiIndexSeries(2, {(0, 0): 1.5, (2, 1): -1j, (1, 1): 0.5})
    blk = block_coefficients_nd(F, 3, 2)
    assert blk.shape == (4, 4)
    assert blk[0, 0] == pytest.approx(1.5, abs=1e-12)
    assert blk[2, 1] == pytest.approx(-1j, abs=1e-12)
    assert blk[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert abs(blk[3, 3]) < 1e-12


# A vanishing coefficient is pure roundoff at every refinement level; it
# must settle at roundoff instead of exhausting the node budget.

def test_extract_coefficient_exact_zero():
    p = PowerSeries.from_coefficients([1.0] + [0.0] * 19 + [1.0])
    assert abs(extract_coefficient(p, 5)) < 1e-15
    assert extract_coefficient(p, 0) == pytest.approx(1.0, abs=1e-14)


def test_block_coefficients_zero_block():
    z20 = PowerSeries.from_coefficients([0.0] * 20 + [1.0])
    assert np.allclose(block_coefficients(z20, 5), 0.0, rtol=0.0, atol=1e-15)


def test_block_coefficients_keeps_small_coefficients():
    # a_90 of f_0.9 is 1.3e-3 but its contour mode at R = 0.75 is 7e-15;
    # it is recovered to the roundoff the R^-90 rescale leaves, not zeroed
    a = 0.9
    blk = block_coefficients(fa_series(a), 90, tol=1e-6)
    assert blk[90] == pytest.approx((1 - a * a) * 91 * a ** 90, rel=5e-3)
    with pytest.raises(NonConvergenceError):
        block_coefficients(fa_series(a), 100, tol=1e-6)


def _grid_guard(f, sizes):
    """Record each tensor grid f is asked for and refuse, before any work,
    grids past 2^22 points (a per-axis cap of 2^14 would reach 2^28)."""
    def guarded(*zs):
        size = np.broadcast(*zs).size
        assert size <= 1 << 22, f"grid of {size} points past the budget"
        sizes.append(size)
        return f(*zs)
    return guarded


def test_block_coefficients_nd_zero_block():
    F = MultiIndexSeries(2, {(10, 10): 1.0})
    got = block_coefficients_nd(_grid_guard(F, []), 3, 2)
    assert np.allclose(got, 0.0, rtol=0.0, atol=1e-15)


def test_block_coefficients_nd_budget_is_on_the_grid():
    # a pole on the contour never settles; the refinement must stop at the
    # node budget of the whole grid
    pole = 0.75 * np.exp(1j)
    sizes = []
    f = _grid_guard(lambda z1, z2: 1.0 / (z1 - pole) + z2, sizes)
    with pytest.raises(NonConvergenceError):
        block_coefficients_nd(f, 3, 2)
    assert max(sizes) <= 1 << 20


def test_contour_grids_past_the_budget_are_not_evaluated():
    sizes = []
    F = _grid_guard(MultiIndexSeries(2, {(0, 0): 1.0}), sizes)
    with pytest.raises(NonConvergenceError):
        block_coefficients_nd(F, 4096, 2)
    with pytest.raises(NonConvergenceError):
        extract_coefficient(F, 3, start_nodes=1 << 21)
    assert sizes == []


def test_kernel_identity_small_residual():
    # residual of the finite geometric identity behind the kernel form
    for z, xi, N in ((0.3 + 0.2j, 0.9, 6), (0.5, 0.7j, 11), (-0.2j, 0.8, 3)):
        assert kernel_identity_check(z, xi, N) < 1e-13


def test_kernel_identity_rejects_singular_points():
    with pytest.raises(SingularKernelError):
        kernel_identity_check(0.5, 0.5, 4)
    with pytest.raises(SingularKernelError):
        kernel_identity_check(0.3, 0.0, 4)


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


def test_partial_sum_with_report_both_methods():
    f = fa_series(0.6)
    rt = partial_sum_with_report(f, 5, method="truncation")
    rc = partial_sum_with_report(f, 5, method="contour")
    assert rt.method == "truncation"
    assert rc.method == "contour"
    assert rc.contour_radius is not None
    z = 0.3 + 0.2j
    assert rc.series(z) == pytest.approx(rt.series(z), abs=1e-11)
    with pytest.raises(ValueError):
        partial_sum_with_report(f, 5, method="magic")


def test_series_json_schema_and_roundtrip():
    p = PowerSeries.from_coefficients([1.0, 0.0, 2.5 - 1j])
    text = series_to_json(p)
    doc = json.loads(text)
    assert doc["dim"] == 1
    assert doc["coeffs"][0] == [0, 1.0, 0.0]
    assert doc["coeffs"][2] == [2, 2.5, -1.0]
    back = series_from_json(text)
    assert np.allclose(back.coefficients(2), p.coefficients(2))

    F = MultiIndexSeries(2, {(1, 2): 3j, (0, 0): 1.0})
    doc2 = json.loads(series_to_json(F))
    assert doc2["dim"] == 2
    # lexicographic support order
    assert doc2["coeffs"][0][:2] == [0, 0]
    assert doc2["coeffs"][1][:2] == [1, 2]
    back2 = series_from_json(series_to_json(F))
    assert back2.coefficient((1, 2)) == pytest.approx(3j)


def test_json_float_format_is_repr_faithful():
    p = PowerSeries.from_coefficients([0.1 + 0.2j])
    text = series_to_json(p)
    assert "0.10000000000000001" in text
    assert "0.20000000000000001" in text


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
