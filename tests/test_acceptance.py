"""End-to-end acceptance gates for the laboratory.

One test per criterion, each ending in a single printed PASS/FAIL line.
The expensive experiment runs are shared across criteria through
module-scoped fixtures, so the whole file stays inside a laptop budget.
"""

import numpy as np
import pytest

from hardylab.cli import main
from hardylab.experiments import (RunConfig, run_a1_convergence, run_blowup,
                                  run_density, run_ic_asymptotics,
                                  run_reinhardt, run_uniform_bound)
from hardylab.norms import hardy_norm_disc
from hardylab.series import PowerSeries, partial_sum, partial_sum_kernel
from hardylab.witnesses import fa_series


@pytest.fixture(scope="module")
def uniform_result():
    return run_uniform_bound()


@pytest.fixture(scope="module")
def blowup_result():
    return run_blowup()


@pytest.fixture(scope="module")
def reinhardt_result():
    return run_reinhardt()


@pytest.fixture(scope="module")
def density_result():
    return run_density()


@pytest.fixture(scope="module")
def ic_result():
    return run_ic_asymptotics()


def _gate(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok


def test_criterion_01_hardy_oracle():
    worst = 0.0
    for a in (0.0, 0.5, 0.9, 0.99, 0.999):
        est = hardy_norm_disc(fa_series(a), 1.0, 1e-6, k_max=36)
        worst = max(worst, abs(est.value - 1.0))
        assert est.converged
    _gate(1, "hardy norm oracle", worst <= 1e-6)
    # the declared f_a are integrated on the circle, where the trapezoid
    # rule reaches the closed form, not just the tolerance
    assert worst <= 1e-12, f"worst error {worst:.3g} above 1e-12"


def test_criterion_02_uniform_bound_plateau(uniform_result):
    s = uniform_result.summary
    ok = (uniform_result.exit_code == 0
          and np.isfinite(s["max_ratio_a1"])
          and s["plateau_ok"] and s["all_converged"])
    _gate(2, "uniform bound plateau", ok)


def test_criterion_03_a1_convergence():
    res = run_a1_convergence()
    s = res.summary
    ok = (res.exit_code == 0 and s["fa_strictly_decreasing"]
          and s["final_ok"] and s["polynomials_exact_ok"]
          and s["all_converged"])
    _gate(3, "bergman convergence", ok)


def test_criterion_04_hardy_blowup(blowup_result, uniform_result):
    s = blowup_result.summary
    plateau_level = 1.10 * uniform_result.summary["max_late"]
    ratio_a1_max = max(row[6] for row in blowup_result.rows)
    ok = (blowup_result.exit_code == 0 and s["h1_strictly_increasing"]
          and s["growth_ok"] and s["all_converged"]
          and ratio_a1_max <= plateau_level)
    _gate(4, "hardy blow-up with bounded bergman ratio", ok)


def test_criterion_05_split_bounds(blowup_result):
    s = blowup_result.summary
    t1_rows_ok = all(row[7] <= 2.0 + 1e-6 for row in blowup_result.rows)
    ok = s["t2_band_ok"] and s["t1_ok"] and t1_rows_ok
    _gate(5, "two-term split bounds", ok)


def test_criterion_06_circle_integral_regimes(ic_result):
    rows = ic_result.rows
    c1_ok = True
    for c, r, value, comp, ratio, conv in rows:
        if c == 1.0 and r in (0.9, 0.99, 0.999):
            exact = 2.0 * np.pi / (1.0 - r * r)
            c1_ok = c1_ok and abs(value - exact) <= 1e-8 * exact and conv
    lo5, hi5 = ic_result.summary["ratio_bands"][0.5]
    lo0, hi0 = ic_result.summary["ratio_bands"][0.0]
    neg = [row for row in rows if row[0] == -0.5]
    neg_vals = [row[2] for row in neg]
    bounded = np.all(np.isfinite(neg_vals)) and max(neg_vals) <= 2.0 * min(neg_vals)
    # the ladder flattens: the max is (numerically) attained, the values
    # do not keep climbing the way the supercritical regimes do
    flattened = abs(neg_vals[-1] - neg_vals[-2]) <= 0.05 * abs(neg_vals[-1])
    ok = (ic_result.exit_code == 0 and c1_ok
          and hi5 / lo5 <= 4.0 and hi0 / lo0 <= 4.0
          and bounded and flattened)
    _gate(6, "circle integral growth regimes", ok)


def test_criterion_07_kernel_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(200):
        deg = int(rng.integers(0, 25))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1) \
            + 1j * rng.uniform(-1.0, 1.0, deg + 1)
        ps = PowerSeries.from_coefficients(coeffs)
        N = int(rng.integers(0, deg + 4))
        z = rng.uniform(-0.6, 0.6, 50) + 1j * rng.uniform(-0.6, 0.6, 50)
        trunc = np.asarray(partial_sum(ps, N)(z))
        kern = np.asarray(partial_sum_kernel(ps, N, z))
        rel = np.abs(kern - trunc) / np.maximum(np.abs(trunc), 1.0)
        worst = max(worst, float(rel.max()))
    _gate(7, "kernel route equals truncation", worst <= 1e-11)


def test_criterion_08_square_partial_sums(reinhardt_result):
    s = reinhardt_result.summary
    ok = (reinhardt_result.exit_code == 0 and s["plateau_ok"]
          and s["final_err_ok"] and s["monotone_ok"])
    _gate(8, "square sums on the bidisc", ok)


def test_criterion_09_density(density_result):
    ok = density_result.exit_code == 0
    per_case: dict = {}
    for dom, fn, eps, rho, M, err, met, conv in density_result.rows:
        ok = ok and met
        per_case.setdefault((dom, fn), []).append(err)
    for errs in per_case.values():
        ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
    _gate(9, "dilate-truncate density", ok)


def test_criterion_10_determinism(tmp_path):
    import json

    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"c_set": [1.0, 0.5], "eps_ladder": [0.5, 0.1]}))
    ok = True
    for cmd in ("ic", "density"):
        p1, p2 = tmp_path / f"{cmd}1.csv", tmp_path / f"{cmd}2.csv"
        rc1 = main([cmd, "--config", str(cfgp), "--seed", "7",
                    "--out", str(p1)])
        rc2 = main([cmd, "--config", str(cfgp), "--seed", "7",
                    "--out", str(p2)])
        ok = ok and rc1 == rc2 and p1.read_bytes() == p2.read_bytes()
    _gate(10, "byte-identical repeated runs", ok)
