import dataclasses
import importlib.util
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab.cli import _parse_floats, _parse_ints, main
from hardylab.errors import DomainModelError
from hardylab.experiments import (RUNNERS, ExperimentResult, RunConfig,
                                  _a2_oracle, _monomial_degree, blowup_orders,
                                  reinhardt_case, render_csv, render_json,
                                  run_blowup, run_ic_asymptotics,
                                  run_reinhardt, run_uniform_bound,
                                  write_result)
from hardylab.registry import (FunctionRegistry, RegistryEntry,
                               TaggedEvaluator, default_registry, fa_entry,
                               monomial_entry, polynomial_entry,
                               product_entry)
from hardylab.quadrature import TWO_PI
from hardylab.reinhardt import ball, custom_domain, polydisc, power_egg
from hardylab.series import PowerSeries


def small_registry():
    reg = FunctionRegistry()
    reg.add(polynomial_entry("const-1", [1.0]))
    reg.add(monomial_entry(1))
    reg.add(fa_entry(0.5))
    return reg


def test_uniform_bound_small_grid():
    cfg = RunConfig(n_set=(8, 16), a_set=(0.5,))
    res = run_uniform_bound(cfg, small_registry())
    assert res.exit_code == 0
    assert len(res.rows) == 6
    assert res.summary["all_converged"]
    assert res.summary["plateau_ok"]
    by_fn = {(r[0], r[1]): r for r in res.rows}
    # constant function: Bergman norm pi over Hardy norm 1, any N
    assert by_fn[("const-1", 8)][5] == pytest.approx(np.pi, rel=1e-6)
    assert by_fn[("const-1", 16)][5] == pytest.approx(np.pi, rel=1e-6)
    # the a parameter is only recorded for extremal-family rows
    assert by_fn[("const-1", 8)][2] is None
    assert by_fn[("fa-0.5", 8)][2] == pytest.approx(0.5)
    assert res.summary["closed_forms_ok"]
    assert res.summary["closed_form_max_rel"] <= cfg.tol


def test_uniform_bound_a_column_is_the_parameter():
    # a negative a is tabulated as a, not as the modulus of the spike
    res = run_uniform_bound(RunConfig(n_set=(8,), a_set=(-0.5,)),
                            small_registry())
    assert res.exit_code == 0
    (row,) = [r for r in res.rows if r[0].startswith("fa-")]
    assert row[:3] == ("fa--0.5", 8, -0.5)
    assert row[3] == pytest.approx(1.0, rel=1e-6)


def test_uniform_bound_closed_forms_cover_the_monomials():
    # f_0 is the constant 1, so it gets the closed forms of z^0 as well
    degrees = {e.name: _monomial_degree(e)
               for e in default_registry().entries(dim=1)}
    assert {name: k for name, k in degrees.items() if k is not None} == {
        "const-1": 0, "mono-1": 1, "mono-2": 2, "mono-5": 5, "fa-0": 0}


def test_uniform_bound_closed_form_gate_catches_a_hardy_column(monkeypatch):
    # S_N z^k = z^k has A1 norm 2 pi / (k + 2) but H1 norm 1; an A1 column
    # taken as the Hardy norm still plateaus on this grid, so only the
    # closed-form gate catches it
    def hardy_as_bergman(f, p, tol, **kw):
        return hardylab.norms.hardy_norm_disc(f, p, tol, **kw)
    monkeypatch.setattr("hardylab.experiments.bergman_norm_disc",
                        hardy_as_bergman)
    res = run_uniform_bound(RunConfig(n_set=(8, 16), a_set=(0.5,)),
                            small_registry())
    assert res.exit_code == 1
    assert not res.summary["closed_forms_ok"]
    assert res.summary["all_converged"] and res.summary["plateau_ok"]


@pytest.fixture
def ub_calls(monkeypatch):
    """The (estimator, spike tag of its function) of each norm call
    run_uniform_bound makes."""
    import hardylab.experiments as ex
    seen = []

    def counted(name, fn):
        def call(f, *args, **kw):
            seen.append((name, f.spike))
            return fn(f, *args, **kw)
        return call
    for name in ("bergman_norm_disc", "hardy_norm_disc"):
        monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))
    return seen


def test_uniform_bound_takes_a_polynomial_s_n_once_per_order(ub_calls):
    # S_N f = f for N >= deg f, so mono-5 and poly-7 need S_4 and S_deg
    # only; every row still equals the estimates taken at its own N
    reg = FunctionRegistry()
    reg.add(monomial_entry(5))
    reg.add(default_registry().get("poly-7"))
    cfg = RunConfig(n_set=(4, 8, 512), a_set=())
    res = run_uniform_bound(cfg, reg)
    assert res.exit_code == 0 and len(res.rows) == 6
    berg = [c for c in ub_calls if c[0] == "bergman_norm_disc"]
    hardy = [c for c in ub_calls if c[0] == "hardy_norm_disc"]
    assert len(berg) == 4                    # min(N, deg) in {4, deg}
    assert len(hardy) == 4 + 2               # the same, plus each h1_f
    for name, N, _a, _h1, a1, _r1, h1n, _r2, _conv in res.rows:
        sn = reg.get(name).partial_evaluator(N)
        direct_a1 = hardylab.norms.bergman_norm_disc(
            sn, 1.0, cfg.tol, max_nodes=cfg.vol_cap())
        direct_h1 = hardylab.norms.hardy_norm_disc(
            sn, 1.0, cfg.tol, max_nodes=cfg.max_nodes)
        assert (a1, h1n) == (direct_a1.value, direct_h1.value), (name, N)


def test_uniform_bound_keeps_a_polynomial_s_n_apart_by_its_tag(ub_calls):
    # a polynomial tagged 0.95 gets min(0.95, N/(N+1)): 8/9 at N = 8 and
    # 0.95 at N = 512, so the two orders share no estimate
    reg = FunctionRegistry()
    reg.add(RegistryEntry("spiky-3", (PowerSeries.from_coefficients(
        [1.0, 0.5, -0.25, 2.0], spike=0.95),)))
    res = run_uniform_bound(RunConfig(n_set=(8, 512), a_set=()), reg)
    assert res.exit_code == 0 and len(res.rows) == 2
    assert [s for name, s in ub_calls if name == "bergman_norm_disc"] == [
        8 / 9, 0.95]


def test_blowup_truncated_grid_trips_growth_gate():
    # three doublings are not enough logarithmic growth to reach 1.5x,
    # so the runner must report a contract violation, not fake a pass
    res = run_blowup(RunConfig(n_set=(16, 32, 64)))
    assert res.exit_code == 1
    assert res.summary["all_converged"]
    assert res.summary["h1_strictly_increasing"]
    assert not res.summary["growth_ok"]
    assert 1.0 < res.summary["h1_growth"] < 1.5
    assert res.summary["t1_ok"]
    assert res.summary["a1_strictly_decreasing"]


def test_blowup_a1_gate_catches_a_hardy_column(monkeypatch):
    # ||f_a||_A1 -> 0 along a = N/(N+1), so the A1 column must fall; taken
    # as the Hardy norm of the same S_N it grows (1.30 -> 2.24 over N = 16
    # ... 1024), which only the a1 gate catches
    def hardy_as_bergman(f, p, tol, **kw):
        return hardylab.norms.hardy_norm_disc(f, p, tol, **kw)
    monkeypatch.setattr("hardylab.experiments.bergman_norm_disc",
                        hardy_as_bergman)
    res = run_blowup(RunConfig(n_set=(16, 1024)))
    assert res.exit_code == 1
    assert not res.summary["a1_strictly_decreasing"]
    assert res.summary["all_converged"] and res.summary["growth_ok"]
    assert res.summary["h1_strictly_increasing"]
    assert res.summary["t1_ok"] and res.summary["t2_band_ok"]


def test_ic_closed_form_rows():
    res = run_ic_asymptotics(RunConfig(), c_set=(1.0,),
                             z_ladder=(0.5, 0.9, 0.99))
    assert res.exit_code == 0
    assert len(res.rows) == 3
    for row in res.rows:
        assert row[4] == pytest.approx(2.0 * np.pi, rel=1e-9)
    assert res.summary["c1_max_rel"] <= 1e-8


def test_ic_c1_rows_meet_the_closed_form_at_roundoff():
    # the real half-circle kernel and (1 - r)(1 + r) in the closed form
    # leave no cancellation, up to r = 0.99999
    res = run_ic_asymptotics(RunConfig(), c_set=(1.0,),
                             z_ladder=(0.9, 0.999, 0.9999, 0.99999))
    assert res.exit_code == 0
    assert res.summary["c1_max_rel"] <= 1e-14


def test_csv_rendering_is_deterministic():
    kw = dict(c_set=(1.0, 0.0), z_ladder=(0.9, 0.99))
    r1 = run_ic_asymptotics(RunConfig(), **kw)
    r2 = run_ic_asymptotics(RunConfig(), **kw)
    c1, c2 = render_csv(r1), render_csv(r2)
    assert c1 == c2
    assert c1.splitlines()[0] == ",".join(r1.columns)
    assert "wall_time" not in c1


def test_json_rendering_carries_timing_and_summary():
    res = run_ic_asymptotics(RunConfig(), c_set=(1.0,), z_ladder=(0.9,))
    data = json.loads(render_json(res))
    assert data["experiment"] == "ic"
    assert data["exit_code"] == 0
    assert data["summary"]["c1_ok"] is True
    assert all(rec["wall_time"] >= 0.0 for rec in data["records"])
    # row values survive the round trip exactly
    assert data["rows"][0][2] == res.rows[0][2]
    # each record names every cell of its row
    assert len(data["records"]) == len(data["rows"])
    for rec, row in zip(data["records"], data["rows"]):
        assert set(rec) == {*res.columns, "wall_time"}
        assert [rec[col] for col in res.columns] == row


def test_csv_float_format_is_repr_faithful():
    res = ExperimentResult("t", ("x", "y", "converged"))
    res.add(time.perf_counter(), 0.1, np.float64(0.2), True)
    assert render_csv(res).splitlines()[1] == \
        "0.10000000000000001,0.20000000000000001,true"


def test_close_sets_exit_code_and_summary():
    def result(*flags):
        res = ExperimentResult("t", ("x", "converged"))
        for flag in flags:
            res.add(time.perf_counter(), 1.0, flag)
        return res

    # non-convergence outranks a failed gate
    res = result(True, False).close({"x_max": 1.0}, bound_ok=False)
    assert res.exit_code == 2
    assert res.summary == {"x_max": 1.0, "bound_ok": False,
                           "all_converged": False}
    res = result(True, True).close({}, bound_ok=np.float64(2.0) < 1.0,
                                   trend_ok=True)
    assert res.exit_code == 1
    assert res.summary == {"bound_ok": False, "trend_ok": True,
                           "all_converged": True}
    assert type(res.summary["bound_ok"]) is bool
    res = result(True, True).close({}, bound_ok=True)
    assert res.exit_code == 0
    assert res.summary["all_converged"] is True
    assert len(res.wall_times) == 2


def test_package_exports_resolve():
    assert len(hardylab.__all__) == len(set(hardylab.__all__))
    for name in hardylab.__all__:
        assert getattr(hardylab, name) is not None
    # every demo imports: each runs main() only under its __main__ guard,
    # so loading it runs just its imports from the package
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    assert len(demos) == 6
    for path in demos:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


# the circle demo has its own test below, which also checks its numbers
_DEMOS = sorted(path for path in
                (Path(__file__).parents[1] / "demos").glob("*.py")
                if path.stem != "demo_circle_integrals")


@pytest.mark.parametrize("path", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_every_demo_runs(path, capsys):
    # each demo end to end, so a broken call in one fails here
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out


def test_circle_integrals_demo_runs(capsys):
    # the demo end to end: its c = 1 lines meet the closed form at roundoff
    path = Path(__file__).parents[1] / "demos" / "demo_circle_integrals.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    errs = [float(line.split("rel err")[1].split()[0])
            for line in capsys.readouterr().out.splitlines()
            if "rel err" in line]
    assert len(errs) == 5 and max(errs) <= 1e-14


def test_write_result_file_and_stdout(tmp_path, capsys):
    res = run_ic_asymptotics(RunConfig(), c_set=(1.0,), z_ladder=(0.9,))
    path = tmp_path / "ic.csv"
    write_result(res, str(path), "csv")
    assert path.read_text() == render_csv(res)
    write_result(res, "-", "csv")
    assert capsys.readouterr().out == render_csv(res)
    jpath = tmp_path / "ic.json"
    write_result(res, str(jpath), "json")
    assert json.loads(jpath.read_text())["experiment"] == "ic"


def test_flag_parsers():
    assert _parse_ints("8,16, 32") == (8, 16, 32)
    assert _parse_ints("8,") == (8,)
    assert _parse_floats("0.5, 0.9") == (0.5, 0.9)


def test_vol_cap_allowance():
    assert RunConfig(max_nodes=1 << 20).vol_cap() == 1 << 26


def test_cli_ic_config_and_determinism(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"c_set": [1.0], "z_ladder": [0.9, 0.99]}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ic", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["ic", "--config", str(cfgp), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "c,r,value,comparison,ratio,converged"


def test_cli_stdout_default(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"c_set": [1.0], "z_ladder": [0.9]}))
    rc = main(["ic", "--config", str(cfgp)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("c,r,")


def test_cli_flag_beats_config(tmp_path):
    # config supplies a wide N grid; the command line narrows it, and the
    # narrowed grid legitimately fails the final-error contract
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"n_set": [8, 16, 32, 64]}))
    outp = tmp_path / "a1.csv"
    rc = main(["a1-converge", "--config", str(cfgp), "--n-set", "16,32",
               "--out", str(outp)])
    assert rc == 1
    rows = outp.read_text().splitlines()[1:]
    ns = {int(line.split(",")[1]) for line in rows}
    assert ns == {16, 32}


def test_cli_a1_converge_json_is_strict_json(capsys):
    # with no order from 16 on, the final error is the last one run (N = 8),
    # which is above A1_FINAL_TOL; Infinity would not be JSON at all
    assert main(["a1-converge", "--n-set", "8", "--format", "json"]) == 1

    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    first = doc["records"][0]
    assert (first["function"], first["N"]) == ("fa-0.9", 8)
    assert doc["summary"]["fa_final_errors"] == {"fa-0.9": first["err_a1"]}
    assert not doc["summary"]["final_ok"]


def test_cli_all_uses_outdir(monkeypatch, tmp_path):
    fake = ExperimentResult("ic", ("x", "y"))
    fake.rows.append((1, 2.0))
    fake.exit_code = 1

    def fake_all(cfg):
        return {"ic": fake}

    monkeypatch.setattr("hardylab.cli.run_all", fake_all)
    outdir = tmp_path / "results"
    rc = main(["all", "--out", str(outdir)])
    assert rc == 1
    assert (outdir / "ic.csv").read_text().splitlines()[0] == "x,y"


def test_cli_all_passes_config_keys_to_runners(monkeypatch, tmp_path):
    # every runner but ic is replaced by a stub; ic must see the file's
    # z_ladder, the stubs the keys they read, and the runners that take a
    # registry one shared registry
    seen = {}
    registries = []
    for name in RUNNERS:
        if name == "ic":
            continue

        def stub(cfg, name=name, registry=None, **kw):
            seen[name] = kw
            registries.append(registry)
            return ExperimentResult(name, ("x",))
        monkeypatch.setitem(RUNNERS, name, stub)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"z_ladder": [0.9], "eps_ladder": [0.5],
                                "function": "prod-fa-0.9-0.5"}))
    outdir = tmp_path / "results"
    assert main(["all", "--config", str(cfgp), "--out", str(outdir)]) == 0
    rows = (outdir / "ic.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert {float(line.split(",")[1]) for line in rows} == {0.9}
    assert seen["density"] == {"eps_ladder": (0.5,)}
    assert seen["reinhardt"] == {"function": "prod-fa-0.9-0.5"}
    assert seen["blowup"] == {}
    assert len(registries) == 5 and registries[0] is not None
    assert all(reg is registries[0] for reg in registries)


@pytest.mark.parametrize("doc, key", [({"tols": 1e-6}, "tols"),
                                      ({"format": "xml"}, "format")])
def test_cli_rejects_unread_config_keys(tmp_path, doc, key):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match=repr(key)):
        main(["ic", "--config", str(cfgp)])
    assert not list(tmp_path.glob("*.xml"))


@pytest.mark.parametrize("doc, key", [({"n_set": 8}, "n_set"),
                                      ({"c_set": 1.0}, "c_set"),
                                      ({"n_set": "8,16"}, "n_set"),
                                      ({"domain": {"kind": "ball"}},
                                       "domain"),
                                      ({"domain": "ball"}, "domain"),
                                      ({"function": "fa-2"}, "function"),
                                      # dimension 1 on the default bidisc
                                      ({"function": "fa-0.9"}, "function"),
                                      # the default prod-fa-0.9 on a 3-ball
                                      ({"domain": {"kind": "ball", "dim": 3}},
                                       "function"),
                                      # past the poles of prod-fa-0.9 at 1/0.9
                                      ({"domain": {"kind": "polydisc",
                                                   "dim": 2,
                                                   "radii": [1.2, 1.2]}},
                                       "domain"),
                                      # I_c needs a finite c and 0 <= r < 1
                                      ({"c_set": [1.0, "NaN"]}, "c_set"),
                                      ({"z_ladder": [0.5, 1.2]},
                                       "z_ladder"),
                                      ({"z_ladder": [-0.5]}, "z_ladder"),
                                      ({"z_ladder": ["nan"]}, "z_ladder"),
                                      # density's targets and the domain
                                      # parameters must be positive and
                                      # finite, NaN refused
                                      ({"eps_ladder": [0.5, "nan"]},
                                       "eps_ladder"),
                                      ({"eps_ladder": [-1]}, "eps_ladder"),
                                      ({"eps_ladder": [0]}, "eps_ladder"),
                                      ({"domain": {"kind": "polydisc",
                                                   "dim": 2,
                                                   "radii": [1.0, "nan"]}},
                                       "domain"),
                                      ({"domain": {"kind": "ball", "dim": 2,
                                                   "radius": "nan"}},
                                       "domain"),
                                      ({"domain": {"kind": "power-egg",
                                                   "powers": ["nan", 1.0]}},
                                       "domain")])
def test_cli_rejects_bad_config_values(monkeypatch, tmp_path, doc, key):
    # the values are parsed before any runner starts, ``all`` included
    def no_run(*args, **kw):
        raise AssertionError("a runner started")
    monkeypatch.setattr("hardylab.cli.run_all", no_run)
    for name in RUNNERS:
        monkeypatch.setitem(RUNNERS, name, no_run)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    for command in ("ic", "all"):
        with pytest.raises(SystemExit, match=repr(key)):
            main([command, "--config", str(cfgp),
                  "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_cli_accepts_other_runners_keys(tmp_path):
    # density's eps_ladder is accepted by ic, which does not read it
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"c_set": [1.0], "z_ladder": [0.9],
                                "eps_ladder": [0.5], "format": "json"}))
    outp = tmp_path / "ic.json"
    assert main(["ic", "--config", str(cfgp), "--out", str(outp)]) == 0
    assert json.loads(outp.read_text())["experiment"] == "ic"


def test_cli_rejects_unknown_command():
    # a message, hence exit code 1: code 2 is reserved for non-convergence
    with pytest.raises(SystemExit, match="frobnicate") as exc:
        main(["frobnicate"])
    assert isinstance(exc.value.code, str)


@pytest.mark.parametrize("argv, flag", [(["--n-set", "8,a"], "--n-set"),
                                        (["--a-set", "0.5,x"], "--a-set"),
                                        (["--tol", "abc"], "--tol"),
                                        (["--config", "missing.json"],
                                         "--config")])
def test_cli_rejects_bad_flag_values(monkeypatch, tmp_path, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match=flag) as exc:
        main(["ic", *argv])
    assert isinstance(exc.value.code, str)


_BAD_RUN_SETTINGS = [("n_set", "--n-set", ",", []),
                     ("n_set", "--n-set", "-3", [-3]),
                     ("a_set", "--a-set", "1.5", [1.5]),
                     ("tol", "--tol", "nan", float("nan")),
                     ("tol", "--tol", "0", 0.0),
                     ("max_nodes", "--max-nodes", "0", 0),
                     # blowup's a = N/(N+1) is 0 there; refused for blowup
                     # and all alike
                     ("n_set", "--n-set", "0", [0]),
                     ("seed", "--seed", "-1", -1),
                     # the gates compare consecutive rows
                     ("n_set", "--n-set", "64,16", [64, 16]),
                     ("n_set", "--n-set", "16,16", [16, 16])]


@pytest.mark.parametrize("key, flag, text, value", _BAD_RUN_SETTINGS)
def test_cli_rejects_bad_run_settings(monkeypatch, tmp_path, key, flag, text,
                                      value):
    # refused, naming the key, before any runner starts; flag and file alike
    def no_run(*args, **kw):
        raise AssertionError("a runner started")
    monkeypatch.setattr("hardylab.cli.run_all", no_run)
    for name in RUNNERS:
        monkeypatch.setitem(RUNNERS, name, no_run)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({key: value}))
    for argv in ([flag, text], ["--config", str(cfgp)]):
        for command in ("blowup", "all"):
            with pytest.raises(SystemExit, match=key) as exc:
                main([command, *argv, "--out", str(tmp_path / "out")])
            assert isinstance(exc.value.code, str)
    assert not (tmp_path / "out").exists()


def test_run_config_refuses_bad_settings():
    for kw in ({"n_set": ()}, {"n_set_square": (4, -1)}, {"a_set": (-1.0,)},
               {"tol": float("inf")}, {"tol": -1e-6}, {"max_nodes": 0},
               {"max_nodes": -4}, {"seed": -1}, {"n_set": (32, 16)},
               {"n_set_square": (2, 2)}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            RunConfig(**kw)


def test_run_blowup_refuses_order_zero(monkeypatch):
    # refused before the first estimator, naming n_set; N = 0 is kept only
    # when no order reaches 16, so (0, 16) runs N = 16 alone
    def no_estimate(*args, **kw):
        raise AssertionError("an estimator ran")
    monkeypatch.setattr("hardylab.experiments.hardy_norm_disc", no_estimate)
    for n_set in ((0,), (0, 8)):
        with pytest.raises(ValueError, match="n_set"):
            run_blowup(RunConfig(n_set=n_set))
    assert blowup_orders(RunConfig(n_set=(0, 16))) == (16,)


@pytest.mark.parametrize("mutation", ["hardy", "high"])
def test_reinhardt_product_gate_catches_a_wrong_a1_column(monkeypatch,
                                                          mutation):
    # on a polydisc the A1 column of prod-fa-0.9 is the square of the
    # one-variable norm of S_N f_0.9.  Taken as the Hardy norm of the same
    # S_N, or 3 tol too high, it passes every other gate; only the product
    # oracle catches it.  The err_a1 column (tol 1e-3), the A2 norm of the
    # moment gate (p = 2) and the oracle's one-variable calls stay exact.
    exact = hardylab.experiments.bergman_norm_reinhardt

    def wrong_a1(f, p, domain, tol, **kw):
        if domain.dim < 2 or tol >= 1e-3 or p != 1:
            return exact(f, p, domain, tol=tol, **kw)
        if mutation == "hardy":
            return hardylab.norms.hardy_norm_reinhardt(f, p, domain, tol=tol)
        est = exact(f, p, domain, tol=tol, **kw)
        return dataclasses.replace(est, value=est.value * (1 + 3 * tol))
    monkeypatch.setattr("hardylab.experiments.bergman_norm_reinhardt",
                        wrong_a1)
    res = run_reinhardt(RunConfig(n_set_square=(64,)))
    assert res.exit_code == 1
    s = res.summary
    assert not s["product_ok"] and s["product_max_rel"] > 1e-4
    assert s["all_converged"] and s["plateau_ok"] and s["a2_ok"]
    assert s["final_err_ok"] and s["monotone_ok"]


def _z1_z2_squared(case):
    # z1 z2^2 as the catalog's mono2-1-2, and as a product built by hand
    if case == "catalog":
        return default_registry(), "mono2-1-2"
    reg = FunctionRegistry()
    return reg, reg.add(product_entry((monomial_entry(1),
                                       monomial_entry(2)))).name


@pytest.mark.parametrize("case", ["catalog", "library"])
def test_reinhardt_product_oracle_takes_a_vanishing_factor(case):
    # S_1 z^2 = 0, so at N = 1 the a1_partial column and its oracle are
    # both 0: distance 0, not a division by zero.  The orders are the
    # CLI's 1,2,4,8.
    reg, name = _z1_z2_squared(case)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2, 4, 8)), reg,
                        function=name)
    assert res.rows[0][4] == 0.0
    assert res.exit_code == 0
    assert res.summary["product_ok"] and res.summary["product_max_rel"] == 0


def test_reinhardt_plateau_base_skips_a_vanishing_partial_sum():
    # S_1 z1 z2^2 = 0: the ratio at N = 1 is 0 and sets no scale, so the
    # base is the N = 2 ratio, 1/12, which the tail equals
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), function="mono2-1-2")
    assert res.rows[0][5] == 0.0
    assert res.exit_code == 0
    s = res.summary
    assert s["plateau_ok"]
    assert s["plateau_base"] == s["plateau_tail_max"] == pytest.approx(1 / 12)
    # S_2 = z1 z2^2 has A2 norm pi / sqrt(6) on the bidisc
    assert s["a2_ok"] and s["a2_rel"] <= 1e-14


def _no_jacobian(monkeypatch):
    # the radial cells' weights without the polar jacobian prod r_j
    cells_of = hardylab.norms._radial_cells

    def cells(domain, depth, order):
        radii, weights = cells_of(domain, depth, order)
        return radii, weights / np.prod(radii, axis=1)
    monkeypatch.setattr(hardylab.norms, "_radial_cells", cells)


@pytest.mark.parametrize("domain", [polydisc(2), ball(2)],
                         ids=["polydisc", "ball"])
def test_reinhardt_a2_gate_catches_a_dropped_jacobian(monkeypatch, domain):
    # without the jacobian the A1 column and the product oracle's
    # one-variable norms are wrong together, so product_ok still holds; the
    # moment sum shares no quadrature and the A2 gate fails
    _no_jacobian(monkeypatch)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=domain,
                        function="mono2-1-2")
    assert res.exit_code == 1
    s = res.summary
    assert not s["a2_ok"] and s["a2_rel"] > 0.1
    assert s.get("product_ok", True)


def _no_torus_mass(monkeypatch):
    # every shell integral divided by (2 pi)^n: the normalized torus mean
    # taken for the unnormalized integral
    cosets = hardylab.quadrature.torus_cosets

    def normalized(g, radii, angular, shifts):
        values, points = cosets(g, radii, angular, shifts)
        return [v / TWO_PI ** len(angular) for v in values], points
    for module in (hardylab.quadrature, hardylab.norms):
        monkeypatch.setattr(module, "torus_cosets", normalized)


@pytest.mark.parametrize("domain", [polydisc(2), ball(2)],
                         ids=["polydisc", "ball"])
def test_reinhardt_a2_gate_catches_a_dropped_torus_mass(monkeypatch,
                                                        domain):
    # the A1 column and the product oracle's one-variable norms lose their
    # (2 pi)^n together, so product_ok still holds, and so do the plateau,
    # final-error and monotonicity gates; the closed-form moments fail
    _no_torus_mass(monkeypatch)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=domain,
                        function="mono2-1-2")
    assert res.exit_code == 1
    s = res.summary
    assert not s["a2_ok"] and s["a2_rel"] > 0.1
    assert s.get("product_ok", True) and s["plateau_ok"]
    assert s["final_err_ok"] and s["monotone_ok"]


def test_uniform_bound_closed_forms_catch_a_dropped_torus_mass(monkeypatch):
    _no_torus_mass(monkeypatch)
    res = run_uniform_bound(RunConfig(n_set=(8, 16), a_set=(0.5,)),
                            small_registry())
    assert res.exit_code == 1
    s = res.summary
    assert not s["closed_forms_ok"] and s["closed_form_max_rel"] > 0.5


def _total_degree_partials(monkeypatch):
    # S_N of a product taken as the total-degree truncation |alpha| <= N
    # instead of the square one max_j alpha_j <= N; one factor has one kind
    square = RegistryEntry.partial_evaluator

    def total(entry, N):
        sn = square(entry, N)
        if entry.dim == 1:
            return sn
        coeffs = [s.coefficients(N) for s in entry.factors]

        def fn(*zs):
            out = np.zeros(np.broadcast_shapes(*map(np.shape, zs)), complex)
            for alpha in itertools.product(range(N + 1), repeat=entry.dim):
                a = math.prod(c[k] for c, k in zip(coeffs, alpha))
                if sum(alpha) <= N and a:
                    out = out + a * math.prod(np.asarray(z) ** k
                                              for z, k in zip(zs, alpha))
            return out
        return TaggedEvaluator(fn, sn.spike)
    monkeypatch.setattr(RegistryEntry, "partial_evaluator", total)


@pytest.mark.parametrize("domain", [polydisc(2), ball(2)],
                         ids=["polydisc", "ball"])
def test_reinhardt_gates_catch_total_degree_partial_sums(monkeypatch,
                                                         domain):
    # the total-degree S_1 and S_2 of z1 z2^2 vanish, the square S_2 is
    # z1 z2^2 itself: the moment gate fails on every domain, and the
    # product oracle, whose one-variable sums stay right, on the polydisc
    _total_degree_partials(monkeypatch)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=domain,
                        function="mono2-1-2")
    assert res.exit_code == 1
    s = res.summary
    assert s["all_converged"] and not s["a2_ok"]
    assert s.get("product_ok", False) is False


def test_reinhardt_plateau_gate_fails_an_all_zero_column(monkeypatch):
    # a custom domain has neither the product nor the moment gate, and the
    # total-degree S_1 and S_2 of z1 z2^2 both vanish: a ratio column of
    # zeros has no base to plateau from, so the plateau gate fails the run
    _total_degree_partials(monkeypatch)
    box = custom_domain(lambda r: np.max(r, axis=-1), 2, 1.0)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=box,
                        function="mono2-1-2")
    assert [row[5] for row in res.rows] == [0.0, 0.0]
    assert res.exit_code == 1
    s = res.summary
    assert s["plateau_base"] == 0.0 and not s["plateau_ok"]
    assert s["all_converged"] and s["final_err_ok"] and s["monotone_ok"]
    assert "a2_ok" not in s and "product_ok" not in s


def test_uniform_bound_plateau_gate_fails_an_all_zero_column(monkeypatch):
    # an A1 column of zeros (no monomial rows, so the closed-form gate
    # holds) has no early ratio to plateau from
    exact = hardylab.experiments.bergman_norm_disc

    def zero_a1(*args, **kw):
        return dataclasses.replace(exact(*args, **kw), value=0.0)
    monkeypatch.setattr("hardylab.experiments.bergman_norm_disc", zero_a1)
    res = run_uniform_bound(RunConfig(n_set=(8, 16), a_set=(0.5,)),
                            FunctionRegistry())
    assert res.exit_code == 1
    s = res.summary
    assert s["max_early"] == s["max_late"] == 0.0 and not s["plateau_ok"]
    assert s["all_converged"] and s["closed_forms_ok"]


def test_a2_oracle_needs_closed_form_moments():
    # a custom domain has no closed-form moments: no A2 gate
    entry = default_registry().get("mono2-1-2")
    box = custom_domain(lambda r: np.max(r, axis=-1), 2, 1.0)
    assert _a2_oracle(entry, box, 2, 1e-4, 1 << 28) is None
    res = run_reinhardt(RunConfig(n_set_square=(2,)), domain=box,
                        function="mono2-1-2")
    assert res.exit_code == 0
    assert "a2_ok" not in res.summary and "a2_rel" not in res.summary
    # it gets the volume gate instead
    assert res.summary["volume_ok"] and res.summary["volume_rel"] <= 1e-12


def test_reinhardt_volume_gate_catches_a_dropped_torus_mass_on_a_custom_domain(
        monkeypatch):
    # a custom domain has neither the moment nor the product gate; ||1||_A1
    # against (2 pi)^n times the radial weights catches the lost (2 pi)^n,
    # which every other gate misses
    box = custom_domain(lambda r: np.max(r, axis=-1), 2, 1.0)
    _no_torus_mass(monkeypatch)
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=box,
                        function="mono2-1-2")
    assert res.exit_code == 1
    s = res.summary
    assert not s["volume_ok"]
    assert s["volume_rel"] == pytest.approx(1 - TWO_PI ** -2, rel=1e-9)
    assert s["plateau_ok"] and s["final_err_ok"] and s["monotone_ok"]
    assert s["all_converged"]


@pytest.mark.parametrize("domain", [polydisc(2), ball(2)],
                         ids=["polydisc", "ball"])
def test_reinhardt_volume_gate_only_on_domains_without_moments(domain):
    res = run_reinhardt(RunConfig(n_set_square=(1, 2)), domain=domain,
                        function="mono2-1-2")
    assert res.exit_code == 0 and res.summary["a2_ok"]
    assert "volume_ok" not in res.summary
    assert "volume_rel" not in res.summary


def test_reinhardt_product_oracle_fails_a_nonzero_column_on_a_zero_oracle(
        monkeypatch):
    # a column of 1e-3 where S_1 z1 z2^2 = 0 is infinitely far off
    exact = hardylab.experiments.bergman_norm_reinhardt

    def nonzero_a1(f, p, domain, tol, **kw):
        est = exact(f, p, domain, tol=tol, **kw)
        if domain.dim < 2 or tol >= 1e-3:
            return est
        return dataclasses.replace(est, value=est.value + 1e-3)
    monkeypatch.setattr("hardylab.experiments.bergman_norm_reinhardt",
                        nonzero_a1)
    reg, name = _z1_z2_squared("catalog")
    res = run_reinhardt(RunConfig(n_set_square=(1, 2, 4, 8)), reg,
                        function=name)
    assert res.exit_code == 1
    assert not res.summary["product_ok"]
    assert res.summary["product_max_rel"] == np.inf


@pytest.mark.parametrize("domain", [ball(2), power_egg([1.0, 1.0])],
                         ids=["ball", "power-egg"])
def test_run_reinhardt_on_other_domains(domain):
    # the supremum of the frontier Hardy integral of prod-fa-0.9 sits on a
    # corner shell of radii (1, 0) or (0, 1): (2 pi)^2 (1 - 0.9^2).  The
    # product oracle is a polydisc gate and does not apply here.
    cfg = RunConfig(n_set_square=(32, 64))
    res = run_reinhardt(cfg, domain=domain)
    assert res.exit_code == 0
    exact = (2 * np.pi) ** 2 * (1 - 0.9 ** 2)       # 7.500899344828...
    assert res.summary["h1_f"] == pytest.approx(exact, rel=cfg.tol)
    assert "product_ok" not in res.summary


def test_run_reinhardt_refuses_dimension_mismatch():
    # refused before the first estimator, naming both dimensions
    cfg = RunConfig(n_set_square=(1,))
    with pytest.raises(ValueError, match="dimension 1 .* dimension 2"):
        run_reinhardt(cfg, function="fa-0.9")
    with pytest.raises(ValueError, match="dimension 2 .* dimension 3"):
        run_reinhardt(cfg, domain=ball(3))


def test_run_reinhardt_refuses_a_domain_past_the_pole(monkeypatch):
    # prod-fa-0.9 has poles at 1/0.9 = 1.11 on each axis: a polydisc of
    # radii 1.1 is a domain for its Hardy norm, one of radii 1.2 is not
    def no_estimate(*args, **kw):
        raise AssertionError("an estimator ran")
    monkeypatch.setattr("hardylab.experiments.hardy_norm_reinhardt",
                        no_estimate)
    with pytest.raises(DomainModelError, match="axis 0 .* pole"):
        run_reinhardt(RunConfig(n_set_square=(1,)),
                      domain=polydisc(2, [1.2, 1.2]))
    entry, dom = reinhardt_case(default_registry(), polydisc(2, [1.1, 1.1]))
    assert entry.name == "prod-fa-0.9" and dom.params == (1.1, 1.1)


def test_cli_budget_below_the_first_level_exits_2(tmp_path):
    # every I_c row stops after level 0, unconverged
    outp = tmp_path / "ic.json"
    assert main(["ic", "--max-nodes", "1", "--format", "json",
                 "--out", str(outp)]) == 2
    doc = json.loads(outp.read_text())
    assert not any(row[-1] for row in doc["rows"])


def test_cli_density_honours_the_node_budget(tmp_path):
    # --max-nodes reaches density's Hardy estimates: every row stops
    # unconverged on the budget
    outp = tmp_path / "density.json"
    assert main(["density", "--max-nodes", "1", "--format", "json",
                 "--out", str(outp)]) == 2
    doc = json.loads(outp.read_text())
    assert doc["rows"] and not any(row[-1] for row in doc["rows"])


def test_run_config_k_max_is_not_a_setting():
    # a class constant that nothing but the benchmark reads
    assert RunConfig.k_max == RunConfig().k_max == 36
    assert "k_max" not in {f.name for f in dataclasses.fields(RunConfig)}


def test_cli_rejects_bad_config(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(SystemExit):
        main(["ic", "--config", str(cfgp)])
