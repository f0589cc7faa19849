import dataclasses
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab.cli import _parse_floats, _parse_ints, main
from hardylab.errors import DomainModelError
from hardylab.experiments import (RUNNERS, ExperimentResult, RunConfig,
                                  blowup_orders, reinhardt_case, render_csv,
                                  render_json, run_blowup,
                                  run_ic_asymptotics, run_reinhardt,
                                  run_uniform_bound, write_result)
from hardylab.registry import (FunctionRegistry, default_registry, fa_entry,
                               monomial_entry, polynomial_entry)
from hardylab.reinhardt import ball, polydisc, power_egg


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
                     ("n_set", "--n-set", "0", [0])]


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
               {"max_nodes": -4}):
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
    # oracle catches it.  The err_a1 column (tol 1e-3) and the oracle's
    # one-variable calls stay exact.
    exact = hardylab.experiments.bergman_norm_reinhardt

    def wrong_a1(f, p, domain, tol, **kw):
        if domain.dim < 2 or tol >= 1e-3:
            return exact(f, p, domain, tol=tol, **kw)
        if mutation == "hardy":
            return hardylab.norms.hardy_norm_reinhardt(f, p, domain, tol=tol,
                                                       spike=kw["spike"])
        est = exact(f, p, domain, tol=tol, **kw)
        return dataclasses.replace(est, value=est.value * (1 + 3 * tol))
    monkeypatch.setattr("hardylab.experiments.bergman_norm_reinhardt",
                        wrong_a1)
    res = run_reinhardt(RunConfig(n_set_square=(64,)))
    assert res.exit_code == 1
    s = res.summary
    assert not s["product_ok"] and s["product_max_rel"] > 1e-4
    assert s["all_converged"] and s["plateau_ok"]
    assert s["final_err_ok"] and s["monotone_ok"]


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


def test_cli_rejects_bad_config(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(SystemExit):
        main(["ic", "--config", str(cfgp)])
