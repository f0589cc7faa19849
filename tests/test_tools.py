import importlib.util
import json
from pathlib import Path

import pytest


def _tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
same_tables = _tool("same_tables")
same_traces = _tool("same_traces")


def _tables(tmp_path, parent: dict, change: dict) -> dict:
    dirs = {side: tmp_path / side for side in same_tables.SIDES}
    for side, files in (("parent", parent), ("change", change)):
        dirs[side].mkdir()
        for name, text in files.items():
            (dirs[side] / name).write_text(text)
    return dirs


def test_same_tables_passes_identical_files(tmp_path, capsys):
    table = {"t.csv": "N,value\n8,0.5\n"}
    assert same_tables.compare(_tables(tmp_path, table, table))
    assert "t.csv: identical" in capsys.readouterr().out


def test_same_tables_reports_the_cells_that_differ(tmp_path, capsys):
    dirs = _tables(tmp_path,
                   {"t.csv": "N,value,ok\n8,2.0,true\n16,1.0,true\n"},
                   {"t.csv": "N,value,ok\n8,2.0000002,true\n16,1.0,false\n"})
    assert not same_tables.compare(dirs)
    out = capsys.readouterr().out
    assert "2 cells differ, largest relative difference 1e-07" in out
    assert "row 1 value: 2.0 -> 2.0000002" in out
    assert "row 2 ok: true -> false" in out


def test_same_tables_fails_a_missing_file(tmp_path, capsys):
    table = {"t.csv": "N\n8\n"}
    dirs = _tables(tmp_path, {**table, "u.csv": "N\n8\n"}, table)
    assert not same_tables.compare(dirs)
    assert "u.csv: only in parent" in capsys.readouterr().out


def test_same_tables_max_rel_passes_numeric_drift_within_its_bound(tmp_path,
                                                                    capsys):
    parent = {"t.csv": "N,value,ok\n8,2.0,true\n16,1.0,true\n",
              "u.csv": "N\n8\n"}
    drift = {"t.csv": "N,value,ok\n8,2.0000000000002,true\n16,1.0,true\n",
             "u.csv": "N\n8\n"}
    dirs = _tables(tmp_path, parent, drift)
    assert not same_tables.compare(dirs)             # byte-exact by default
    assert same_tables.compare(dirs, max_rel=1e-12)
    assert "largest relative difference 9.99e-14, within 1e-12" in \
        capsys.readouterr().out
    assert not same_tables.compare(dirs, max_rel=1e-14)


def test_same_tables_max_rel_fails_a_changed_non_numeric_cell(tmp_path):
    # a changed flag, a missing cell and a NaN all fail at any bound
    for k, row in enumerate(("8,2.0,false\n", "8,2.0\n", "8,nan,true\n")):
        (tmp_path / str(k)).mkdir()
        dirs = _tables(tmp_path / str(k),
                       {"t.csv": "N,value,ok\n8,2.0,true\n"},
                       {"t.csv": "N,value,ok\n" + row})
        assert not same_tables.compare(dirs, max_rel=1.0)


def _drifting_tables(tmp_path) -> dict:
    # t.csv drifts by about 1e-13 relative, d.csv by 2e-11, u.csv not at all
    parent = {"t.csv": "N,value\n8,2.0\n", "d.csv": "N,error\n8,1.0\n",
              "u.csv": "N\n8\n"}
    change = {"t.csv": "N,value\n8,2.0000000000002\n",
              "d.csv": "N,error\n8,1.00000000002\n", "u.csv": "N\n8\n"}
    return _tables(tmp_path, parent, change)


def test_same_tables_bounds_each_file_by_name(tmp_path, capsys):
    dirs = _drifting_tables(tmp_path)
    assert same_tables.compare(dirs, {None: 1e-12, "d.csv": 5e-11})
    out = capsys.readouterr().out
    assert "d.csv: 1 cells differ, largest relative difference 2e-11, " \
        "within 5e-11" in out
    assert "t.csv: 1 cells differ, largest relative difference 9.99e-14, " \
        "within 1e-12" in out
    assert not same_tables.compare(dirs, {None: 1e-12})
    # a file no bound names must be identical
    assert not same_tables.compare(dirs, {"d.csv": 5e-11})
    # a named bound overrides the bound for the others
    assert not same_tables.compare(dirs, {None: 5e-11, "t.csv": 1e-14})


def test_same_tables_fails_a_bound_for_a_file_neither_tree_wrote(tmp_path,
                                                                 capsys):
    table = {"t.csv": "N\n8\n"}
    dirs = _tables(tmp_path, table, table)
    assert same_tables.compare(dirs, {None: 1e-14})
    assert not same_tables.compare(dirs, {None: 1e-14, "dens.csv": 5e-11})
    assert "dens.csv: bounded by --max-rel but in neither tree" in \
        capsys.readouterr().out


def test_same_tables_reads_repeated_max_rel_flags(tmp_path, monkeypatch,
                                                  capsys):
    (tmp_path / "source").mkdir()
    source = _drifting_tables(tmp_path / "source")

    def run_all(tree, out):
        out.mkdir(parents=True)
        for p in source[str(tree)].iterdir():
            (out / p.name).write_text(p.read_text())
        return "uniform-bound: exit 0 -> out/uniform-bound.csv\n"

    monkeypatch.setattr(same_tables, "run_all", run_all)
    argv = ["--parent", "parent", "--change", "change"]
    assert same_tables.main(
        argv + ["--max-rel", "1e-12", "--max-rel", "d.csv=5e-11"]) == 0
    assert "all tables within 1e-12, d.csv 5e-11" in capsys.readouterr().out
    assert same_tables.main(argv + ["--max-rel", "1e-12"]) == 1
    assert same_tables.main(argv + ["--max-rel", "d.csv=1e-10"]) == 1
    for bad in ("d.csv=nan", "-1e-12", "d.csv=", "inf", "1e-12x"):
        with pytest.raises(SystemExit):
            same_tables.main(argv + ["--max-rel", bad])


def test_same_tables_reads_each_runners_exit_code():
    out = ("uniform-bound: exit 0 -> out/uniform-bound.csv\n"
           "blowup: exit 2 -> out/blowup.csv\nother line\n")
    assert same_tables.exit_codes(out) == {"uniform-bound": 0, "blowup": 2}


def _layers(points=1200, seconds=0.5, rungs=1.0):
    return {"norms.hardy_norm_disc.calls": {"value": 3, "unit": "count"},
            "norms.hardy_norm_disc.points": {"value": points,
                                             "unit": "count"},
            "norms.hardy_norm_disc.s": {"value": seconds, "unit": "s"},
            "norms.hardy_norm_disc.rungs_mean": {"value": rungs,
                                                 "unit": "count"},
            "quadrature.refine_until.level1_share": {"value": 0.25,
                                                     "unit": "ratio"}}


def _results(parent, change, correct=(True, True)):
    return {side: {"correct": ok, "metrics": metrics}
            for side, ok, metrics in zip(same_traces.SIDES, correct,
                                         (parent, change))}


def test_same_traces_passes_identical_counts(capsys):
    assert same_traces.differing_counts(_layers(), _layers()) == []
    nan = float("nan")
    assert same_traces.differing_counts(_layers(rungs=nan),
                                        _layers(rungs=nan)) == []
    assert same_traces.compare(_results(_layers(), _layers()))
    assert "0 of 4 count metrics differ" in capsys.readouterr().out


def test_same_traces_reports_a_count_that_differs(capsys):
    old, new = _layers(), _layers(points=1201)
    assert same_traces.differing_counts(old, new) == [
        ("norms.hardy_norm_disc.points", 1200, 1201)]
    del new["quadrature.refine_until.level1_share"]
    assert same_traces.differing_counts(old, new)[-1] == (
        "quadrature.refine_until.level1_share", 0.25, None)
    assert not same_traces.compare(_results(old, new))
    out = capsys.readouterr().out
    assert "norms.hardy_norm_disc.points: 1200 -> 1201" in out
    assert "2 of 3 count metrics differ" in out


def test_same_traces_ignores_seconds_but_not_an_incorrect_run():
    old, new = _layers(seconds=0.5), _layers(seconds=0.9)
    assert same_traces.differing_counts(old, new) == []
    assert same_traces.compare(_results(old, new))
    assert not same_traces.compare(_results(old, new, (True, False)))


def test_same_traces_passes_only_the_expected_differences(capsys):
    old, new = _layers(), _layers(points=1201)
    new["quadrature.refine_until.level1_share"]["value"] = 0.5
    # differing_counts still lists every difference
    assert [d[0] for d in same_traces.differing_counts(old, new)] == [
        "norms.hardy_norm_disc.points",
        "quadrature.refine_until.level1_share"]
    assert not same_traces.compare(_results(old, new),
                                   expect=("norms.hardy_norm_disc.",))
    out = capsys.readouterr().out
    assert "norms.hardy_norm_disc.points: 1200 -> 1201 (expected)" in out
    assert "level1_share: 0.25 -> 0.5\n" in out
    assert "2 of 4 count metrics differ, 1 unexpected" in out
    assert same_traces.compare(_results(old, new), expect=(
        "norms.hardy_norm_disc.", "quadrature.refine_until."))
    assert "2 of 4 count metrics differ, 0 unexpected" in \
        capsys.readouterr().out
    # an expected difference does not excuse an incorrect run, nor a
    # metric that only one run reports
    assert not same_traces.compare(_results(old, new, (False, True)),
                                   expect=("norms.", "quadrature."))
    del new["norms.hardy_norm_disc.calls"]
    assert not same_traces.compare(_results(old, new),
                                   expect=("quadrature.",))


def test_same_traces_reads_repeated_expect_flags(monkeypatch):
    runs = iter([{"correct": True, "metrics": _layers()},
                 {"correct": True, "metrics": _layers(points=7)}])
    monkeypatch.setattr(same_traces, "run_traced",
                        lambda tree, args: next(runs))
    argv = ["--parent", "a", "--change", "b", "--workload", "disc",
            "--expect", "quadrature.", "--expect", "norms.hardy_norm_disc."]
    assert same_traces.main(argv) == 0


_RESULT = {"correct": True, "failed": 0, "attempted": 1,
           "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}


def _bench_tree(path: Path, script: str) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(script)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    return path


def test_bench_pairs_reports_a_run_that_prints_no_result(tmp_path, capsys):
    # the change's run crashes with exit code 3: the comparison stops with
    # that run's side, pair, exit code and last lines of stderr, and exits 1
    parent = _bench_tree(tmp_path / "parent",
                         f"print({json.dumps(json.dumps(_RESULT))})\n")
    change = _bench_tree(tmp_path / "change",
                         "import sys\nprint('half a table')\n"
                         "sys.stderr.write('Traceback\\nBoom: no table\\n')"
                         "\nsys.exit(3)\n")
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "bidisc", "--pairs", "2", "--seed", "1",
            "--seconds", "0"]
    assert bench_pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert f"change run of pair 1 ({change}) printed no result (exit 3):" \
        in err
    assert err.rstrip().endswith("Traceback\n  Boom: no table")
    assert "bidisc: stopped at pair 1, seed 1, all correct: False" in out
    # two good trees compare as before
    assert bench_pairs.main(argv[:3] + [str(parent)] + argv[4:]) == 0


def test_bench_pairs_reports_each_sides_minor_faults(tmp_path, capsys):
    # each run's minor page faults are the growth of the children's
    # ru_minflt across it, which counts the whole process tree: the
    # change's run touches 32 MiB in a grandchild, about 8k pages, and its
    # median reads that many more faults than the parent's
    result = f"print({json.dumps(json.dumps(_RESULT))})\n"
    parent = _bench_tree(tmp_path / "parent", result)
    change = _bench_tree(tmp_path / "change", (
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', "
        "'b = bytearray(32 << 20); b[::4096] = bytes(8192)'], check=True)\n"
        + result))
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "circle", "--pairs", "2", "--seed", "1",
            "--seconds", "0", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    faults = json.loads(out.read_text())["minor_faults"]
    assert len(faults["parent"]["runs"]) == len(faults["change"]["runs"]) == 2
    assert faults["change"]["median"] - faults["parent"]["median"] > 7000
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.strip().startswith("minor_faults"))
    assert f"parent {faults['parent']['median']:.6g}" in line
