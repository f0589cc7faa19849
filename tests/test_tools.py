import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_tables.py"
_SPEC = importlib.util.spec_from_file_location("same_tables", _PATH)
same_tables = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_tables)


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


def test_same_tables_reads_each_runners_exit_code():
    out = ("uniform-bound: exit 0 -> out/uniform-bound.csv\n"
           "blowup: exit 2 -> out/blowup.csv\nother line\n")
    assert same_tables.exit_codes(out) == {"uniform-bound": 0, "blowup": 2}
