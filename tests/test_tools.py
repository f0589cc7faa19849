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
