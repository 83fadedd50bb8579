"""``benchmarks/reach.py`` refuses a census taken while ``src/repro`` changed."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_an_edit_after_indexing_is_named(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "a.py").write_text("def f():\n    return 1\n")
    (package / "b.py").write_text("def g():\n    return 2\n")
    monkeypatch.setattr(reach, "SRC", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    index, hashes = reach.functions()
    assert sorted(key for key, _ in index.values()) == ["repro.a:f", "repro.b:g"]
    assert reach.changed_files(hashes, reach.digests()) == []
    (package / "a.py").write_text('"""A docstring above f moves its first line."""\n\n\ndef f():\n    return 1\n')
    (package / "c.py").write_text("")
    assert reach.changed_files(hashes, reach.digests()) == [str(package / "a.py"), str(package / "c.py")]


def test_a_changed_tree_exits_2_without_a_census(monkeypatch, capsys):
    table = {"repro.a:f": {"lines": 2, "drivers": [], "tests": False}}
    monkeypatch.setattr(reach, "census", lambda tests: (table, ["a.py"]))
    assert reach.main(["--check"]) == 2
    err = capsys.readouterr().err
    assert "a.py changed while the drivers ran" in err and "rerun" in err
    assert "FAIL" not in err
