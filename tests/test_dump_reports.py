import importlib.util
import os
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "dump_reports.py"
_spec = importlib.util.spec_from_file_location("dump_reports", _PATH)
dump_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump_reports)


def test_relative_out_holds_every_workload_and_seed(tmp_path, monkeypatch):
    # each run ends in the tree root (Run.cleanup), so a relative --out must not
    # be resolved after the first run
    tree = tmp_path / "tree"
    tree.mkdir()
    monkeypatch.chdir(tmp_path)
    written = []

    def fake_dump(run_mod, workload, seed, out):
        written.append(out)
        (out / "report.json").write_text("{}")
        os.chdir(tree)
        return 1, 0

    monkeypatch.setattr(dump_reports, "load_run_module", lambda tree: None)
    monkeypatch.setattr(dump_reports, "dump", fake_dump)
    argv = ["--tree", "tree", "--workload", "all", "--seed", "1", "--seed", "9001", "--out", "dumps"]
    assert dump_reports.main(argv) == 0
    root = tmp_path.resolve() / "dumps"
    want = [root / f"{w}-{s}" for w in dump_reports.WORKLOADS for s in (1, 9001)]
    assert written == want
    assert all((d / "report.json").is_file() for d in want)
    assert not (tree / "dumps").exists()
