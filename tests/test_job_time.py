import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # job_time imports dump_reports beside it
_spec = importlib.util.spec_from_file_location("job_time", _TOOLS / "job_time.py")
job_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job_time)


def test_job_class_names_command_kind_grid_and_whether_v_is_zero():
    eig = {"kind": "schrodinger", "n": 3, "m": 1.0, "grid": {"L": 4.0, "M": 6},
           "potential": {"preset": "bump", "c": [0.5, -0.2]}}
    assert job_time.job_class("eig", eig) == ("eig", "schrodinger", 6, "V!=0")
    for c in (0.0, [0.0, 0.0]):
        free = dict(eig, potential={"preset": "bump", "c": c})
        assert job_time.job_class("eig", free) == ("eig", "schrodinger", 6, "V=0")
    assert job_time.job_class("eig", {k: v for k, v in eig.items() if k != "potential"}) \
        == ("eig", "schrodinger", 6, "V=0")
    files = {"n": 3, "p": "inf", "q": 2, "potential": {"file": "v.bin", "format": "binary"}}
    assert job_time.job_class("norms", files) == ("norms", "-", "-", "V!=0")
    certify = {"theorem": "2.3", "potential": {"preset": "inverse-square", "c": 5e-6}}
    assert job_time.job_class("certify", certify) == ("certify", "-", "-", "V!=0")


def test_by_class_sums_each_class_and_ranks_by_time():
    a, b, c = ("eig", "dirac", 4, "V!=0"), ("eig", "schrodinger", 6, "V!=0"), ("norms", "-", "-", "V!=0")
    classes = [a, b, a, c, b, a]
    seconds = [0.010, 0.004, 0.012, 0.002, 0.004, 0.008]
    eig = [0.006, 0.001, 0.007, 0.0, 0.001, 0.005]
    rows = job_time.by_class(classes, seconds, eig)
    assert [(cls, n) for cls, n, _, _, _ in rows] == [(a, 3), (b, 2), (c, 1)]
    assert [s for _, _, s, _, _ in rows] == pytest.approx([0.030, 0.008, 0.002])
    assert [share for _, _, _, share, _ in rows] == pytest.approx([0.75, 0.2, 0.05])
    assert [e for *_, e in rows] == pytest.approx([0.018, 0.002, 0.0])
    # equal sums keep the order in which the classes were first seen
    assert [cls for cls, *_ in job_time.by_class([c, b], [0.002, 0.002], [0.0, 0.0])] == [c, b]
    assert job_time.by_class([], [], []) == []


def test_quantiles_are_the_runners_over_distinct_jobs():
    with mock.patch.dict(os.environ):  # the runner caps BLAS threads through the environment
        run_mod = job_time.load_run_module(Path(__file__).resolve().parents[1])
    # 11 distinct jobs, each run twice: each keeps its best time, 1 ... 11 ms
    attempts = [run_mod.Attempt(SimpleNamespace(path=f"cfg/{k:05d}.json"), "out/job.json", 0,
                                (k + 1) * 1e-3 * slow, "")
                for slow in (1.5, 1.0) for k in range(11)]
    metrics = run_mod.timing_metrics(attempts, 1.0)
    assert metrics["job_p50_s"] == pytest.approx(6e-3)
    assert metrics["job_p90_s"] == pytest.approx(10.8e-3)  # statistics.quantiles(n=10)[8]
    assert job_time.quantile_line(metrics) == \
        f"  job_p50_s 6.00 ms, job_p90_s 10.80 ms, jobs_per_s {11 / 0.066:.1f}"


def test_main_measures_each_seed_in_turn(monkeypatch, capsys):
    seen = []

    def fake_measure(run_mod, workload, seed, passes):
        seen.append((workload, seed, passes))
        return [("eig", "dirac", 4, "V!=0")], [0.002], [0.001], ["attempt"], 0

    metrics = {"jobs_per_s": 500.0, "job_p50_s": 0.002, "job_p90_s": 0.003}
    fake_run = SimpleNamespace(timing_metrics=lambda attempts, scale: metrics)
    monkeypatch.setattr(job_time, "load_run_module", lambda tree: fake_run)
    monkeypatch.setattr(job_time, "measure", fake_measure)
    argv = ["--tree", ".", "--workload", "certify_eig", "--seed", "1", "--seed", "101", "--passes", "2"]
    assert job_time.main(argv) == 0
    out = capsys.readouterr().out
    assert seen == [("certify_eig", 1, 2), ("certify_eig", 101, 2)]
    assert out.count("job_p50_s 2.00 ms, job_p90_s 3.00 ms, jobs_per_s 500.0") == 2
    assert "certify_eig seed 1:" in out and "certify_eig seed 101:" in out
