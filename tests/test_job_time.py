import importlib.util
import sys
from pathlib import Path

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
