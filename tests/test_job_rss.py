import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # job_rss imports dump_reports beside it
_spec = importlib.util.spec_from_file_location("job_rss", _TOOLS / "job_rss.py")
job_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job_rss)


def test_largest_rises_ranks_the_rises_not_the_peaks():
    # a peak of 65 after set-up, then one mark per job: the high marks late in the sequence come
    # from small rises, and a job that sets no new peak rises by 0
    marks = [65.0, 65.0, 82.5, 82.5, 83.0, 87.5, 87.5, 88.0, 92.5, 92.5]
    assert job_rss.largest_rises(marks) == [(1, 17.5), (4, 4.5), (7, 4.5), (3, 0.5), (6, 0.5)]
    assert job_rss.largest_rises(marks, k=2) == [(1, 17.5), (4, 4.5)]
    assert job_rss.largest_rises([65.0]) == []


def test_describe_names_the_job_and_its_dimension():
    eig = SimpleNamespace(command="eig", path="cfg/00042.json",
                          doc={"kind": "dirac", "n": 3, "grid": {"L": 4.0, "M": 6}})
    assert job_rss.describe(eig).split() == ["config", "00042", "eig", "dirac", "M=6", "D=864"]
    cert = SimpleNamespace(command="certify", path="cfg/00007.json", doc={"theorem": "2.3"})
    assert job_rss.describe(cert).split() == ["config", "00007", "certify", "-", "M=-", "D=-"]


def test_first_imports_names_the_roots_of_each_jobs_new_modules():
    # sys.modules before the first job, then after each job: a lazy import of a package shows as
    # the package alone, not its submodules; a submodule of a loaded package shows by itself
    snapshots = [{"sys", "numpy", "scipy"},
                 {"sys", "numpy", "scipy"},
                 {"sys", "numpy", "scipy", "scipy.special", "scipy.special._ufuncs",
                  "scipy.special._basic", "scipy._lib.deprecation"},
                 {"sys", "numpy", "scipy", "scipy.special", "scipy.special._ufuncs",
                  "scipy.special._basic", "scipy._lib.deprecation", "json", "json.decoder"}]
    assert [job_rss.first_imports(a, b) for a, b in zip(snapshots, snapshots[1:])] == [
        [], ["scipy._lib.deprecation", "scipy.special"], ["json"]]
