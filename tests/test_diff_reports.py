import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_reports.py"
_spec = importlib.util.spec_from_file_location("diff_reports", _PATH)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def _tree(root, report, csv_text):
    root.mkdir()
    (root / "r.json").write_text(json.dumps(report))
    (root / "r_scan.csv").write_text(csv_text)
    return root


REPORT = {"results": {"max": 1.0, "count": 3, "rows": [0.5, 2.0], "note": "ok"}}
CSV = "re_z,norm_estimate,excluded_flag\n0.1,1.0,0\n0.2,nan,1\n"


def test_identical_trees(tmp_path, capsys):
    a = _tree(tmp_path / "a", REPORT, CSV)
    b = _tree(tmp_path / "b", REPORT, CSV)
    assert diff_reports.main([str(a), str(b)]) == 0
    assert "0 structural differences" in capsys.readouterr().out


def test_numbers_within_and_beyond_rtol(tmp_path, capsys):
    a = _tree(tmp_path / "a", REPORT, CSV)
    report = json.loads(json.dumps(REPORT))
    report["results"]["rows"][1] = 2.0002
    b = _tree(tmp_path / "b", report, CSV.replace("0.1,1.0,0", "0.1,1.0001,0"))
    assert diff_reports.main([str(a), str(b), "--rtol", "1e-3"]) == 0
    assert diff_reports.main([str(a), str(b), "--rtol", "1e-5"]) == 1
    out = capsys.readouterr().out
    assert "r.json:results.rows[1]: 2.0 -> 2.0002 rel 9.999e-05" in out
    assert "results.rows: 1 numbers differ, largest relative difference 9.999e-05" in out
    assert "norm_estimate: 1 numbers differ, largest relative difference 9.999e-05" in out


@pytest.mark.parametrize("change", [
    lambda root: (root / "extra.json").write_text("{}"),                          # file set
    lambda root: (root / "r.json").write_text(json.dumps({"results": {}})),       # keys
    lambda root: (root / "r_scan.csv").write_text(CSV.replace(",0\n", ",1\n")),      # flag
    lambda root: (root / "r_scan.csv").write_text(CSV + "0.3,1.0,0\n"),            # row count
    lambda root: (root / "r_scan.csv").write_text(CSV.replace("excluded_flag", "flag")),  # columns
    lambda root: (root / "r_scan.csv").write_text(CSV.replace("nan", "1.0")),      # nan vs number
])
def test_structural_differences_exit_2(tmp_path, change):
    a = _tree(tmp_path / "a", REPORT, CSV)
    b = _tree(tmp_path / "b", REPORT, CSV)
    change(b)
    assert diff_reports.main([str(a), str(b), "--rtol", "1.0"]) == 2


def _spectrum_tree(root, rows):
    root.mkdir()
    (root / "e_spectrum.csv").write_text("re_lambda,im_lambda\n" + "".join(f"{r}\n" for r in rows))
    return root


def test_spectra_compare_as_multisets(tmp_path, capsys):
    # rounding moves a degenerate pair's real parts, and the (real, imaginary) sort swaps its rows
    a = _spectrum_tree(tmp_path / "a", ["-2.0,0.0", "1.0,-0.5", "1.0000000000001,0.5"])
    b = _spectrum_tree(tmp_path / "b", ["-2.0,0.0", "1.0,0.5", "1.0000000000001,-0.5"])
    assert diff_reports.main([str(a), str(b), "--rtol", "1e-12"]) == 0
    assert diff_reports.main([str(a), str(b), "--rtol", "1e-14"]) == 1
    out = capsys.readouterr().out
    assert "e_spectrum.csv: spectrum as a multiset: largest |dlambda| 9.992e-14 rel 4.996e-14" in out
    assert "spectra: 1 differ, as multisets largest |dlambda| 9.992e-14" in out
    assert "row 2" not in out  # no row-by-row differences


def test_spectrum_that_moved_is_reported(tmp_path, capsys):
    a = _spectrum_tree(tmp_path / "a", ["0.5,0.0", "3.0,1.0"])
    b = _spectrum_tree(tmp_path / "b", ["0.5,0.0", "3.0,1.3"])
    assert diff_reports.main([str(a), str(b), "--rtol", "1e-3"]) == 1
    out = capsys.readouterr().out
    assert "largest |dlambda| 3.000e-01 rel 9.176e-02" in out  # 0.3 / |3 + 1.3i|


@pytest.mark.parametrize("rows", [["0.5,0.0"], ["0.5,0.0", "3.0,nan"]])
def test_spectrum_count_or_value_that_differs_is_structural(tmp_path, rows):
    a = _spectrum_tree(tmp_path / "a", ["0.5,0.0", "3.0,1.0"])
    b = _spectrum_tree(tmp_path / "b", rows)
    assert diff_reports.main([str(a), str(b), "--rtol", "1.0"]) == 2


def _eig_report(max_abs_imag, real_range):
    return {"command": "eig", "results": {"block_sizes": [32, 32], "count": 64,
                                          "max_abs_imag": max_abs_imag, "real_range": real_range}}


def test_eig_rounding_below_the_floor_is_not_a_difference(tmp_path, capsys):
    # a spectrum real in exact arithmetic: its imaginary parts and its eigenvalue at 0 are
    # rounding, read against 64 eps max(1, 7.5) = 1.066e-13
    a, b = tmp_path / "a", tmp_path / "b"
    for root, report in ((a, _eig_report(2.95e-15, [5.2e-16, 7.5])),
                         (b, _eig_report(2.0e-15, [1.5e-15, 7.5]))):
        root.mkdir()
        (root / "e.json").write_text(json.dumps(report))
    assert diff_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "results.max_abs_imag: 2.95e-15 -> 2e-15 below the rounding floor 1.066e-13" in out
    assert "real_range: 1 numbers differ below the rounding floor (largest floor 1.066e-13)" in out
    # above the floor the comparison is relative, as for any number
    (b / "e.json").write_text(json.dumps(_eig_report(2.0e-13, [5.2e-16, 7.5])))
    assert diff_reports.main([str(a), str(b), "--rtol", "0.5"]) == 1
    assert "results.max_abs_imag: 2.95e-15 -> 2e-13 rel 9.852e-01" in capsys.readouterr().out
