import json
import math
import numbers
import warnings

import numpy as np
import pytest

from spectralcert.birman_schwinger import BSScan
from spectralcert.cli import main, EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTE, EXIT_INCONCLUSIVE
from spectralcert.config import parse_config, ConfigError
from spectralcert.enclosure import c2_constant, rho_norms
from spectralcert.potential import PotentialSpec, save_potential_binary, save_potential_text
from spectralcert.report import canonical_json, make_report, write_csv, write_report
from spectralcert.weights import WeightSpec


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


CERT_CFG = {
    "theorem": "2.3", "kind": "dirac", "n": 3, "m": 1.0,
    "potential": {"preset": "inverse-square", "c": 5e-6},
    "weight": {"kind": "rho2", "eps": 0.5, "delta": 0.5},
}


# -- config validation --------------------------------------------------

def test_parse_valid_config():
    cfg = parse_config(json.dumps(CERT_CFG), "certify")
    assert cfg.theorem == "2.3"
    assert cfg.n == 3 and cfg.m == 1.0


def test_config_collects_all_errors():
    bad = {"theorem": "9.9", "kind": "weird", "n": 2, "m": -1.0,
           "potential": {"preset": "nope", "bogus": 1}, "extra_key": True}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad), "certify")
    msgs = "\n".join(exc.value.errors)
    for frag in ("$.theorem", "$.kind", "$.n", "$.m",
                 "$.potential.preset", "$.potential.bogus", "$.extra_key"):
        assert frag in msgs
    assert len(exc.value.errors) >= 7


def test_config_rejects_unknown_command_and_bad_json():
    with pytest.raises(ConfigError):
        parse_config("{}", "frobnicate")
    with pytest.raises(ConfigError):
        parse_config("{not json", "certify")


def test_config_grid_and_rectangle_rules():
    doc = {"kind": "schrodinger", "potential": {"preset": "bump"},
           "grid": {"L": 4.0, "M": 7},
           "rectangle": {"re_min": 1.0, "re_max": -1.0, "im_min": 0.0, "im_max": 1.0},
           "resolution": {"n_re": 4, "n_im": 4}}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc), "scan")
    msgs = "\n".join(exc.value.errors)
    assert "must be even" in msgs
    assert "re_min > re_max" in msgs


def test_config_norms_pq():
    doc = {"p": 3, "q": 2, "weight": {"kind": "rho2"}}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc), "norms")
    cfg = parse_config(json.dumps({"p": "inf", "q": 2, "weight": {"kind": "rho2"}}), "norms")
    assert math.isinf(cfg.p) and cfg.q == 2.0


# -- canonical reports --------------------------------------------------

def test_canonical_json_normalization():
    doc = {"b": 1 + 2j, "a": np.float64(0.1) * 3, "c": [np.int64(4), float("nan"),
                                                        float("inf"), True]}
    text = canonical_json(doc)
    back = json.loads(text)
    assert list(back.keys()) == ["a", "b", "c"]
    assert back["b"] == {"im": 2.0, "re": 1.0}
    assert back["c"] == [4, "nan", "inf", True]
    assert back["a"] == 0.3  # 12 significant digits


def test_write_report_with_sibling(tmp_path):
    rep = make_report("scan", {"seed": 0}, {"x": 1}, warnings=["w"])
    out = tmp_path / "r.json"
    write_report(rep, str(out), {"scan": (("a", "b"), [(1, 2.5), (3, float("nan"))])})
    doc = json.loads(out.read_text())
    assert doc["files"] == ["r_scan.csv"]
    assert doc["warnings"] == ["w"]
    csv = (tmp_path / "r_scan.csv").read_text().strip().split("\n")
    assert csv == ["a,b", "1,2.5", "3,nan"]


def _fmt_cell(c):
    """One CSV cell as write_csv formatted it cell by cell: the reference for its runs of rows."""
    if isinstance(c, str):
        return c
    if isinstance(c, numbers.Integral):
        return str(int(c))
    x = float(c)
    return "nan" if np.isnan(x) else f"{x:.12g}"


def test_write_csv_matches_cell_by_cell_formatting(tmp_path):
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 5e-324]
    mags = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-20, 20, 4000)
    shape = (3, 4)
    scan = BSScan(re=np.linspace(-1, 1, 4), im=np.linspace(0.1, 0.4, 3),
                  values=np.where(rng.random(shape) < 0.3, np.nan, rng.random(shape)),
                  excluded=rng.random(shape) < 0.3, residuals=rng.random(shape) * 1e-5,
                  applies=rng.integers(0, 40, shape))
    cases = [[(x, y) for x in special for y in special],
             [(a, b) for a, b in zip(mags[:2000], mags[2000:].tolist())],  # numpy, then Python floats
             scan.csv_rows(),
             [("x", 1, 2.5), ("y", np.int64(-3), np.float32(0.1)), (True, np.True_, "z"), ()]]
    for rows in cases:
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), rows)
        assert path.read_text() == "a,b\n" + "".join(",".join(map(_fmt_cell, row)) + "\n"
                                                     for row in rows)


# -- end-to-end subcommands ---------------------------------------------

def test_cli_certify_stable(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", CERT_CFG)
    out = str(tmp_path / "rep.json")
    assert main(["certify", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    cert = doc["results"]["certificate"]
    assert cert["verdict"] == "stable"
    assert cert["constant"] * cert["norm_upper"] < 1.0
    assert doc["schema_version"] == 1
    assert doc["command"] == "certify"
    assert isinstance(doc["warnings"], list)


def test_cli_certify_inconclusive_exit_code(tmp_path):
    doc = dict(CERT_CFG)
    doc["potential"] = {"preset": "inverse-square", "c": 1.0}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "r.json")]) \
        == EXIT_INCONCLUSIVE


def test_cli_validation_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"theorem": "2.3"})
    assert main(["certify", "--config", cfg]) == EXIT_VALIDATION
    assert "invalid configuration" in capsys.readouterr().err
    assert main(["certify", "--config", str(tmp_path / "missing.json")]) == EXIT_VALIDATION


def test_cli_default_report_path_sits_beside_the_config(tmp_path):
    # one trailing ".json" is dropped: a config in a *.json.d directory, or one named *.jsonl,
    # gets its report in its own directory under its own name
    doc = json.dumps({"kind": "schrodinger", "n": 3, "m": 0.0, "grid": {"L": 3.0, "M": 4},
                      "potential": {"preset": "bump", "c": 1.0, "N": 1}})
    (tmp_path / "runs.json.d").mkdir()
    for name, report in (("runs.json.d/cfg", "runs.json.d/cfg_report.json"),
                         ("x.jsonl", "x.jsonl_report.json"), ("x.json", "x_report.json")):
        (tmp_path / name).write_text(doc)
        assert main(["eig", "--config", str(tmp_path / name)]) == EXIT_OK
        assert json.loads((tmp_path / report).read_text())["command"] == "eig"
    assert sorted(p.name for p in tmp_path.glob("*_report.json")) == ["x.jsonl_report.json",
                                                                      "x_report.json"]


def test_cli_consecutive_calls_share_one_parser(tmp_path, capsys):
    # the parser is built once; each call still gets its own arguments, exit code and message
    cert = _write(tmp_path, "c.json", CERT_CFG)
    eig = _write(tmp_path, "e.json", {"kind": "schrodinger", "n": 3, "m": 0.0,
                                      "potential": {"preset": "bump", "c": 1.0, "N": 1},
                                      "grid": {"L": 3.0, "M": 4}})
    assert main(["certify", "--config", cert, "--out", str(tmp_path / "c_rep.json")]) == EXIT_OK
    assert main(["eig", "--config", eig]) == EXIT_OK
    assert json.loads((tmp_path / "e_report.json").read_text())["command"] == "eig"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--config", eig, "--seed", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spectralcert eig [-h] --config CONFIG")
    assert "argument --seed: invalid int value: 'x'" in err
    assert main(["scan", "--config", str(tmp_path / "missing.json")]) == EXIT_VALIDATION
    assert "error: cannot read config" in capsys.readouterr().err


def test_cli_disks(tmp_path):
    # N_j = 0 gives the limit disks (centres +-m, radius 0, V_j = inf); N_j near
    # 1e-85 overflowed v ** 2
    for preset, c in (("inverse-square", 1e-5), ("bump", 0.0), ("bump", 1e-85)):
        doc = {"n": 3, "m": 1.0, "j": 1, "potential": {"preset": preset, "c": c}}
        cfg = _write(tmp_path, "d.json", doc)
        out = str(tmp_path / "d_rep.json")
        assert main(["disks", "--config", cfg, "--out", out]) == EXIT_OK
        disks = json.loads(open(out).read())["results"]["certificate"]["disks"]
        # tangency invariant of the reported geometry
        assert disks["x0_plus"] ** 2 - disks["r0"] ** 2 == pytest.approx(1.0, abs=1e-6)
        assert disks["x0_minus"] == -disks["x0_plus"]
        if c < 1e-80:
            assert disks["x0_plus"] == 1.0 and disks["r0"] < 1e-150
            assert (disks["V_j"] == "inf") == (c == 0.0) == (disks["r0"] == 0.0)


def test_cli_scan_and_csv(tmp_path):
    doc = {"kind": "schrodinger", "n": 3, "m": 0.0,
           "potential": {"preset": "bump", "c": 2.0, "R": 2.5, "N": 1},
           "grid": {"L": 3.0, "M": 4},
           "rectangle": {"re_min": -1.0, "re_max": 1.0, "im_min": 0.3, "im_max": 0.9},
           "resolution": {"n_re": 3, "n_im": 2}, "seed": 0}
    cfg = _write(tmp_path, "s.json", doc)
    out = str(tmp_path / "s_rep.json")
    assert main(["scan", "--config", cfg, "--out", out]) == EXIT_OK
    rep = json.loads(open(out).read())
    assert rep["files"] == ["s_rep_scan.csv"]
    lines = (tmp_path / "s_rep_scan.csv").read_text().strip().split("\n")
    assert lines[0] == "re_z,im_z,norm_estimate,excluded_flag,residual_bound,applies"
    assert len(lines) == 7
    assert rep["results"]["max_norm_estimate"] > 0.0


def test_cli_scan_spinor_mismatch_fails(tmp_path, capsys):
    # a scalar (N = 1) potential on the Dirac grid (N = 4) is an error, not excluded points
    doc = {"kind": "dirac", "n": 3, "m": 1.0,
           "potential": {"preset": "inverse-square", "c": 0.5, "N": 1},
           "grid": {"L": 8.0, "M": 8},
           "rectangle": {"re_min": 0.2, "re_max": 0.4, "im_min": 0.3, "im_max": 0.5},
           "resolution": {"n_re": 2, "n_im": 2}}
    cfg = _write(tmp_path, "s.json", doc)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_COMPUTE
    assert "potential (3, 1) does not match grid (3, 4)" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["scan", "eig"])
def test_cli_grid_too_large_to_allocate_fails_cleanly(tmp_path, capsys, command):
    # M^3 = 1e15 sites: numpy refuses the 7 PiB lattice at once, nothing is allocated
    doc = {"kind": "schrodinger", "n": 3, "m": 0.0,
           "potential": {"preset": "bump", "c": 1.0, "N": 1},
           "grid": {"L": 8.0, "M": 100000}}
    if command == "scan":
        doc.update(rectangle={"re_min": -1.0, "re_max": 1.0, "im_min": 0.3, "im_max": 0.9},
                   resolution={"n_re": 2, "n_im": 2})
    cfg = _write(tmp_path, "big.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_COMPUTE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: computation failed: ")
    assert not (tmp_path / "r.json").exists()


def test_cli_eig(tmp_path):
    doc = {"kind": "schrodinger", "n": 3, "m": 0.0,
           "potential": {"preset": "bump", "c": 1.0, "N": 1},
           "grid": {"L": 3.0, "M": 4}}
    cfg = _write(tmp_path, "e.json", doc)
    out = str(tmp_path / "e_rep.json")
    assert main(["eig", "--config", cfg, "--out", out]) == EXIT_OK
    rep = json.loads(open(out).read())
    assert rep["results"]["count"] == 64
    csv = (tmp_path / "e_rep_spectrum.csv").read_text().strip().split("\n")
    assert csv[0] == "re_lambda,im_lambda"
    assert len(csv) == 65


def test_cli_eig_reports_block_sizes(tmp_path):
    # the eigensolve sizes in the order they ran: S_3 blocks (the first counts twice), two swap
    # halves, ten B_3 blocks of a scalar radial V, one block for a file with no symmetry, none for
    # V = 0
    path = tmp_path / "asym.bin"
    rng = np.random.default_rng(5)
    save_potential_binary(PotentialSpec.from_samples(3, 4, 4.0, 4, rng.normal(size=(64, 4, 4))),
                          path)
    cases = [("dirac", 4, {"preset": "inverse-square", "c": [1.0, 0.5]}, [88, 40, 40]),
             ("dirac", 4, {"preset": "matrix-mix", "c": [1.0, 0.5]}, [128, 128]),
             ("schrodinger", 8, {"preset": "inverse-square", "c": [2.0, 1.0], "N": 1},
              [20, 20, 4, 40, 24, 40, 24, 20, 20, 4]),
             ("dirac", 4, {"file": str(path)}, [256]),
             ("dirac", 4, {"preset": "bump", "c": 0.0}, [])]
    for kind, M, pot, sizes in cases:
        doc = {"kind": kind, "n": 3, "m": 1.0, "potential": pot, "grid": {"L": 4.0, "M": M}}
        out = str(tmp_path / "e_rep.json")
        assert main(["eig", "--config", _write(tmp_path, "e.json", doc), "--out", out]) == EXIT_OK
        assert json.loads(open(out).read())["results"]["block_sizes"] == sizes, pot


def test_cli_bench(tmp_path):
    doc = {"estimate": "KY", "n": 3, "m": 1.0, "trials": 5,
           "grid": {"L": 8.0, "M": 16}, "seed": 0}
    cfg = _write(tmp_path, "b.json", doc)
    out = str(tmp_path / "b_rep.json")
    assert main(["bench", "--config", cfg, "--out", out]) == EXIT_OK
    res = json.loads(open(out).read())["results"]
    assert res["passed"] is True
    assert res["max_ratio"] <= res["paper_constant"] * (1 + res["slack"])



def test_cli_bench_explicit_zero_mass(tmp_path):
    doc = {"estimate": "L3.6-hom", "n": 3, "m": 0, "trials": 3,
           "grid": {"L": 8.0, "M": 8}, "seed": 0}
    out = str(tmp_path / "b_rep.json")
    assert main(["bench", "--config", _write(tmp_path, "b.json", doc), "--out", out]) == EXIT_OK
    res = json.loads(open(out).read())["results"]
    assert res["m"] == 0.0
    # the massless constant 2 C2 |rho|^2, not the massive one
    rho_l2 = rho_norms(WeightSpec("rho2", eps=0.5, delta=0.5))[0].rigorous_upper()
    assert res["paper_constant"] == pytest.approx(2.0 * c2_constant(3) * rho_l2 ** 2, rel=1e-11)
    del doc["m"]
    assert main(["bench", "--config", _write(tmp_path, "b.json", doc), "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["results"]["m"] == 1.0

def test_cli_norms(tmp_path):
    doc = {"n": 3, "p": 2, "q": "inf", "weight": {"kind": "rho2", "eps": 0.5, "delta": 0.5}}
    cfg = _write(tmp_path, "n.json", doc)
    out = str(tmp_path / "n_rep.json")
    assert main(["norms", "--config", cfg, "--out", out]) == EXIT_OK
    res = json.loads(open(out).read())["results"]["norms"]["weight"]
    assert res["value"] == pytest.approx(1.3010, rel=1e-3)


def _small_box_file(tmp_path):
    # a Dirac potential sampled on [-4, 4)^3, far inside the 2^40 the dyadic norms reach
    rng = np.random.default_rng(5)
    vals = 1e-3 * (rng.normal(size=(4 ** 3, 4, 4)) + 1j * rng.normal(size=(4 ** 3, 4, 4)))
    path = tmp_path / "small.bin"
    save_potential_binary(PotentialSpec.from_samples(3, 4, 4.0, 4, vals), path)
    return {"file": str(path)}


def test_cli_small_box_file_certify_and_norms(tmp_path):
    pot = _small_box_file(tmp_path)
    cfg = _write(tmp_path, "c.json", {"theorem": "2.3", "kind": "dirac", "n": 3, "m": 1.0,
                                      "potential": pot})
    out = tmp_path / "c_rep.json"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_INCONCLUSIVE
    cert = json.loads(out.read_text())["results"]["certificate"]
    assert cert["tail_bound"] is None and cert["norm_upper"] is None
    assert 0.0 < cert["norm"] < math.inf

    cfg = _write(tmp_path, "n.json", {"n": 3, "p": 1, "q": 2, "potential": pot})
    out = tmp_path / "n_rep.json"
    assert main(["norms", "--config", cfg, "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())["results"]["norms"]["potential"]
    assert 0.0 < res["value"] < math.inf and res["tail_bound"] is None


def test_cli_seed_override_echoed(tmp_path):
    doc = {"estimate": "KY", "trials": 2, "grid": {"L": 8.0, "M": 16}, "seed": 0}
    cfg = _write(tmp_path, "b.json", doc)
    out = str(tmp_path / "b_rep.json")
    assert main(["bench", "--config", cfg, "--out", out, "--seed", "9"]) == EXIT_OK
    rep = json.loads(open(out).read())
    assert rep["config"]["seed"] == 9


SCAN_CFG = {"kind": "schrodinger", "n": 3, "m": 0.0,
            "potential": {"preset": "bump", "c": 2.0, "R": 2.5, "N": 1},
            "grid": {"L": 3.0, "M": 4},
            "rectangle": {"re_min": -1.0, "re_max": 1.0, "im_min": 0.3, "im_max": 0.9},
            "resolution": {"n_re": 2, "n_im": 1}}


@pytest.mark.parametrize("command,doc,seed", [("certify", CERT_CFG, "-5"),
                                              ("scan", SCAN_CFG, "-1")])
def test_cli_seed_override_is_validated_with_the_config(tmp_path, capsys, command, doc, seed):
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "c_rep.json"
    assert main([command, "--config", cfg, "--out", str(out), "--seed", seed]) == EXIT_VALIDATION
    assert f"$.seed: value {seed} below minimum 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.json", CERT_CFG)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["certify", "--config", cfg, "--out", a]) == EXIT_OK
    assert main(["certify", "--config", cfg, "--out", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("command, doc, path", [
    # sigma = 0 ran theorem 2.2-massless at sigma = 2 (exit 3, params.sigma 2.0)
    ("certify", {"theorem": "2.2-massless", "sigma": 0,
                 "potential": {"preset": "inverse-square", "c": 1e-6}}, "$.sigma"),
    ("norms", {"p": 2, "q": "inf", "weight": {"kind": "rho1", "sigma": 0.5}}, "$.weight"),
    ("certify", {"theorem": "2.4", "m": 1, "potential": {"preset": "bump"}}, "$.m"),
    ("certify", {"theorem": "2.2-massless", "m": 1, "potential": {"preset": "bump"}}, "$.m"),
    # matrix-mix needs N = 4 in n = 3: N = 1 exited 2 at run time, N = 3 got a certificate
    ("certify", {"theorem": "2.3", "kind": "schrodinger", "potential": {"preset": "matrix-mix"}},
     "$.potential"),
    ("certify", {"theorem": "2.3", "potential": {"preset": "matrix-mix", "N": 3}}, "$.potential"),
])
def test_cli_library_rules_exit_validation(tmp_path, capsys, command, doc, path):
    out = tmp_path / "r.json"
    assert main([command, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert f"  - {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, key, path", [
    # each ran at exit 0 or 3 with the key ignored
    ("norms", {"p": 2, "q": "inf", "weight": {"kind": "tau", "eps": 0.5, "sigma": 3.0}},
     ("weight", "sigma"), "$.weight.sigma"),
    ("certify", {"theorem": "2.4", "potential": {"preset": "inverse-square", "R": 2.0}},
     ("potential", "R"), "$.potential.R"),
    ("certify", {"theorem": "2.4", "potential": {"preset": "inverse-square", "sigma": 3.0}},
     ("potential", "sigma"), "$.potential.sigma"),
    ("certify", {"theorem": "2.3", "eps": 0.1, "potential": {"preset": "bump"}},
     ("eps",), "$.eps"),
    ("certify", {"theorem": "2.3", "sigma": 3.0, "potential": {"preset": "bump"}},
     ("sigma",), "$.sigma"),
    ("certify", {"theorem": "2.4", "potential": {"preset": "bump", "R": 2.0, "sigma": 3.0}},
     ("potential", "sigma"), "$.potential.sigma"),
    ("disks", {"m": 1.0, "j": 1, "weight": {"kind": "rho2"}, "potential": {"preset": "bump"}},
     ("weight",), "$.weight"),
])
def test_cli_rejects_keys_that_are_not_read(tmp_path, capsys, command, doc, key, path):
    out = tmp_path / "r.json"
    assert main([command, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert f"  - {path}: not read by " in capsys.readouterr().err
    assert not out.exists()
    # the same config without that key is valid, and so is any seed
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in key[:-1]:
        parent = parent[k]
    del parent[key[-1]]
    parse_config(dict(doc, seed=3), command)


def _edit_text_rows(edit):
    def write(V, path):
        save_potential_text(V, path)
        head, *rows = path.read_text().splitlines()
        path.write_text("\n".join([head, *edit(rows)]) + "\n")
    return write


def _edit_binary(edit):
    def write(V, path):
        save_potential_binary(V, path)
        path.write_bytes(edit(path.read_bytes()))
    return write


def _nan_entry(data):
    return data[:-16] + np.array([complex(np.nan, 0.0)], dtype="<c16").tobytes()


# an 8-site lattice (n = 3, M = 2); the text cases ran at exit 0 with a wrong V
_MALFORMED = {
    "index-out-of-range.txt": _edit_text_rows(lambda r: [r[0].replace("0 0 0", "0 0 5", 1),
                                                         *r[1:]]),
    "missing-site.txt": _edit_text_rows(lambda r: r[:-1]),
    "duplicated-site.txt": _edit_text_rows(lambda r: r[:-1] + r[:1]),
    "non-integral-index.txt": _edit_text_rows(lambda r: [r[0].replace("0 0 0", "0 0 0.5", 1),
                                                         *r[1:]]),
    "short-header.bin": _edit_binary(lambda d: d[:20]),
    "short-body.bin": _edit_binary(lambda d: d[:-16]),
    "nan-entry.bin": _edit_binary(_nan_entry),
    "absent.bin": lambda V, path: None,
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_cli_malformed_potential_file_exits_compute(tmp_path, capsys, name):
    path = tmp_path / name
    V = PotentialSpec.from_samples(3, 1, 4.0, 2, np.full((8, 1, 1), 1e-3 + 2e-3j))
    _MALFORMED[name](V, path)
    doc = {"n": 3, "p": "inf", "q": 2, "potential": {"file": str(path)}}
    out = tmp_path / "r.json"
    assert main(["norms", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) \
        == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert f"error: computation failed: cannot read potential file {path}: " in err, err
    assert not out.exists()


def test_cli_header_only_potential_file_prints_only_the_error(tmp_path, capsys):
    # numpy's loadtxt warned "input contained no data" before the error line
    path = tmp_path / "header-only.txt"
    path.write_text("3 1 2 1.0\n")
    doc = {"n": 3, "p": "inf", "q": 2, "potential": {"file": str(path)}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norms", "--config", _write(tmp_path, "c.json", doc),
                     "--out", str(tmp_path / "r.json")])
    assert code == EXIT_COMPUTE
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"error: computation failed: cannot read potential file {path}: "
        "expected 8 rows of 5 numbers, got (0, 1)"]


def test_cli_potential_file_dimension_must_match_n(tmp_path, capsys):
    # a 4-D file with n = 3: norms failed on a point's dimension, certify ran in n = 4
    path = tmp_path / "v4.bin"
    save_potential_binary(PotentialSpec.from_samples(4, 4, 4.0, 2, np.full((2 ** 4, 4, 4), 1e-3)),
                          path)
    pot = {"file": str(path)}
    jobs = [("certify", {"theorem": "2.4", "n": 3, "potential": pot}),
            ("disks", {"n": 3, "m": 1.0, "potential": pot}),
            ("norms", {"n": 3, "p": "inf", "q": "inf", "potential": pot}),
            ("eig", {"kind": "dirac", "n": 3, "m": 1.0, "potential": pot,
                     "grid": {"L": 2.0, "M": 4}})]
    for command, doc in jobs:
        out = tmp_path / "r.json"
        assert main([command, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) \
            == EXIT_COMPUTE, command
        assert f"potential file {path} has dimension 4, but the config has n = 3" \
            in capsys.readouterr().err
        assert not out.exists()


def test_cli_bench_default_grid_takes_config_n(tmp_path):
    out = str(tmp_path / "b_rep.json")
    doc = {"estimate": "KY", "n": 4, "trials": 1}
    assert main(["bench", "--config", _write(tmp_path, "b.json", doc), "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["results"]["grid"] == {"n": 4, "L": 8.0, "M": 32, "N": 1}
