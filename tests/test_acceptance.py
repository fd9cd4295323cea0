"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with its runtime.  The criteria combine exact reproduction of the
published closed-form numbers with randomized property checks at fixed
seeds.
"""

import contextlib
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import time

import numpy as np
import pytest

from spectralcert.bench import ESTIMATE_IDS, REPORT_ONLY, run_bench
from spectralcert.clifford import build_clifford, anticommutator_defect, dirac_symbol
from spectralcert.birman_schwinger import bs_dense, bs_scan, factor_on_grid
from spectralcert.enclosure import (c1_constant, c2_constant, disk_pair,
                                    enclosure_disks, n1_norm, rho_norms)
from spectralcert.gridops import (GridSpec, apply_free_operator, apply_free_resolvent,
                                  assemble_perturbed, eigenvalues, free_spectrum)
from spectralcert.potential import PotentialSpec
from spectralcert.weights import WeightSpec, dyadic_norm


@contextlib.contextmanager
def criterion(number, label, limit_s, capsys=None):
    """Times one acceptance criterion and emits a single PASS/FAIL line,
    bypassing output capture so the line shows up in plain pytest runs."""
    shout = capsys.disabled() if capsys is not None else contextlib.nullcontext()
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        with shout:
            print(f"\nCRITERION {number} [{label}]: FAIL "
                  f"({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    with shout:
        print(f"\nCRITERION {number} [{label}]: PASS ({elapsed:.1f}s, limit {limit_s}s)")
    assert elapsed < limit_s


# -- 1: constants reproduction ------------------------------------------

def _round_up_3sig(x):
    e = math.floor(math.log10(abs(x)))
    f = 10.0 ** (e - 2)
    return math.ceil(x / f - 1e-12) * f


def _trunc_down_3sig(x):
    e = math.floor(math.log10(abs(x)))
    f = 10.0 ** (e - 2)
    return math.floor(x / f + 1e-12) * f


def test_criterion_1_constants(capsys):
    with criterion(1, "constants reproduction", 1.0, capsys):
        C2 = c2_constant(3)
        # analytic bounds for rho = (|x|^-1/2 + |x|^1/2)^-1
        C1_massive = c1_constant(3, 1.0, 2.0, 1.0)
        C1_massless = c1_constant(3, 0.0, 2.0)
        assert C2 == pytest.approx(8.24e3, rel=5e-3)
        assert C1_massive == pytest.approx(1.11e5, rel=5e-3)
        assert C1_massless == pytest.approx(6.59e4, rel=5e-3)
        # published values are the constants rounded up to 3 significant
        # figures; thresholds are their inverses truncated down to 3
        assert _round_up_3sig(C2) == pytest.approx(8.24e3, rel=1e-12)
        assert _round_up_3sig(C1_massive) == pytest.approx(1.11e5, rel=1e-12)
        assert _round_up_3sig(C1_massless) == pytest.approx(6.59e4, rel=1e-12)
        assert _trunc_down_3sig(1.0 / _round_up_3sig(C1_massive)) \
            == pytest.approx(9.00e-6, rel=1e-12)
        assert _trunc_down_3sig(1.0 / _round_up_3sig(C1_massless)) \
            == pytest.approx(1.51e-5, rel=1e-12)
        assert _trunc_down_3sig(1.0 / (2.0 * _round_up_3sig(C2))) \
            == pytest.approx(6.06e-5, rel=1e-12)
        # raw inverses are consistent with (slightly above) the thresholds
        assert 1.0 / C1_massive >= 9.00e-6
        assert 1.0 / C1_massless >= 1.51e-5
        assert 1.0 / (2.0 * C2) >= 6.06e-5


# -- 2: Clifford suite --------------------------------------------------

def test_criterion_2_clifford(capsys):
    with criterion(2, "Clifford suite", 5.0, capsys):
        for n in range(1, 7):
            rep = build_clifford(n)
            assert rep.N == 2 ** ((n + 1) // 2)
            assert anticommutator_defect(rep) <= 1e-12
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rep = build_clifford(n)
            xi = rng.normal(size=n) * rng.uniform(0.1, 10.0)
            m = rng.uniform(0.0, 5.0)
            M = dirac_symbol(rep, xi, m)
            target = (xi @ xi + m ** 2) * np.eye(rep.N)
            assert np.abs(M @ M - target).max() <= 1e-10 * max(1.0, xi @ xi + m ** 2)


# -- 3: norm-engine oracle equivalence ----------------------------------

def _oracle_dyadic(profile, p, j_min, j_max, n_samples=40001):
    """Dense log-spaced sampling per annulus, independent of the engine."""
    terms = []
    for j in range(j_min, j_max + 1):
        r = np.geomspace(2.0 ** (j - 1), 2.0 ** j * (1 - 1e-12), n_samples)
        terms.append(np.abs(profile(r)).max())
    t = np.asarray(terms)
    return float(t.max()) if np.isinf(p) else float((t ** p).sum() ** (1.0 / p))


def test_criterion_3_norm_engine(capsys):
    with criterion(3, "norm engine vs dense oracle", 30.0, capsys):
        rho2 = WeightSpec("rho2", eps=0.5, delta=0.5)
        inv_sq = PotentialSpec.preset("inverse-square", 3, 1, c=1.0)
        wsig = WeightSpec("w_sigma", sigma=2.0)
        profiles = {
            "rho2": rho2.radial,
            "|x| * inverse-square": lambda r: r * inv_sq.radial_opnorm(r),
            "w_sigma * inverse-square": lambda r: wsig.radial(r) * inv_sq.radial_opnorm(r),
            "rho2 * inverse-square": lambda r: rho2.radial(r) * inv_sq.radial_opnorm(r),
        }
        for name, prof in profiles.items():
            for p in (1, 2):
                res = dyadic_norm(prof, p, np.inf, 3, j_range=(-12, 12))
                oracle = _oracle_dyadic(prof, p, -12, 12)
                assert res.value == pytest.approx(oracle, rel=1e-2), (name, p)
        l2, half = rho_norms(rho2)
        assert l2.rigorous_upper() <= 2.0
        assert half.rigorous_upper() <= 1.0 + 1e-9


# -- 4: resolvent-estimate bench ----------------------------------------

def test_criterion_4_bench(capsys):
    with criterion(4, "resolvent-estimate bench", 600.0, capsys):
        grid = GridSpec(n=3, L=8.0, M=32, N=1)
        failures = []
        for est in ESTIMATE_IDS:
            if est in REPORT_ONLY:
                continue
            rep = run_bench(est, grid=grid, m=1.0, trials=100, seed=0)
            if not rep.passed:
                failures.append((est, rep.max_ratio, rep.paper_constant))
            assert rep.discarded < rep.trials
        assert not failures, f"estimates exceeding constant * 1.1: {failures}"


# -- 5: disk-formula suite ----------------------------------------------

def test_criterion_5_disks(capsys):
    with criterion(5, "disk formulas", 1.0, capsys):
        C2 = c2_constant(3)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.uniform(0.05, 10.0)
            u = rng.uniform(1e-6, 1.0 - 1e-9)   # 2 C2 N_j = u < 1
            Nj = u / (2.0 * C2)
            d = disk_pair(m, Nj, 1, n=3)
            # power-of-origin identity, relative to the disk scale
            scale = max(m ** 2, d.x0_plus ** 2)
            assert abs(d.x0_plus ** 2 - d.r0 ** 2 - m ** 2) <= 1e-12 * scale
            assert d.x0_minus == -d.x0_plus
            assert d.r0 > 0.0
        # vanishing potential: disks collapse onto +-m
        for m in (0.5, 1.0, 3.0):
            d = disk_pair(m, 1e-13, 1, n=3)
            assert abs(d.x0_plus - m) < 1e-6
            assert d.r0 < 1e-6
        # the first-norm disks are enclosed in the second-norm disks
        for kind, c in (("bump", 1e-6), ("matrix-mix", 1e-6), ("inverse-square", 1e-6)):
            V = PotentialSpec.preset(kind, 3, 4, c=c, R=2.0, sigma=2.0)
            c1 = enclosure_disks(V, m=1.0, j=1)
            c2j = enclosure_disks(V, m=1.0, j=2)
            assert c1.verdict == c2j.verdict == "enclosure"
            N1, N2 = c1.params["N_j"], c2j.params["N_j"]
            assert N1 <= N2 * (1.0 + 1e-9)
            d1, d2 = c1.disks, c2j.disks
            assert abs(d1.x0_plus - d2.x0_plus) + d1.r0 <= d2.r0 + 1e-9


# -- 6: desk-scale Birman-Schwinger consistency -------------------------

def test_criterion_6_birman_schwinger_consistency(capsys):
    with criterion(6, "desk-scale consistency", 900.0, capsys):
        C2 = c2_constant(3)
        base = n1_norm(PotentialSpec.preset("inverse-square", 3, 4, c=1.0)).rigorous_upper()
        c = 0.5 / (2.0 * C2 * base)   # tuned so 2 C2 N_1(V) = 0.5
        V = PotentialSpec.preset("inverse-square", 3, 4, c=c)
        cert = enclosure_disks(V, m=1.0, j=1)
        assert cert.verdict == "enclosure"
        assert 2.0 * C2 * cert.params["N_j"] == pytest.approx(0.5, rel=1e-6)
        disks = cert.disks

        grid = GridSpec(n=3, L=8.0, M=8, N=4)
        assert grid.size == 2048
        H = assemble_perturbed("dirac", 1.0, V, grid)
        vals = eigenvalues(H)

        # (a) every eigenvalue far off the real axis lies in the disk union
        off_axis = vals[np.abs(vals.imag) > 0.1]
        assert np.all(disks.contains(off_axis))

        # (b) the Birman-Schwinger principle at those eigenvalues
        factors = factor_on_grid(V, grid)
        for lam in off_axis:
            K = bs_dense("dirac", 1.0, complex(lam), factors, grid)
            assert np.abs(np.linalg.eigvals(K) + 1.0).min() < 1e-6

        # (c) the scanned norm-one region off the real axis is inside the disks
        scan = bs_scan("dirac", 1.0, V, grid, (-2.0, 2.0, -1.0, 1.0), (20, 20), seed=0)
        z = scan.z_lattice()
        with np.errstate(invalid="ignore"):
            mask = ~scan.excluded & (scan.values >= 1.0) & (np.abs(z.imag) > 0.1)
        assert np.all(disks.contains(z[mask]))

        # sanity: the scan produced real data
        assert np.nanmax(scan.values) > 0.0
        assert not scan.excluded.all()


# -- 7: free-operator exactness -----------------------------------------

def test_criterion_7_free_operator(capsys):
    with criterion(7, "free-operator exactness", 60.0, capsys):
        for kind, m, N in (("schrodinger", 0.0, 1), ("klein_gordon", 1.0, 1),
                           ("dirac", 1.0, 4)):
            grid = GridSpec(n=3, L=4.0, M=4, N=N)
            H = assemble_perturbed(kind, m, None, grid)
            vals = eigenvalues(H)
            expect = free_spectrum(grid, kind, m)
            assert np.abs(np.sort(vals.real) - expect).max() <= 1e-10
            assert np.abs(vals.imag).max() <= 1e-10

            rng = np.random.default_rng(7)
            f = grid.field(rng.normal(size=(grid.M ** 3, N))
                           + 1j * rng.normal(size=(grid.M ** 3, N)))
            z = 0.37 + 0.81j
            u = apply_free_resolvent(kind, m, z, f)
            back = apply_free_operator(kind, m, u)
            resid = np.abs(back.values - z * u.values - f.values).max()
            assert resid <= 1e-10


# -- 8: determinism -----------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "byte-identical reports", 120.0, capsys):
        cfg = {"kind": "schrodinger", "n": 3, "m": 0.0,
               "potential": {"preset": "bump", "c": 2.0, "R": 2.5, "N": 1},
               "grid": {"L": 3.0, "M": 4},
               "rectangle": {"re_min": -1.0, "re_max": 1.0, "im_min": 0.2, "im_max": 1.0},
               "resolution": {"n_re": 4, "n_im": 3}, "seed": 11}
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(cfg))
        # the subprocess imports this checkout's package, as the suite does
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outs = []
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            out = d / "report.json"
            proc = subprocess.run(
                [sys.executable, "-m", "spectralcert.cli", "scan",
                 "--config", str(cfg_path), "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        a = outs[0].read_bytes()
        b = outs[1].read_bytes()
        assert a == b
        csv_a = (tmp_path / "first" / "report_scan.csv").read_bytes()
        csv_b = (tmp_path / "second" / "report_scan.csv").read_bytes()
        assert csv_a == csv_b
        assert len(a) > 0 and len(csv_a) > 0
