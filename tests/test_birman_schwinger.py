import dataclasses

import numpy as np
import pytest
import scipy.linalg

from spectralcert import birman_schwinger
from spectralcert.birman_schwinger import (factor_on_grid, bs_apply, bs_norm,
                                           bs_dense, bs_scan, BSScan, SCAN_CSV_HEADER)
from spectralcert.gridops import GridSpec, assemble_perturbed, eigenvalues, free_spectrum
from spectralcert.potential import PotentialSpec
from spectralcert.report import write_csv


def jacobi_svd_top(K, sweeps=60, tol=1e-13):
    """Independent top-singular-value oracle: one-sided Jacobi rotations."""
    A = np.array(K, dtype=complex)
    n = A.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = A[:, p]
                aq = A[:, q]
                app = np.vdot(ap, ap).real
                aqq = np.vdot(aq, aq).real
                apq = np.vdot(ap, aq)
                off = max(off, abs(apq))
                if abs(apq) < tol * np.sqrt(app * aqq + 1e-300):
                    continue
                # rotate columns p, q to orthogonality
                phi = np.angle(apq)
                g = abs(apq)
                theta = 0.5 * np.arctan2(2.0 * g, app - aqq)
                c, s = np.cos(theta), np.sin(theta)
                newp = c * ap + s * np.exp(-1j * phi) * aq
                newq = -s * np.exp(1j * phi) * ap + c * aq
                A[:, p], A[:, q] = newp, newq
        if off < tol:
            break
    return float(np.sqrt(max(np.vdot(A[:, j], A[:, j]).real for j in range(n))))


GRID = GridSpec(n=2, L=3.0, M=4, N=1)  # 16-dim scalar problem
V_SCALAR = PotentialSpec.preset("inverse-square", 2, 1, c=2.0 + 1.0j)


def test_factors_reconstruct_potential():
    A, B = factor_on_grid(V_SCALAR, GRID)
    Vp = V_SCALAR.evaluate(GRID.points)
    recon = np.einsum("pba,pbc->pac", B.conj(), A)
    assert np.abs(recon - Vp).max() < 1e-12


def test_dense_matches_matrix_free_apply():
    # on the Dirac grid matrix-mix's factor B is not Hermitian, so swapped factors
    # show; its factors are symmetric, so a transposed one shows only on random samples
    dirac_grid = GridSpec(n=3, L=2.0, M=2, N=4)
    rng = np.random.default_rng(0)
    matrix_mix = PotentialSpec.preset("matrix-mix", 3, 4, c=0.5 + 0.3j)
    sampled = PotentialSpec.from_samples(3, 4, 2.0, 2, rng.normal(size=(8, 4, 4))
                                         + 1j * rng.normal(size=(8, 4, 4)))
    for kind, m, V, g in (("schrodinger", 0.0, V_SCALAR, GRID),
                          ("dirac", 1.0, matrix_mix, dirac_grid),
                          ("dirac", 1.0, sampled, dirac_grid)):
        factors = factor_on_grid(V, g)
        z = 0.4 + 0.9j
        K = bs_dense(kind, m, z, factors, g)
        v = rng.normal(size=(g.size,)) + 1j * rng.normal(size=(g.size,))
        out = bs_apply(kind, m, z, factors, g, v)
        assert out.shape == (g.size,)
        assert np.abs(K @ v - out).max() < 1e-12
        # K_z* is K at z conj with the factors swapped
        outs = bs_apply(kind, m, z.conjugate(), factors[::-1], g, v)
        assert np.abs(K.conj().T @ v - outs).max() < 1e-12


def test_norm_against_jacobi_oracle(monkeypatch):
    monkeypatch.setattr(birman_schwinger, "SCAN_TOL", 1e-8)
    factors = factor_on_grid(V_SCALAR, GRID)
    for z in (0.4 + 0.9j, -1.0 + 0.25j, 2.0 - 0.5j):
        K = bs_dense("schrodinger", 0.0, z, factors, GRID)
        oracle = jacobi_svd_top(K)
        est = bs_norm("schrodinger", 0.0, z, factors, GRID).value
        assert est == pytest.approx(oracle, rel=1e-4)


def test_norm_against_jacobi_oracle_dirac(monkeypatch):
    monkeypatch.setattr(birman_schwinger, "SCAN_TOL", 1e-8)
    g = GridSpec(n=3, L=2.0, M=2, N=4)
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=0.5 + 0.3j)
    factors = factor_on_grid(V, g)
    z = 0.3 + 0.6j
    K = bs_dense("dirac", 1.0, z, factors, g)
    assert bs_norm("dirac", 1.0, z, factors, g).value == \
        pytest.approx(jacobi_svd_top(K), rel=1e-4)


def test_norm_scales_linearly_in_coupling(monkeypatch):
    monkeypatch.setattr(birman_schwinger, "SCAN_TOL", 1e-9)
    z = 0.5 + 0.5j
    a = bs_norm("schrodinger", 0.0, z,
                factor_on_grid(PotentialSpec.preset("bump", 2, 1, c=1.0), GRID),
                GRID).value
    b = bs_norm("schrodinger", 0.0, z,
                factor_on_grid(PotentialSpec.preset("bump", 2, 1, c=3.0), GRID),
                GRID).value
    assert b == pytest.approx(3.0 * a, rel=1e-6)


def test_hermitian_case_psd():
    # V >= 0 and z on the negative real axis: K_z is Hermitian positive
    V = PotentialSpec.preset("bump", 2, 1, c=1.0, R=2.0)
    factors = factor_on_grid(V, GRID)
    K = bs_dense("schrodinger", 0.0, -1.0, factors, GRID)
    assert np.abs(K - K.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(K).min() > -1e-12


def test_eigenvalue_birman_schwinger_correspondence():
    # exact finite-dimensional principle: lambda in spec(H0 + V) away from
    # spec(H0) iff -1 is an eigenvalue of K_lambda
    g = GridSpec(n=1, L=4.0, M=32, N=1)
    V = PotentialSpec.preset("bump", 1, 1, c=-2.0 + 6.0j, R=2.0)
    H = assemble_perturbed("schrodinger", 0.0, V, g)
    vals = eigenvalues(H)
    free = free_spectrum(g, "schrodinger", 0.0)
    # pick the eigenvalue farthest from the free spectrum
    dist = np.abs(vals[:, None] - free[None, :]).min(axis=1)
    lam = vals[int(np.argmax(dist))]
    assert dist.max() > 0.1
    factors = factor_on_grid(V, g)
    K = bs_dense("schrodinger", 0.0, complex(lam), factors, g)
    ev = np.linalg.eigvals(K)
    assert np.abs(ev + 1.0).min() < 1e-8
    # and the norm is therefore >= 1
    assert bs_norm("schrodinger", 0.0, complex(lam), factors, g).value >= 1.0 - 1e-6


def test_scan_basics(tmp_path):
    scan = bs_scan("schrodinger", 0.0, V_SCALAR, GRID,
                   rectangle=(-1.0, 1.0, 0.2, 1.0), resolution=(5, 4), seed=1)
    assert isinstance(scan, BSScan)
    assert scan.values.shape == (4, 5)
    assert not scan.excluded.any()
    assert np.isfinite(scan.values).all()
    z = scan.z_lattice()
    assert z.shape == (4, 5)
    assert z[0, 0] == pytest.approx(-1.0 + 0.2j)
    # spot check one lattice point against a direct norm computation
    factors = factor_on_grid(V_SCALAR, GRID)
    direct = bs_norm("schrodinger", 0.0, complex(z[2, 3]), factors, GRID, seed=1).value
    assert scan.values[2, 3] == pytest.approx(direct, rel=1e-6)
    mask = ~scan.excluded & (scan.values >= scan.values.min() - 1.0)
    assert mask.all()
    # the box covers the points at norm >= 1: shift every value to >= 1, then below 1
    box = dataclasses.replace(scan, values=scan.values - scan.values.min() + 1.0)\
        .region_bounding_box()
    assert box == (-1.0, 1.0, pytest.approx(0.2), 1.0)
    assert dataclasses.replace(scan, values=scan.values - scan.values.max())\
        .region_bounding_box() is None
    path = tmp_path / "scan.csv"
    write_csv(path, SCAN_CSV_HEADER, scan.csv_rows())
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_z,im_z,norm_estimate,excluded_flag,residual_bound,applies"
    assert len(lines) == 21


def test_scan_marks_excluded_points():
    # a lattice point exactly on the discrete symbol set is excluded, not crashed
    hit = float(GRID.freq_sq.ravel()[3])
    scan = bs_scan("schrodinger", 0.0, V_SCALAR, GRID,
                   rectangle=(hit, hit + 1.0, 0.0, 0.0), resolution=(2, 1))
    assert scan.excluded[0, 0]
    assert not scan.excluded[0, 1]
    assert np.isnan(scan.values[0, 0])


@pytest.mark.parametrize("kind,N", [("schrodinger", 1), ("klein_gordon", 1), ("dirac", 4)])
def test_scan_excludes_points_with_a_nan_gap(kind, N):
    # a NaN mass (Klein-Gordon, Dirac) or a NaN z (every kind) has no distance from the symbol set
    g = GridSpec(n=3, L=3.0, M=4, N=N)
    V = PotentialSpec.preset("inverse-square", 3, N, c=0.5)
    for m, rect in ((float("nan"), (0.1, 0.2, 0.3, 0.3)), (0.5, (float("nan"), 0.2, 0.3, 0.3))):
        if kind == "schrodinger" and np.isnan(m):
            continue  # the Schrodinger symbol has no mass
        scan = bs_scan(kind, m, V, g, rectangle=rect, resolution=(2, 1))
        nan_z = np.isnan(scan.z_lattice())
        assert np.array_equal(scan.excluded, nan_z | np.isnan(m))
        assert np.isnan(scan.values[scan.excluded]).all() and (scan.applies[scan.excluded] == 0).all()


def test_scan_records_residual_bound_and_applies(tmp_path):
    hit = float(GRID.freq_sq.ravel()[3])
    scan = bs_scan("schrodinger", 0.0, V_SCALAR, GRID,
                   rectangle=(hit, hit + 1.0, 0.0, 0.5), resolution=(2, 2), seed=3)
    assert scan.excluded[0, 0] and scan.excluded.sum() == 1
    ok = ~scan.excluded
    assert (scan.residuals[ok] <= 1e-4).all() and (scan.applies[ok] > 0).all()
    factors = factor_on_grid(V_SCALAR, GRID)
    est = bs_norm("schrodinger", 0.0, complex(hit + 1.0, 0.5), factors, GRID, seed=3)
    assert (scan.values[1, 1], scan.residuals[1, 1], scan.applies[1, 1]) == est
    path = tmp_path / "scan.csv"
    write_csv(path, SCAN_CSV_HEADER, scan.csv_rows())
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    assert rows[0][2:] == ["nan", "1", "nan", "0"]
    assert rows[3][4:] == [f"{est.residual:.12g}", str(est.applies)]


def test_scan_deterministic():
    a = bs_scan("schrodinger", 0.0, V_SCALAR, GRID, (-0.5, 0.5, 0.3, 0.8), (3, 2), seed=7)
    b = bs_scan("schrodinger", 0.0, V_SCALAR, GRID, (-0.5, 0.5, 0.3, 0.8), (3, 2), seed=7)
    assert np.array_equal(a.values, b.values)


# -- Golub-Kahan-Lanczos stopping rule ---------------------------------------

DIRAC_GRID = GridSpec(n=3, L=8.0, M=8, N=4)   # dimension 2048


@pytest.mark.parametrize("z,preset,c", [
    (-0.01 + 0.15j, "inverse-square", 1e-5),   # near Re z = 0: two top singular values coincide
    (1.8 + 0.01j, "matrix-mix", 0.45 + 0.25j),  # deep in the continuous spectrum
])
def test_norm_matches_dense_svd_where_power_iteration_read_low(z, preset, c):
    # power iteration on K*K stopping on a small step change read these 1.7e-3
    # and 2.2e-3 low at the default tol
    V = PotentialSpec.preset(preset, 3, 4, c=c)
    factors = factor_on_grid(V, DIRAC_GRID)
    top = scipy.linalg.svdvals(bs_dense("dirac", 1.0, z, factors, DIRAC_GRID))[0]
    est = bs_norm("dirac", 1.0, z, factors, DIRAC_GRID)
    assert est.value == pytest.approx(top, rel=1e-8)
    assert est.value <= top * (1.0 + 1e-12)          # theta is a lower bound
    assert est.residual <= 1e-4


def test_norm_of_zero_operator_is_zero():
    factors = factor_on_grid(PotentialSpec.preset("bump", 2, 1, c=0.0), GRID)
    est = bs_norm("schrodinger", 0.0, 0.5 + 0.5j, factors, GRID)
    assert est == (0.0, 0.0, 1)


def test_rank_deficient_operator_stops_at_breakdown(monkeypatch):
    # V vanishes at all but 3 of 16 points, so K_z has rank 3; with SCAN_TOL = 0 only
    # an invariant Krylov space can stop the iteration
    monkeypatch.setattr(birman_schwinger, "SCAN_TOL", 0.0)
    A, B = factor_on_grid(V_SCALAR, GRID)
    keep = np.zeros((GRID.M ** GRID.n, 1, 1))
    keep[[2, 7, 11]] = 1.0
    factors = (A * keep, B * keep)
    z = 0.4 + 0.9j
    K = bs_dense("schrodinger", 0.0, z, factors, GRID)
    assert np.linalg.matrix_rank(K) == 3
    est = bs_norm("schrodinger", 0.0, z, factors, GRID)
    assert est.value == pytest.approx(scipy.linalg.svdvals(K)[0], rel=1e-12)
    assert est.applies <= 2 * 4


def test_too_few_steps_raise(monkeypatch):
    monkeypatch.setattr(birman_schwinger, "MAX_STEPS", 2)
    factors = factor_on_grid(PotentialSpec.preset("matrix-mix", 3, 4, c=0.45 + 0.25j), DIRAC_GRID)
    with pytest.raises(RuntimeError, match="did not reach residual"):
        bs_norm("dirac", 1.0, 1.8 + 0.01j, factors, DIRAC_GRID)


def test_norm_needs_few_applies(monkeypatch):
    # every application of K_z or K_z* goes through bs_apply; the three-restart
    # power iteration made 60 here
    calls = []
    original = birman_schwinger.bs_apply

    def counted(kind, m, z, factors, grid, v):
        calls.append(z)
        return original(kind, m, z, factors, grid, v)

    monkeypatch.setattr(birman_schwinger, "bs_apply", counted)
    factors = factor_on_grid(PotentialSpec.preset("matrix-mix", 3, 4, c=0.45 + 0.25j), DIRAC_GRID)
    est = bs_norm("dirac", 1.0, 0.3 + 0.3j, factors, DIRAC_GRID)
    assert len(calls) == est.applies <= 30
    assert calls == [0.3 + 0.3j, 0.3 - 0.3j] * (len(calls) // 2)  # K_z, then K_z* (at z conj)
