import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectralcert import weights
from spectralcert.gridops import GridSpec
from spectralcert.weights import (WeightSpec, NormResult, dyadic_norm,
                                  grid_dyadic_norm, morrey_norms)


# -- independent oracle: dense 1-D sampling of radial profiles ----------

def oracle_dyadic_radial(profile, p, q, n, j_min, j_max, n_samples=20001):
    """Brute-force per-annulus norms on a dense log grid, independent of the
    refinement engine (plain trapezoid rule for L^2, dense max for sup)."""
    from scipy.special import gamma
    area = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    terms = []
    for j in range(j_min, j_max + 1):
        lo, hi = 2.0 ** (j - 1), 2.0 ** j
        if np.isinf(q):
            r = np.geomspace(lo, hi * (1 - 1e-12), n_samples)
            terms.append(np.abs(profile(r)).max())
        else:
            r = np.linspace(lo, hi, n_samples)
            g = np.abs(profile(r)) ** 2 * r ** (n - 1)
            terms.append(np.sqrt(area * np.trapezoid(g, r)))
    t = np.asarray(terms)
    if np.isinf(p):
        return float(t.max())
    return float((t ** p).sum() ** (1.0 / p))


def test_weight_values():
    r = np.array([0.25, 1.0, 4.0])
    tau = WeightSpec("tau", eps=0.25)
    assert np.allclose(tau.radial(r), r ** 0.25 + r)
    w = WeightSpec("w_sigma", sigma=2.0)
    assert w.radial(1.0) == pytest.approx(1.0)
    assert w.radial(np.e) == pytest.approx(np.e * 4.0)
    rho1 = WeightSpec("rho1", sigma=2.0)
    assert rho1.radial(np.e) == pytest.approx(0.5)
    rho2 = WeightSpec("rho2", eps=0.5, delta=0.5)
    assert rho2.radial(1.0) == pytest.approx(0.5)
    assert rho2.radial(4.0) == pytest.approx(1.0 / 2.5)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSpec("tau", eps=0.0)
    with pytest.raises(ValueError):
        WeightSpec("w_sigma", sigma=1.0)
    with pytest.raises(ValueError):
        WeightSpec("rho2", eps=0.5, delta=0.0)
    with pytest.raises(ValueError):
        WeightSpec("unknown")


def test_indicator_annulus_l1_linf():
    # indicator of annulus j=1 has ell^1 L^inf norm exactly 1
    prof = lambda r: ((r >= 1.0) & (r < 2.0)).astype(float)
    res = dyadic_norm(prof, 1, np.inf, 3, j_range=(-5, 5))
    assert res.value == pytest.approx(1.0)
    assert res.tail_bound == pytest.approx(0.0)


def test_power_profile_against_oracle():
    # |x|^-1 on annuli: sup over annulus j is 2^(1-j)
    prof = lambda r: 1.0 / r
    res = dyadic_norm(prof, np.inf, np.inf, 3, j_range=(0, 10))
    assert res.value == pytest.approx(2.0, rel=1e-9)
    oracle = oracle_dyadic_radial(prof, np.inf, np.inf, 3, 0, 10)
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_l2_annulus_against_closed_form():
    # f = 1 on R^3: L^2 norm over annulus j is sqrt(4pi (hi^3-lo^3)/3)
    prof = lambda r: np.ones_like(r)
    res = dyadic_norm(prof, np.inf, 2, 3, j_range=(1, 1))
    expect = np.sqrt(4 * np.pi * (8.0 - 1.0) / 3.0)
    assert res.value == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("p,q", [(1, np.inf), (2, np.inf), (np.inf, 2), (2, 2)])
def test_engine_matches_oracle_random_profiles(p, q):
    rng = np.random.default_rng(17)
    for _ in range(3):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.3, 1.5)
        prof = lambda r: a / ((1.0 + r) ** 2) + b * r ** 0.3 * np.exp(-r)
        res = dyadic_norm(prof, p, q, 3, j_range=(-8, 8))
        oracle = oracle_dyadic_radial(prof, p, q, 3, -8, 8)
        assert res.value == pytest.approx(oracle, rel=1e-2)


def _unit_origin_cells():
    # n = 3, M = 4, L = 2^41: the 8 cells [0, +-2^41]^3 hold 1 and contain every annulus
    # j <= 40; every other cell holds 0
    mag = np.zeros((4, 4, 4))
    mag[1:3, 1:3, 1:3] = 1.0
    return mag.ravel(), 3, 2.0 ** 41, 4


def test_nonradial_sampler_agrees_with_radial_path():
    # a file read cell by cell agrees with the radial path where its cells cover the annuli
    prof = lambda r: r / (1.0 + r) ** 3
    one = lambda r: np.ones_like(r)
    for weight, q, p in ((prof, np.inf, 1), (None, 2, np.inf)):
        a = dyadic_norm(one if weight is None else prof, p, q, 3)
        b = weights.cell_dyadic_norm(*_unit_origin_cells(), p, q, weight)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert not b.diverged
        assert b.tail_bound is None  # no envelope without a radial profile


def test_divergence_detected():
    prof = lambda r: np.ones_like(r)  # constant: ell^1 of sups diverges
    res = dyadic_norm(prof, 1, np.inf, 3, j_range=(-20, 20))
    assert res.diverged
    assert np.isinf(res.value)
    assert np.isinf(res.rigorous_upper())


def test_tail_bound_and_rigorous_upper():
    prof = lambda r: r / (1.0 + r) ** 4
    res = dyadic_norm(prof, 1, np.inf, 3, j_range=(-3, 3))
    wide = dyadic_norm(prof, 1, np.inf, 3, j_range=(-40, 40))
    assert res.tail_bound > 0.0
    # narrow value + tail covers the wide value
    assert res.rigorous_upper() >= wide.value - 1e-12
    assert res.rigorous_upper() == pytest.approx(res.value + res.tail_bound)


def test_sup_tail_combines_by_max():
    res = NormResult(value=0.8, p=np.inf, j_min=-2, j_max=2, tail_bound=1.0)
    assert res.rigorous_upper() == pytest.approx(1.0)
    res2 = NormResult(value=0.8, p=1.0, j_min=-2, j_max=2, tail_bound=1.0)
    assert res2.rigorous_upper() == pytest.approx(1.8)


def test_holder_consistency():
    # ell^1 >= ell^2 >= ell^inf for the same per-annulus terms
    prof = lambda r: np.exp(-r) / (0.1 + r)
    v1 = dyadic_norm(prof, 1, np.inf, 3, j_range=(-10, 10)).value
    v2 = dyadic_norm(prof, 2, np.inf, 3, j_range=(-10, 10)).value
    vi = dyadic_norm(prof, np.inf, np.inf, 3, j_range=(-10, 10)).value
    assert v1 >= v2 * (1 - 1e-12) >= vi * (1 - 1e-12)


def test_weighted_sup_norm_paths():
    prof = lambda r: 1.0 / (1.0 + r)
    w = WeightSpec("power", exponent=1.0)
    wprof = lambda r: w.radial(r) * prof(r)
    a = dyadic_norm(wprof, np.inf, np.inf, 3)
    # r/(1+r) -> 1 monotonically
    assert a.value == pytest.approx(1.0, rel=1e-6)

    b = weights.cell_dyadic_norm(*_unit_origin_cells(), np.inf, np.inf, wprof)
    assert b.value == pytest.approx(a.value, rel=1e-12)


# -- reference: the engine one annulus per profile call -----------------
#
# The batched engine must take exactly these samples and do exactly this
# arithmetic per annulus, so its results are compared with ==.

def _ref_sup(values, lo, hi, n_samples, rounds):
    best = 0.0
    for _ in range(rounds):
        r = np.geomspace(lo, hi, n_samples)
        vals = values(r)
        i = np.unravel_index(int(np.argmax(vals)), vals.shape)[0]
        best = max(best, float(vals.max()))
        lo2, hi2 = r[max(i - 1, 0)], r[min(i + 1, n_samples - 1)]
        if hi2 <= lo2:
            break
        lo, hi = lo2, hi2
    return best


def _ref_annulus(j, n, q, profile, rounds=3):
    area = 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)  # the program's constant
    lo, hi = 2.0 ** (j - 1), 2.0 ** j
    if np.isinf(q):
        return _ref_sup(lambda r: np.abs(profile(r)), lo, hi * (1.0 - 1e-9), 256, rounds)
    t, wts = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * wts
    return float(np.sqrt(area * np.sum(w * r ** (n - 1) * np.abs(profile(r)) ** 2)))


def reference_dyadic_norm(profile, p, q, n, j_range=(-40, 40)):
    j_min, j_max = j_range
    j_ext = 200

    def annulus(j):
        return _ref_annulus(j, n, q, profile)

    terms = [annulus(j) for j in range(j_min, j_max + 1)]
    diverged = weights._detect_divergence(terms, p)
    value = np.inf if diverged else weights._aggregate(terms, p)
    tail = None
    if not diverged:
        ext = [annulus(j) for j in range(j_min - j_ext, j_min)]
        ext += [annulus(j) for j in range(j_max + 1, j_max + 1 + j_ext)]
        if not weights._detect_divergence(ext, p):
            tail = weights._aggregate(ext, p)
    return value, tail, diverged


def _assert_same_as_reference(profile, p, q, n, **kw):
    res = dyadic_norm(profile, p, q, n, **kw)
    value, tail, diverged = reference_dyadic_norm(profile, p, q, n, **kw)
    assert res.value == value
    assert res.tail_bound == tail
    assert res.diverged == diverged
    return res


def _bumpy(r):
    return np.abs(np.sin(3.0 * np.log(r))) / (1.0 + r) ** 2 + 1e-3 * r ** 0.25 * np.exp(-r)


@pytest.mark.parametrize("p,q", [(1, np.inf), (np.inf, np.inf), (2, 2), (np.inf, 2)])
def test_batched_radial_matches_reference(p, q):
    _assert_same_as_reference(_bumpy, p, q, 3)
    rho = WeightSpec("rho2", eps=0.5, delta=0.5)
    _assert_same_as_reference(rho.radial, p, q, 3, j_range=(-5, 7))


def test_batched_constant_profile_matches_reference():
    # a constant: the argmax is the first sample of every row, and the sums diverge
    one = lambda r: np.ones_like(r)
    res = _assert_same_as_reference(one, 1, np.inf, 3, j_range=(-20, 20))
    assert res.diverged
    _assert_same_as_reference(one, np.inf, np.inf, 3, j_range=(-3, 3))


def test_batched_single_annulus_and_ragged_ranges():
    _assert_same_as_reference(_bumpy, 1, np.inf, 3, j_range=(1, 1))
    _assert_same_as_reference(_bumpy, 2, 2, 3, j_range=(1, 1))
    # lengths that are not multiples of the annuli per profile call: 32 for a
    # sup, 128 for an L^2 norm
    assert weights._BLOCK_SAMPLES // 256 == 32 and weights._BLOCK_SAMPLES // 64 == 128
    assert (2 * 200 + 37) % 32 and (2 * 200 + 37) % 128
    _assert_same_as_reference(_bumpy, 1, np.inf, 3, j_range=(-18, 18))
    _assert_same_as_reference(_bumpy, 1, 2, 3, j_range=(-18, 18))


def test_radial_norm_evaluates_many_annuli_per_call():
    calls = []

    def profile(r):
        calls.append(r.shape)
        return _bumpy(r)

    dyadic_norm(profile, 1, np.inf, 3)
    assert len(calls) == 3 * math.ceil(481 / 32)
    assert sum(np.prod(s) for s in calls) == 481 * 3 * 256


@pytest.mark.parametrize("q,rounds", [(np.inf, 3), (2, 1)])
def test_samples_per_annulus_counts_the_samples_taken(q, rounds):
    # radial: 481 annuli (the range and its 400-annulus continuation); a sup
    # takes its count once per refinement round
    points = []

    def profile(r):
        points.append(r.size)
        return _bumpy(r)

    res = dyadic_norm(profile, 1, q, 3)
    assert res.samples_per_annulus * 481 * rounds == sum(points)
    assert res.samples_per_annulus == (256 if np.isinf(q) else 64)


def test_norm_result_is_frozen():
    res = dyadic_norm(_bumpy, 1, np.inf, 3, j_range=(0, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0


# -- grid-field norms ---------------------------------------------------

def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(grid.M ** grid.n, grid.N)) \
        + 1j * rng.normal(size=(grid.M ** grid.n, grid.N))
    return grid.field(vals)


def _masked_grid_norm(grid, mag, p):
    # ell^p L^2 with one boolean mask per annulus, summed in site order
    j_idx = np.floor(np.log2(grid.radii)).astype(int) + 1
    vol = grid.cell_volume
    groups = [mag[j_idx == j] for j in np.unique(j_idx)]
    return weights._aggregate([np.sqrt(np.sum(g ** 2) * vol) for g in groups], p)


def test_grid_dyadic_norm_against_direct_sum():
    # grids called alternately that differ only in L or only in M, so a
    # per-lattice cache keyed wrongly shows
    grids = [GridSpec(n=3, L=4.0, M=8, N=2), GridSpec(n=3, L=3.0, M=8, N=2),
             GridSpec(n=3, L=4.0, M=10, N=2)]
    mags = [np.linalg.norm(_random_field(g, k).values, axis=-1) for k, g in enumerate(grids)]
    for _ in range(2):
        for grid, vals in zip(grids, mags):
            for p in (1, 2, np.inf):
                assert grid_dyadic_norm(grid, vals, p, 0.0) == _masked_grid_norm(grid, vals, p)


def test_grid_norm_weight_exponent():
    grid = GridSpec(n=3, L=4.0, M=8, N=1)
    u = _random_field(grid, 1)
    vals = np.abs(u.values[:, 0])
    for p in (1, np.inf):
        plain = grid_dyadic_norm(grid, vals, p, 0.0)
        for a in (-0.5, 0.5):
            weighted = grid_dyadic_norm(grid, vals, p, a)
            assert weighted == _masked_grid_norm(grid, grid.radii ** a * vals, p)
            assert weighted != plain


def test_morrey_equivalence_chain():
    # discrete chain: ball mass up to R <= sum over annuli j of
    # 2^j * (annulus L^2 of |x|^(-1/2) u)^2, giving Y <= 2 ||...||_{ell^inf L^2}
    for seed in range(10):
        grid = GridSpec(n=3, L=4.0, M=8, N=1)
        mag = np.abs(_random_field(grid, seed).values[:, 0])
        _, Y = morrey_norms(grid, mag)
        dy = grid_dyadic_norm(grid, mag, np.inf, -0.5)
        assert Y <= 2.0 * dy * (1 + 1e-12)


def test_morrey_scaling_homogeneity():
    # doubling the field doubles every norm
    grid = GridSpec(n=3, L=4.0, M=8, N=2)
    mag = np.linalg.norm(_random_field(grid, 4).values, axis=-1)
    for a, b in zip(morrey_norms(grid, mag), morrey_norms(grid, 2.0 * mag)):
        assert b == pytest.approx(2.0 * a, rel=1e-12)
    assert grid_dyadic_norm(grid, 2.0 * mag, 1, 0.0) == \
        pytest.approx(2 * grid_dyadic_norm(grid, mag, 1, 0.0))


def test_morrey_y_definition():
    grid = GridSpec(n=3, L=2.0, M=4, N=1)
    u = _random_field(grid, 7)
    vals = np.abs(u.values[:, 0]) ** 2
    radii = grid.radii
    best = 0.0
    for R in np.unique(radii):
        mass = vals[radii <= R].sum() * grid.cell_volume
        best = max(best, mass / R)
    _, Y = morrey_norms(grid, np.abs(u.values[:, 0]))
    assert Y == pytest.approx(np.sqrt(best), rel=1e-12)


def test_invalid_pq():
    with pytest.raises(ValueError):
        dyadic_norm(lambda r: r, 3, np.inf, 3)
    with pytest.raises(ValueError):
        dyadic_norm(lambda r: r, 1, 1, 3)


def test_q2_norms_import_no_module():
    # after the CLI's imports, a q = 2 norm loads no module: a lazy import would add its library
    # pages to the resident memory of the first job that makes one
    code = """
import sys
import numpy as np
import spectralcert.cli
from spectralcert.weights import cell_dyadic_norm, dyadic_norm
before = set(sys.modules)
dyadic_norm(lambda r: 1.0 / (1.0 + r) ** 4, 2, 2, 3)
cell_dyadic_norm(np.ones(64), 3, 2.0, 4, 2, 2)
print(sorted(set(sys.modules) - before))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
