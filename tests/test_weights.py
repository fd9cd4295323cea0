import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectralcert import weights
from spectralcert.gridops import GridSpec
from spectralcert.potential import PotentialSpec
from spectralcert.profiles import RADIUS, Profile
from spectralcert.weights import (WeightSpec, NormResult, dyadic_norm,
                                  grid_dyadic_norm, morrey_norms)


# -- independent oracle: dense 1-D sampling of radial profiles ----------

def oracle_dyadic_radial(profile, p, q, n, j_min, j_max, n_samples=20001):
    """Brute-force per-annulus norms on a dense log grid, independent of the
    engine (plain trapezoid rule for L^2, dense max for sup)."""
    from scipy.special import gamma
    area = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    terms = []
    for j in range(j_min, j_max + 1):
        lo, hi = 2.0 ** (j - 1), 2.0 ** j
        if np.isinf(q):
            r = np.geomspace(lo, hi, n_samples)
            terms.append(profile(r)[0].max())
        else:
            r = np.linspace(lo, hi, n_samples)
            g = profile(r)[0] ** 2 * r ** (n - 1)
            terms.append(np.sqrt(area * np.trapezoid(g, r)))
    t = np.asarray(terms)
    if np.isinf(p):
        return float(t.max())
    return float((t ** p).sum() ** (1.0 / p))


def _norm(profile, p, q, n=3, **kw):
    return dyadic_norm(profile, p, q, n, breaks=profile.breaks, **kw)


CONST = Profile.of(1.0)


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


@pytest.mark.parametrize("w", [WeightSpec("tau", eps=0.1), WeightSpec("tau", eps=0.5),
                               WeightSpec("w_sigma", sigma=1.5), WeightSpec("rho1", sigma=2.0),
                               WeightSpec("rho2", eps=0.25, delta=0.5),
                               WeightSpec("power", exponent=-0.7), WeightSpec("tau", eps=5.0),
                               WeightSpec("rho2", eps=3.0, delta=2.0)])
def test_weight_profile_declares_the_radial_formula(w):
    r = np.geomspace(2.0 ** -60, 2.0 ** 60, 2001)
    assert np.allclose(w.profile(r)[0], w.radial(r), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("w", [WeightSpec("tau", eps=5.0), WeightSpec("rho2", eps=3.0, delta=2.0)])
def test_weight_profile_stays_finite_where_its_formula_does(w):
    # r^k overflows out at 2^240 for k > 4.26: 1 + r^k is taken as r^k (1 + r^-k) there,
    # so no 0 * inf or inf / inf forms in the values or the log-derivatives
    r = np.ldexp(1.0, np.arange(-240, 241, 20))
    value, slopes = w.profile(r)
    with np.errstate(over="ignore"):
        formula = w.radial(r)
    finite = np.isfinite(formula)
    assert np.allclose(value[finite], formula[finite], rtol=1e-13, atol=0.0)
    assert np.all(np.isinf(value[~finite])) and np.all(np.isfinite(slopes))
    res = _norm(w.profile, 2, np.inf)
    assert not np.isnan(res.value) and (res.tail_bound is None or np.isfinite(res.tail_bound))
    if w.kind == "rho2":
        lo, hi = weights._annulus_bounds(np.arange(-240, 241))
        terms, points = weights._sup_bounds(w.profile, w.profile.breaks, lo, hi)
        assert np.all(np.isfinite(terms)) and points < 1000


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSpec("tau", eps=0.0)
    with pytest.raises(ValueError):
        WeightSpec("w_sigma", sigma=1.0)
    with pytest.raises(ValueError):
        WeightSpec("rho2", eps=0.5, delta=0.0)
    with pytest.raises(ValueError):
        WeightSpec("unknown")


def test_compact_profile_has_zero_terms_beyond_its_support():
    # r times a bump of radius 2 is 0 on every closed annulus [2^(j-1), 2^j] with j >= 2,
    # and the ell^1 tail is the inner continuation alone
    prof = RADIUS * Profile.of(1.0, ("bump", 2.0, 1.0))
    js = np.arange(-5, 6)
    terms, _ = weights._annulus_terms(prof, prof.breaks, js, 3, np.inf)
    assert np.all(terms[js >= 2] == 0.0) and np.all(terms[js <= 1] > 0.0)
    res = _norm(prof, 1, np.inf, j_range=(-5, 5))
    assert res.value == pytest.approx(oracle_dyadic_radial(prof, 1, np.inf, 3, -5, 5), rel=1e-8)
    inner = sum(2.0 ** j * np.exp(1.0 - 1.0 / (1.0 - 4.0 ** j / 4.0)) for j in range(-205, -5))
    assert res.tail_bound == pytest.approx(inner, rel=1e-12)


def test_power_profile_against_oracle():
    # |x|^-1 on annuli: sup over annulus j is 2^(1-j)
    prof = RADIUS ** -1
    res = _norm(prof, np.inf, np.inf, j_range=(0, 10))
    assert res.value == pytest.approx(2.0, rel=1e-9)
    oracle = oracle_dyadic_radial(prof, np.inf, np.inf, 3, 0, 10)
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_l2_annulus_against_closed_form():
    # f = 1 on R^3: L^2 norm over annulus j is sqrt(4pi (hi^3-lo^3)/3)
    res = _norm(CONST, np.inf, 2, j_range=(1, 1))
    expect = np.sqrt(4 * np.pi * (8.0 - 1.0) / 3.0)
    assert res.value == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("p,q", [(1, np.inf), (2, np.inf), (np.inf, 2), (2, 2)])
def test_engine_matches_oracle_random_profiles(p, q):
    # a r^b (1 + r^k)^-e (1 + |ln r|)^s, decaying like r^b at 0 and r^(b - k e) at infinity
    rng = np.random.default_rng(17)
    for _ in range(3):
        a, b = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        k, s = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        e = (b + rng.uniform(2.0, 3.0)) / k
        prof = Profile.of(a, ("r", None, b), ("1+r^k", k, -e), ("log", None, s))
        res = _norm(prof, p, q, j_range=(-8, 8))
        oracle = oracle_dyadic_radial(prof, p, q, 3, -8, 8)
        assert res.value == pytest.approx(oracle, rel=1e-2)
        if np.isinf(q):
            assert oracle * (1 - 1e-12) <= res.value <= oracle * (1 + 1e-7)


def _unit_origin_cells():
    # n = 3, M = 4, L = 2^41: the 8 cells [0, +-2^41]^3 hold 1 and contain every annulus
    # j <= 40; every other cell holds 0
    mag = np.zeros((4, 4, 4))
    mag[1:3, 1:3, 1:3] = 1.0
    return mag.ravel(), 3, 2.0 ** 41, 4


def test_nonradial_sampler_agrees_with_radial_path():
    # a file read cell by cell agrees with the radial path where its cells cover the annuli
    prof = RADIUS * Profile.of(1.0, ("1+r^k", 1.0, -3.0))
    for weight, q, p in ((prof, np.inf, 1), (None, 2, np.inf)):
        a = _norm(CONST if weight is None else prof, p, q)
        b = weights.cell_dyadic_norm(*_unit_origin_cells(), p, q, weight)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert not b.diverged
        assert b.tail_bound is None  # no envelope without a radial profile


def test_divergence_detected():
    res = _norm(CONST, 1, np.inf, j_range=(-20, 20))  # constant: ell^1 of sups diverges
    assert res.diverged
    assert np.isinf(res.value)
    assert np.isinf(res.rigorous_upper())


def test_tail_bound_and_rigorous_upper():
    prof = RADIUS * Profile.of(1.0, ("1+r^k", 1.0, -4.0))
    res = _norm(prof, 1, np.inf, j_range=(-3, 3))
    wide = _norm(prof, 1, np.inf, j_range=(-40, 40))
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
    prof = Profile.of(1.0, ("r", None, 0.5), ("bump", 3.0, 1.0))
    v1 = _norm(prof, 1, np.inf, j_range=(-10, 10)).value
    v2 = _norm(prof, 2, np.inf, j_range=(-10, 10)).value
    vi = _norm(prof, np.inf, np.inf, j_range=(-10, 10)).value
    assert v1 >= v2 * (1 - 1e-12) >= vi * (1 - 1e-12)


def test_weighted_sup_norm_paths():
    prof = Profile.of(1.0, ("1+r^k", 1.0, -1.0))
    wprof = WeightSpec("power", exponent=1.0).profile * prof
    a = _norm(wprof, np.inf, np.inf)
    # r/(1+r) -> 1 monotonically
    assert a.value == pytest.approx(1.0, rel=1e-6)

    b = weights.cell_dyadic_norm(*_unit_origin_cells(), np.inf, np.inf, wprof)
    assert b.value == pytest.approx(a.value, rel=1e-12)


# -- reference: the engine one annulus per call -------------------------
#
# A sup term depends on its own annulus alone, so the batched engine must give each
# annulus exactly the bound that it gets alone; an L^2 term is a Gauss sum, recomputed
# here one annulus at a time.  Results are compared with ==.

def _ref_annulus(j, n, q, profile):
    area = 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)  # the program's constant
    lo, hi = 2.0 ** (j - 1), 2.0 ** j
    if np.isinf(q):
        return weights._sup_bounds(profile, profile.breaks, np.array([lo]), np.array([hi]))[0][0]
    t, wts = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * wts
    return float(np.sqrt(area * np.sum(w * r ** (n - 1) * profile(r)[0] ** 2)))


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
    res = _norm(profile, p, q, n, **kw)
    value, tail, diverged = reference_dyadic_norm(profile, p, q, n, **kw)
    assert res.value == value
    assert res.tail_bound == tail
    assert res.diverged == diverged
    return res


# an interior maximum near r = 1, the log factor's break at 1 and the bump's at 5.3,
# inside annulus 3
_bumpy = Profile.of(1.0, ("r", None, 0.3), ("1+r^k", 2.0, -1.5), ("log", None, 0.7),
                    ("bump", 5.3, 1.0))


@pytest.mark.parametrize("p,q", [(1, np.inf), (np.inf, np.inf), (2, 2), (np.inf, 2)])
def test_batched_radial_matches_reference(p, q):
    _assert_same_as_reference(_bumpy, p, q, 3)
    rho = WeightSpec("rho2", eps=0.5, delta=0.5)
    _assert_same_as_reference(rho.profile, p, q, 3, j_range=(-5, 7))


def test_batched_constant_profile_matches_reference():
    # a constant: every piece is exact, and the sums diverge
    res = _assert_same_as_reference(CONST, 1, np.inf, 3, j_range=(-20, 20))
    assert res.diverged
    _assert_same_as_reference(CONST, np.inf, np.inf, 3, j_range=(-3, 3))


def test_batched_single_annulus_and_ragged_ranges():
    _assert_same_as_reference(_bumpy, 1, np.inf, 3, j_range=(1, 1))
    _assert_same_as_reference(_bumpy, 2, 2, 3, j_range=(1, 1))
    _assert_same_as_reference(_bumpy, 1, np.inf, 3, j_range=(3, 3))  # the bump's break inside
    _assert_same_as_reference(_bumpy, 1, np.inf, 3, j_range=(-18, 18))
    _assert_same_as_reference(_bumpy, 1, 2, 3, j_range=(-18, 18))


def test_radial_norm_evaluates_many_annuli_per_call():
    calls = []

    def profile(r):
        calls.append(r.shape)
        return _bumpy(r)

    res = dyadic_norm(profile, 1, np.inf, 3, breaks=_bumpy.breaks)
    # the 482 annulus ends and the break at 5.3 in one call, then one call per round
    assert calls[0] == (483,)
    assert len(calls) <= 12
    assert sum(np.prod(s) for s in calls) == res.profile_points


@pytest.mark.parametrize("q", [np.inf, 2])
def test_profile_points_counts_the_radii_evaluated(q):
    # radial: 481 annuli (the range and its 400-annulus continuation)
    points = []

    def profile(r):
        points.append(r.size)
        return _bumpy(r)

    res = dyadic_norm(profile, 1, q, 3, breaks=_bumpy.breaks)
    assert res.profile_points == sum(points)
    if q == 2:
        assert res.profile_points == 481 * 64


def test_norm_result_is_frozen():
    res = _norm(_bumpy, 1, np.inf, j_range=(0, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0


# -- the sup engine's contract -------------------------------------------
#
# Every sup term is an upper bound: at least the largest of 4097 log-spaced values of its
# annulus (up to the rounding of the profile's own values), and at most 1e-8 above the
# sup, which the dense grid refined once around its argmax estimates.  The plain dense
# maximum alone falls up to 1.6e-8 below the sup for the bump profiles.

def _dense_max(profile, lo, hi, n=4097, rows=8):
    """Per [lo, hi]: the largest of ``n`` log-spaced values, and the largest after ``n``
    more between the neighbours of the argmax."""
    coarse, fine = [], []
    for k in range(0, len(lo), rows):
        r = np.geomspace(lo[k:k + rows], hi[k:k + rows], n, axis=-1)
        v = profile(r)[0]
        i, at = v.argmax(axis=-1), np.arange(len(r))
        near = np.geomspace(r[at, np.maximum(i - 1, 0)], r[at, np.minimum(i + 1, n - 1)], n, axis=-1)
        coarse.append(v.max(axis=-1))
        fine.append(np.maximum(coarse[-1], profile(near)[0].max(axis=-1)))
    return np.concatenate(coarse), np.concatenate(fine)


def _assert_bounds_the_sup(bound, profile, lo, hi):
    coarse, fine = _dense_max(profile, lo, hi)
    assert np.all(bound >= coarse * (1.0 - 8 * np.finfo(float).eps))
    assert np.all(bound <= fine * (1.0 + 1e-8))


def _theorem_weights():
    """The weights that certify, disks and norms put on a preset's |V|."""
    out = {"none": CONST, "r": RADIUS}
    for eps in (0.1, 0.25):
        out[f"tau({eps})^2"] = WeightSpec("tau", eps=eps).profile ** 2
    for sigma in (1.5, 2.0):
        out[f"w_sigma({sigma})"] = WeightSpec("w_sigma", sigma=sigma).profile
    for name, rho in RHOS.items():
        out[f"r/{name}^2"] = RADIUS * rho.profile ** -2
    return out


RHOS = {"rho2(1/2,1/2)": WeightSpec("rho2", eps=0.5, delta=0.5),
        "rho2(1/4,1/2)": WeightSpec("rho2", eps=0.25, delta=0.5),
        "rho1(2)": WeightSpec("rho1", sigma=2.0)}
PRESETS = [("inverse-square", {}), ("matrix-mix", {})] + \
    [("bump", {"R": R}) for R in (0.5, 1.0, 1.0005, 1.3, 2.0, 2.001)] + \
    [("dyadic-decay", {"sigma": s}) for s in (1.5, 2.0)]


def _buildable_profiles():
    """Every profile of a certify, disks or norms job on the presets and weights above."""
    out = {}
    for preset, kw in PRESETS:
        V = PotentialSpec.preset(preset, 3, 4 if preset == "matrix-mix" else 1, c=0.7 - 0.3j, **kw)
        for name, w in _theorem_weights().items():
            out[f"{preset}{kw} * {name}"] = V.profile * w
    for name, rho in RHOS.items():
        out[name] = rho.profile
        out[f"r^(1/2) {name}"] = RADIUS ** 0.5 * rho.profile
    return out


@pytest.mark.parametrize("name", list(_buildable_profiles()))
def test_sup_terms_bound_every_buildable_profile(name):
    prof = _buildable_profiles()[name]
    js = np.arange(-240, 241)
    lo, hi = weights._annulus_bounds(js)
    terms, points = weights._sup_bounds(prof, prof.breaks, lo, hi)
    mid = (js >= -40) & (js <= 40)
    _assert_bounds_the_sup(terms[mid], prof, lo[mid], hi[mid])
    # the benchmark's profiles settle far below the points budget: about 1 000 per norm
    assert points < 1000 < 482 + weights._SUP_POINTS


@pytest.mark.parametrize("name", ["r", "tau(0.1)^2", "w_sigma(1.5)", "r/rho2(1/4,1/2)^2",
                                  "r/rho1(2)^2"])
def test_sup_bounds_a_files_weight_on_any_overlap(name):
    # a file's cells meet the annuli in arbitrary closed intervals, some with r = 1
    # inside and some a single radius
    w = _theorem_weights()[name]
    rng = np.random.default_rng(3)
    j = rng.integers(-6, 7, size=60)
    lo = np.ldexp(1.0, j - 1) * rng.uniform(1.0, 1.6, size=60)
    hi = np.minimum(lo * rng.uniform(1.0, 2.2, size=60), np.ldexp(1.0, j + 1))
    lo[:3], hi[:3] = [0.7, 0.9, 1.0], [1.3, 0.9, 1.5]
    bound, _ = weights._sup_bounds(w, w.breaks, lo, hi)
    _assert_bounds_the_sup(bound, w, lo, hi)


def test_sup_sees_a_bump_break_inside_a_piece():
    # r^a times a bump of radius 1.3 peaks inside (1, 1.3) for a > 7 and vanishes beyond:
    # without the break at 1.3 the annulus [1, 2] would read its end values, 0 at r = 2
    for a in (4.0, 10.0, 30.0):
        prof = Profile.of(1.0, ("r", None, a), ("bump", 1.3, 1.0))
        lo, hi = np.array([0.5, 1.0, 2.0]), np.array([1.0, 2.0, 4.0])
        bound, _ = weights._sup_bounds(prof, prof.breaks, lo, hi)
        _assert_bounds_the_sup(bound, prof, lo, hi)
        assert bound[2] == 0.0


def test_sup_takes_the_one_sided_derivative_at_a_break():
    # tau^2 |V| for dyadic-decay with c = 1 reads 4 at r = 1 and falls on [1, 2]; the log
    # factor's derivative just above r = 1 is -sigma, not 0
    V = PotentialSpec.preset("dyadic-decay", 3, 1, c=1.0, sigma=2.0)
    prof = V.profile * WeightSpec("tau", eps=0.25).profile ** 2
    bound, _ = weights._sup_bounds(prof, prof.breaks, np.array([1.0]), np.array([2.0]))
    assert bound[0] == 4.0
    # r^-+3/2 (1 + |ln r|)^2 peaks inside [1, 2] and [1/2, 1]; a derivative of 0 at r = 1
    # would make each piece look monotone
    for a, lo, hi in ((-1.5, 1.0, 2.0), (1.5, 0.5, 1.0)):
        prof = Profile.of(1.0, ("r", None, a), ("log", None, 2.0))
        bound, _ = weights._sup_bounds(prof, prof.breaks, np.array([lo]), np.array([hi]))
        _assert_bounds_the_sup(bound, prof, np.array([lo]), np.array([hi]))


def test_sup_budget_ends_splitting_with_a_valid_bound():
    # kept apart, r and r^-1 hide that their product is 1: no piece settles, and the budget
    # ends the splitting with bounds that are still upper bounds
    apart = Profile(1.0, (("r", None, 1.0), ("1+r^k", 1.0, 0.5), ("r", None, -1.0),
                          ("1+r^k", 1.0, -0.5)))
    js = np.arange(-240, 241)
    lo, hi = weights._annulus_bounds(js)
    bound, points = weights._sup_bounds(apart, apart.breaks, lo, hi)
    assert points <= 482 + weights._SUP_POINTS
    assert np.all(bound >= 1.0 - 1e-15) and np.all(np.isfinite(bound))
    merged, _ = weights._sup_bounds(apart * CONST, (), lo, hi)
    assert np.all(merged == 1.0)


def test_traced_profile_points_match_the_norms(tmp_path):
    # the benchmark tracer wraps the profile handed to dyadic_norm and counts its radii
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from spectralcert import enclosure
    tracer = tracing.Tracer()
    enclosure.rho_norms.cache_clear()
    tracing.install(tracer)
    try:
        V = PotentialSpec.preset("bump", 3, 1, c=0.5, R=1.3)
        rho = RHOS["rho2(1/4,1/2)"]
        results = [enclosure.n1_norm(V), enclosure.n2_norm(V, rho)[0], *enclosure.rho_norms(rho),
                   enclosure.potential_norm(V, p=2, q=2)]
    finally:
        tracer.uninstall()
        enclosure.rho_norms.cache_clear()
    assert tracer.counts["weights.profile_points"] == sum(r.profile_points for r in results)


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
        dyadic_norm(RADIUS, 3, np.inf, 3, breaks=())
    with pytest.raises(ValueError):
        dyadic_norm(RADIUS, 1, 1, 3, breaks=())


def test_q2_norms_import_no_module():
    # after the CLI's imports, a q = 2 norm loads no module: a lazy import would add its library
    # pages to the resident memory of the first job that makes one
    code = """
import sys
import numpy as np
import spectralcert.cli
from spectralcert.profiles import Profile
from spectralcert.weights import cell_dyadic_norm, dyadic_norm
before = set(sys.modules)
dyadic_norm(Profile.of(1.0, ("1+r^k", 1.0, -4.0)), 2, 2, 3, breaks=())
cell_dyadic_norm(np.ones(64), 3, 2.0, 4, 2, 2)
print(sorted(set(sys.modules) - before))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
