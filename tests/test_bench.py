import numpy as np
import pytest

from spectralcert import bench
from spectralcert.bench import (ESTIMATE_IDS, REPORT_ONLY, run_bench, random_band_limited_field,
                                default_z_arc, _bracket)
from spectralcert.gridops import GridSpec

FAST_GRID = GridSpec(n=3, L=8.0, M=16, N=1)


def test_estimate_catalogue():
    assert len(ESTIMATE_IDS) == 17
    for est in REPORT_ONLY:
        assert est in ESTIMATE_IDS
    assert bench._ESTIMATES["KY"].kind == "schrodinger"
    assert bench._ESTIMATES["L3.1-KG"].kind == "klein_gordon"
    assert bench._ESTIMATES["L3.6-dyadic"].kind == "dirac"


def test_band_limited_field_properties():
    rng = np.random.default_rng(0)
    f = random_band_limited_field(FAST_GRID, rng)
    l2 = np.sqrt(np.sum(np.abs(f.values) ** 2) * FAST_GRID.cell_volume)
    assert l2 == pytest.approx(1.0, rel=1e-12)
    # supported strictly inside |x| < L/2
    outside = FAST_GRID.radii >= FAST_GRID.L / 2.0
    assert np.abs(f.values[outside]).max() == 0.0


def test_default_z_arc_avoids_symbol_set():
    zs = default_z_arc(FAST_GRID, "schrodinger", 0.0, count=20)
    assert len(zs) == 20
    for z in zs:
        gap = np.abs(FAST_GRID.freq_sq - z).min()
        assert gap > 1e-3


def test_bracket_factor():
    assert _bracket(2.0 + 0.0j, 1.0) == pytest.approx(1.0 + 3.0 ** 0.5)
    # sgn(Re z) = -1 flips the exponent: (1/3)^(-1/2) = sqrt(3)
    assert _bracket(-2.0 + 0.0j, 1.0) == pytest.approx(1.0 + 3.0 ** 0.5)
    assert _bracket(0.0 + 1.0j, 1.0) == pytest.approx(2.0)  # |z+m|=|z-m|, sgn(0)=+1


@pytest.mark.parametrize("est", ["KY", "C3.4-a", "L3.6-dyadic"])
def test_bench_fast_estimates_pass(est):
    rep = run_bench(est, grid=FAST_GRID, m=1.0, trials=10, seed=0)
    assert rep.passed is True
    assert rep.max_ratio <= rep.paper_constant * (1.0 + rep.slack)
    assert rep.discarded < rep.trials
    assert rep.max_ratio > 0.0


def test_bench_report_only_mode():
    rep = run_bench("L3.1-KG", grid=FAST_GRID, m=1.0, trials=5, seed=0)
    assert rep.paper_constant is None
    assert rep.passed is None
    assert rep.max_ratio > 0.0


def test_bench_massless_estimate_uses_zero_mass():
    rep = run_bench("L3.2-D0", grid=FAST_GRID, m=1.0, trials=3, seed=0)
    assert rep.m == 0.0
    assert rep.grid.N == 4  # forced to the spinor size


def test_bench_deterministic():
    a = run_bench("KY", grid=FAST_GRID, trials=5, seed=3)
    b = run_bench("KY", grid=FAST_GRID, trials=5, seed=3)
    assert a.max_ratio == b.max_ratio


def test_bench_unknown_estimate():
    with pytest.raises(ValueError):
        run_bench("nope", grid=FAST_GRID)


PINNED_GRID = GridSpec(n=3, L=8.0, M=8)

# (estimate, max_ratio, discarded, passed, paper_constant, m, grid.N) of
# run_bench(est, PINNED_GRID, m=1.0, trials=6, seed=3), recorded before the
# estimate catalogue became one table
PINNED = [
    ("L3.1-KG", 0.08353942446488141, 0, None, None, 1.0, 1),
    ("L3.2-D0", 0.20200089271409596, 0, None, None, 0.0, 4),
    ("L3.2-Dm", 0.06979317346467571, 0, None, None, 1.0, 4),
    ("L3.3-X", 1.1307881673131155, 0, True, 864.0, 1.0, 1),
    ("L3.3-ReY", 0.34750084935831527, 0, True, 7331.283107342126, 1.0, 1),
    ("L3.3-ImY", 0.25020418755719376, 0, True, 3665.641553671063, 1.0, 1),
    ("C3.4-a", 1.02842661880643, 0, True, 1728.0, 1.0, 1),
    ("C3.4-b", 0.3494684655861301, 0, True, 8235.807054084276, 1.0, 1),
    ("C3.4-c", 0.4020277090737076, 0, True, 1728.0, 1.0, 1),
    ("C3.5-a", 0.19014855750789628, 0, True, 2924.9770301673557, 1.0, 1),
    ("C3.5-b", 0.12329184228448374, 0, True, 13940.709755837259, 1.0, 1),
    ("C3.5-c", 0.16908637773613383, 0, True, 2924.9770301673557, 1.0, 1),
    ("C3.5-d", 0.39085411215631544, 0, True, 13941.963069974574, 1.0, 1),
    ("L3.6-dyadic", 0.1298088736927839, 0, True, 8235.807054084276, 1.0, 4),
    ("L3.6-weighted", 0.03952447853467385, 0, True, 13940.709755837259, 1.0, 4),
    ("L3.6-hom", 0.08381198025323838, 0, True, 46892.098037145515, 1.0, 4),
    ("KY", 0.8831540970065643, 0, True, 1.2533141373155001, 1.0, 1),
]


def test_pinned_table_covers_every_estimate():
    assert tuple(row[0] for row in PINNED) == ESTIMATE_IDS


@pytest.mark.parametrize("est,max_ratio,discarded,passed,constant,m,N", PINNED,
                         ids=[row[0] for row in PINNED])
def test_bench_pinned_values(est, max_ratio, discarded, passed, constant, m, N):
    rep = run_bench(est, grid=PINNED_GRID, m=1.0, trials=6, seed=3)
    assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-12)
    assert rep.discarded == discarded
    assert rep.passed is passed
    if constant is None:
        assert rep.paper_constant is None
    else:
        assert rep.paper_constant == pytest.approx(constant, rel=1e-12)
    assert rep.m == m
    assert rep.grid.N == N
