import numpy as np
import pytest

from spectralcert import bench
from spectralcert.bench import ESTIMATE_IDS, REPORT_ONLY, Z_ARC, run_bench, _bracket, _Context
from spectralcert.gridops import FreeOperator, GridSpec, spinor_size

FAST_GRID = GridSpec(n=3, L=8.0, M=16, N=1)


def _reference_field(grid, rng):
    """The test field as each trial once built it, masks and cutoff included."""
    g = grid
    shape = (g.M,) * g.n + (g.N,)
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    k = np.fft.fftfreq(g.M, d=1.0 / g.M)
    for d in range(g.n):
        sl = [None] * (g.n + 1)
        sl[d] = slice(None)
        spec = np.where(np.abs(k)[tuple(sl)] > g.M / 3.0, 0.0, spec)
    vals = np.fft.ifftn(spec, axes=tuple(range(g.n))).reshape(g.M ** g.n, g.N)
    r = g.radii
    cut = np.zeros_like(r)
    inside = r < g.L / 2.0
    s = (2.0 * r[inside] / g.L) ** 2
    cut[inside] = np.exp(1.0 - 1.0 / (1.0 - s))
    vals = vals * cut[:, None]
    return vals / np.sqrt(np.sum(np.abs(vals) ** 2) * g.cell_volume)


def test_estimate_catalogue():
    assert len(ESTIMATE_IDS) == 17
    for est in REPORT_ONLY:
        assert est in ESTIMATE_IDS
    assert bench._ESTIMATES["KY"].kind == "schrodinger"
    assert bench._ESTIMATES["L3.1-KG"].kind == "klein_gordon"
    assert bench._ESTIMATES["L3.6-dyadic"].kind == "dirac"


def test_band_limited_field_properties():
    rng = np.random.default_rng(0)
    f = _Context(FAST_GRID, 1.0).test_field(rng)
    l2 = np.sqrt(np.sum(np.abs(f.values) ** 2) * FAST_GRID.cell_volume)
    assert l2 == pytest.approx(1.0, rel=1e-12)
    # supported strictly inside |x| < L/2
    outside = FAST_GRID.radii >= FAST_GRID.L / 2.0
    assert np.abs(f.values[outside]).max() == 0.0


@pytest.mark.parametrize("grid", [FAST_GRID, GridSpec(n=3, L=3.0, M=6, N=4),
                                  GridSpec(n=2, L=4.0, M=10, N=2)], ids=str)
def test_field_matches_the_per_trial_construction(grid):
    ctx = _Context(grid, 1.0)
    for seed in (0, 3, 17):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert np.array_equal(ctx.test_field(new).values, _reference_field(grid, old))


def test_z_arc_is_the_old_arc():
    radii = np.geomspace(0.1, 10.0, 40)
    args = np.linspace(0.15, 2.0 * np.pi - 0.15, 40)
    old = np.array([r * np.exp(1j * a) for r, a in zip(radii, args)])
    assert Z_ARC.shape == (40,)
    assert np.array_equal(Z_ARC, old)


def test_z_arc_avoids_symbol_set():
    # the denominator is a real symbol minus z (z^2 for Dirac): at least
    # |Im z| >= 0.0149 (|Im z^2| >= 0.00295) from 0 on every arc point
    for kind in ("schrodinger", "klein_gordon", "dirac"):
        for L in (3.0, 8.0):
            for M in (4, 8, 16):
                for m in (0.0, 0.5, 1.0, 2.0):
                    op = FreeOperator(kind, m, GridSpec(n=3, L=L, M=M, N=spinor_size(kind, 3)))
                    assert min(op.gap(z) for z in Z_ARC) >= 2.9e-3, (kind, L, M, m)


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


def test_bench_raises_on_a_trial_it_cannot_evaluate():
    # every trial is evaluated: a NaN mass (which only the library API can pass) makes every
    # resolvent non-finite, and the run fails instead of passing with no trial counted
    with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
        run_bench("L3.6-dyadic", GridSpec(3, 8.0, 8), m=float("nan"), trials=5)


PINNED_GRID = GridSpec(n=3, L=8.0, M=8)

# (estimate, max_ratio, discarded, passed, paper_constant, m, grid.N) of
# run_bench(est, PINNED_GRID, m=1.0, trials=6, seed=3), recorded before the
# estimate catalogue became one table; the constants that read rho's dyadic norms
# (C3.5, L3.6-weighted, L3.6-hom) re-recorded, 2.1e-10 higher, when those norms'
# sups became upper bounds on the closed annuli
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
    ("C3.5-a", 0.19014855750789628, 0, True, 2924.977030777913, 1.0, 1),
    ("C3.5-b", 0.12329184228448374, 0, True, 13940.709758747234, 1.0, 1),
    ("C3.5-c", 0.16908637773613383, 0, True, 2924.977030777913, 1.0, 1),
    ("C3.5-d", 0.39085411215631544, 0, True, 13941.96307288455, 1.0, 1),
    ("L3.6-dyadic", 0.1298088736927839, 0, True, 8235.807054084276, 1.0, 4),
    ("L3.6-weighted", 0.03952447853467385, 0, True, 13940.709758747234, 1.0, 4),
    ("L3.6-hom", 0.08381198025323838, 0, True, 46892.09804693295, 1.0, 4),
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
