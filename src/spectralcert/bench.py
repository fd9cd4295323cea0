"""Empirical verification of the resolvent estimates on the periodic grid.

Each named estimate is evaluated on random band-limited test functions
localized away from the box boundary; the worst left/right ratio over all
trials is compared against the explicit analytic constant with 10% slack.
Estimates whose constant is only existential (the tau / w_sigma resolvent
bounds) run in report-only mode: the empirical sup ratio is recorded but no
pass/fail is declared.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .enclosure import c1_constant, c2_constant, c3_constant, kato_yajima_constant, rho_norms
from .gridops import (GridSpec, FieldOnGrid, apply_free_resolvent, apply_gradient, free_operator,
                      spinor_size)
from .weights import WeightSpec, grid_dyadic_norm, morrey_norms

REPORT_ONLY = ("L3.1-KG", "L3.2-D0", "L3.2-Dm")

ESTIMATE_IDS = ("L3.1-KG", "L3.2-D0", "L3.2-Dm",
                "L3.3-X", "L3.3-ReY", "L3.3-ImY",
                "C3.4-a", "C3.4-b", "C3.4-c",
                "C3.5-a", "C3.5-b", "C3.5-c", "C3.5-d",
                "L3.6-dyadic", "L3.6-weighted", "L3.6-hom", "KY")

_SCHRODINGER = ("L3.3-X", "L3.3-ReY", "L3.3-ImY", "C3.4-a", "C3.4-b", "C3.4-c",
                "C3.5-a", "C3.5-b", "C3.5-c", "C3.5-d", "KY")


@dataclass
class BenchReport:
    estimate: str
    trials: int
    discarded: int
    z_values: list
    max_ratio: float
    paper_constant: float  # None for report-only estimates
    slack: float
    passed: bool  # None for report-only estimates
    grid: GridSpec
    m: float
    meta: dict = field(default_factory=dict)


def default_rho() -> WeightSpec:
    return WeightSpec("rho2", eps=0.5, delta=0.5)


def random_band_limited_field(grid: GridSpec, rng) -> FieldOnGrid:
    """Random field, top third of frequencies zeroed, smooth cutoff in |x| <= L/2."""
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
    f = g.field(vals)
    nrm = f.l2_norm()
    if nrm == 0.0:
        raise RuntimeError("degenerate zero test function")
    return g.field(vals / nrm)


def default_z_arc(grid, kind, m, count=40, r_min=0.1, r_max=10.0, min_gap=1e-3):
    """Log-spaced arc over |z| in [r_min, r_max], arguments spread over
    (0, 2pi) minus small sectors around the positive real axis; points too
    close to the discrete symbol set are nudged upward off the axis."""
    op = free_operator(kind, m, grid)
    radii = np.geomspace(r_min, r_max, count)
    args = np.linspace(0.15, 2.0 * np.pi - 0.15, count)
    zs = []
    for r, a in zip(radii, args):
        z = r * np.exp(1j * a)
        bump = 0.0
        while op.gap(z) < min_gap and bump < 1.0:
            bump += 0.05
            z = r * np.exp(1j * a) + 1j * bump * np.sign(np.sin(a) if np.sin(a) != 0 else 1.0)
        zs.append(z)
    return zs


def _weighted_l2(f: FieldOnGrid, wvals):
    return float(np.sqrt(np.sum((wvals * np.linalg.norm(f.values, axis=-1)) ** 2)
                         * f.grid.cell_volume))


def _grad_field(u: FieldOnGrid) -> FieldOnGrid:
    """Gradient components stacked as an n-component field on the same lattice."""
    comps = apply_gradient(u)
    g = u.grid
    vals = np.concatenate([c.values for c in comps], axis=-1)
    vec_grid = GridSpec(n=g.n, L=g.L, M=g.M, N=g.n * g.N)
    return vec_grid.field(vals)


def _bracket(z, m):
    """1 + |(z+m)/(z-m)|^(sgn Re z / 2), with sgn(0) = +1."""
    s = 1.0 if z.real >= 0.0 else -1.0
    return 1.0 + (abs(z + m) / abs(z - m)) ** (s / 2.0)


class _Context:
    """Cached per-run quantities: weight samples and the constants built on them."""

    def __init__(self, grid, m):
        self.grid = grid
        self.m = m
        self.n = grid.n
        rho = default_rho()
        self.rho_vals = rho.radial(grid.radii)
        l2, half = rho_norms(rho)
        self.rho_l2 = l2.rigorous_upper()
        self.rho_half = half.rigorous_upper()
        r = grid.radii
        self.r = r
        self.tau = WeightSpec("tau", eps=0.1).radial(r)
        self.wsig = WeightSpec("w_sigma", sigma=2.0).radial(r)

    def constant(self, est):
        n = self.n
        table = {
            "L3.3-X": 288.0 * n,
            "L3.3-ReY": 576.0 * np.sqrt(2.0) * n ** 2,
            "L3.3-ImY": 864.0 * np.sqrt(2.0) * n,
            "C3.4-a": 576.0 * n,
            "C3.4-b": 576.0 * n * (64.0 * n + 324.0) ** 0.25,
            "C3.4-c": 576.0 * n,
            "C3.5-a": 576.0 * n * self.rho_l2 ** 2,
            "C3.5-b": 576.0 * n * (64.0 * n + 324.0) ** 0.25 * self.rho_l2 ** 2,
            "C3.5-c": 576.0 * n * self.rho_l2 ** 2,
            "C3.5-d": c3_constant(n, self.rho_l2, self.rho_half),
            "KY": kato_yajima_constant(n),
            "L3.6-dyadic": c2_constant(n),
            "L3.6-weighted": c2_constant(n) * self.rho_l2 ** 2,
            "L3.6-hom": c1_constant(n, self.m, self.rho_l2, self.rho_half),
        }
        return table.get(est)


def estimate_kind(est):
    if est in _SCHRODINGER:
        return "schrodinger"
    if est == "L3.1-KG":
        return "klein_gordon"
    return "dirac"


def _ratio(est, ctx, z, f: FieldOnGrid):
    """LHS / RHS of the named inequality with the analytic constant removed."""
    grid, m, rho = ctx.grid, ctx.m, ctx.rho_vals
    r = ctx.r
    kind = estimate_kind(est)
    u = apply_free_resolvent(kind, m, z, f)

    if est == "L3.3-X":
        X, _, _ = morrey_norms(u)
        _, Ygrad, _ = morrey_norms(_grad_field(u))
        lhs = np.sqrt(X ** 2 + Ygrad ** 2)
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "L3.3-ReY":
        _, Y, _ = morrey_norms(u)
        lhs = np.sqrt(abs(z.real)) * Y
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "L3.3-ImY":
        _, Y, _ = morrey_norms(u)
        lhs = np.sqrt(abs(z.imag)) * Y
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "C3.4-a":
        X, _, _ = morrey_norms(u)
        lhs = X
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "C3.4-b":
        lhs = np.sqrt(abs(z)) * grid_dyadic_norm(u, np.inf, 2, weight_exponent=-0.5)
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "C3.4-c":
        lhs = grid_dyadic_norm(_grad_field(u), np.inf, 2, weight_exponent=-0.5)
        rhs = grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "C3.5-a":
        lhs = _weighted_l2(u, r ** -1.5 * rho)
        rhs = _weighted_l2(f, r ** 0.5 / rho)
    elif est == "C3.5-b":
        lhs = np.sqrt(abs(z)) * _weighted_l2(u, r ** -0.5 * rho)
        rhs = _weighted_l2(f, r ** 0.5 / rho)
    elif est == "C3.5-c":
        lhs = _weighted_l2(_grad_field(u), r ** -0.5 * rho)
        rhs = _weighted_l2(f, r ** 0.5 / rho)
    elif est == "C3.5-d":
        lhs = (1.0 + abs(z) ** 2) ** 0.25 * _weighted_l2(u, r ** -0.5 * rho)
        rhs = _weighted_l2(f, r ** 0.5 / rho)
    elif est == "KY":
        lhs = _weighted_l2(u, 1.0 / r)
        rhs = _weighted_l2(f, r)
    elif est == "L3.6-dyadic":
        lhs = grid_dyadic_norm(u, np.inf, 2, weight_exponent=-0.5)
        rhs = _bracket(z, m) * grid_dyadic_norm(f, 1, 2, weight_exponent=0.5)
    elif est == "L3.6-weighted":
        lhs = _weighted_l2(u, r ** -0.5 * rho)
        rhs = _bracket(z, m) * _weighted_l2(f, r ** 0.5 / rho)
    elif est == "L3.6-hom":
        lhs = _weighted_l2(u, r ** -0.5 * rho)
        rhs = _weighted_l2(f, r ** 0.5 / rho)
    elif est == "L3.1-KG":
        lhs = _weighted_l2(u, 1.0 / ctx.tau)
        rhs = _weighted_l2(f, ctx.tau)
    elif est == "L3.2-D0":
        lhs = _weighted_l2(u, ctx.wsig ** -0.5)
        rhs = _weighted_l2(f, ctx.wsig ** 0.5)
    elif est == "L3.2-Dm":
        lhs = _weighted_l2(u, 1.0 / ctx.tau)
        rhs = _weighted_l2(f, ctx.tau)
    else:
        raise ValueError(f"unknown estimate id {est!r}")
    if rhs == 0.0:
        return None
    return lhs / rhs


def _estimate_setup(estimate, grid, m):
    """(grid, kind, mass, context) of one estimate: the box of ``grid`` with the
    kind's spinor size, and mass 0 for the massless Dirac estimate."""
    kind = estimate_kind(estimate)
    grid = replace(grid, N=spinor_size(kind, grid.n))
    mass = 0.0 if estimate == "L3.2-D0" else m
    return grid, kind, mass, _Context(grid, mass)


def run_bench(estimate, grid=None, m=1.0, trials=100, z_sampler=None,
              seed=0, slack=0.1) -> BenchReport:
    """Worst LHS/RHS ratio of one estimate over random trials.

    Needs a Dirac-compatible grid for the Dirac estimates (N = 2^ceil(n/2));
    scalar estimates use an N = 1 view of the same box.
    """
    if estimate not in ESTIMATE_IDS:
        raise ValueError(f"unknown estimate id {estimate!r}; known: {ESTIMATE_IDS}")
    if grid is None:
        grid = GridSpec(n=3, L=8.0, M=32, N=1)
    grid, kind, mass, ctx = _estimate_setup(estimate, grid, m)
    zs = z_sampler(grid) if callable(z_sampler) else \
        (list(z_sampler) if z_sampler is not None else default_z_arc(grid, kind, mass))
    rng = np.random.default_rng(seed)
    max_ratio, discarded, used = 0.0, 0, []
    for t in range(trials):
        f = random_band_limited_field(grid, rng)
        z = zs[t % len(zs)]
        try:
            ratio = _ratio(estimate, ctx, complex(z), f)
        except ValueError:
            discarded += 1
            continue
        if ratio is None or not np.isfinite(ratio):
            discarded += 1
            continue
        used.append(complex(z))
        max_ratio = max(max_ratio, ratio)
    const = ctx.constant(estimate)
    passed = None if const is None else bool(max_ratio <= const * (1.0 + slack))
    return BenchReport(estimate=estimate, trials=trials, discarded=discarded,
                       z_values=sorted(set(used), key=lambda w: (w.real, w.imag)),
                       max_ratio=max_ratio, paper_constant=const, slack=slack,
                       passed=passed, grid=grid, m=mass,
                       meta={"seed": seed})


def uniformity_probe(estimate, grid, m, z_path, trials_per_z=3, seed=0):
    """Ratio series along a path of z values; flags a growth trend > 2x.

    Returns (z_path, ratios, trend_flag): ratios[i] is the max ratio over the
    trials at z_path[i]; the flag compares the medians of the last and first
    quarters of the path.
    """
    grid, _, mass, ctx = _estimate_setup(estimate, grid, m)
    rng = np.random.default_rng(seed)
    fields = [random_band_limited_field(grid, rng) for _ in range(trials_per_z)]
    ratios = []
    for z in z_path:
        best = 0.0
        for f in fields:
            r = _ratio(estimate, ctx, complex(z), f)
            if r is not None and np.isfinite(r):
                best = max(best, r)
        ratios.append(best)
    ratios = np.array(ratios)
    q = max(len(ratios) // 4, 1)
    trend = bool(np.median(ratios[-q:]) > 2.0 * np.median(ratios[:q]) > 0.0)
    return list(z_path), ratios, trend
