"""Empirical verification of the resolvent estimates on the periodic grid.

Each named estimate is evaluated on random band-limited test functions
localized away from the box boundary; the worst left/right ratio over all
trials is compared against the explicit analytic constant with 10% slack.
Estimates whose constant is only existential (the tau / w_sigma resolvent
bounds) run in report-only mode: the empirical sup ratio is recorded but no
pass/fail is declared.

``_ESTIMATES`` is the single place where an estimate is declared: its
operator kind, its mass rule, its two sides and its constant.
``ESTIMATE_IDS`` and ``REPORT_ONLY`` are read from it.
"""

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .enclosure import (DEFAULT_RHO, c1_constant, c2_constant, c3_constant, kato_yajima_constant,
                        rho_norms)
from .gridops import (GridSpec, FieldOnGrid, apply_free_resolvent, apply_gradient, free_operator,
                      spinor_size)
from .weights import WeightSpec, grid_dyadic_norm, morrey_norms

SLACK = 0.1  # relative margin over the analytic constant before a ratio fails


@dataclass
class BenchReport:
    estimate: str
    trials: int
    discarded: int
    max_ratio: float
    paper_constant: float  # None for report-only estimates
    slack: float
    passed: bool  # None for report-only estimates
    grid: GridSpec
    m: float


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
    nrm = np.sqrt(np.sum(np.abs(vals) ** 2) * g.cell_volume)
    if nrm == 0.0:
        raise RuntimeError("degenerate zero test function")
    return g.field(vals / nrm)


def default_z_arc(grid, kind, m, count=40):
    """Log-spaced arc over |z| in [0.1, 10], arguments spread over (0, 2pi)
    minus small sectors around the positive real axis; points whose gap to
    the discrete symbol set is below 1e-3 are nudged upward off the axis."""
    op = free_operator(kind, m, grid)
    radii = np.geomspace(0.1, 10.0, count)
    args = np.linspace(0.15, 2.0 * np.pi - 0.15, count)
    zs = []
    for r, a in zip(radii, args):
        z = r * np.exp(1j * a)
        bump = 0.0
        while op.gap(z) < 1e-3 and bump < 1.0:
            bump += 0.05
            z = r * np.exp(1j * a) + 1j * bump * np.sign(np.sin(a) if np.sin(a) != 0 else 1.0)
        zs.append(z)
    return zs


def _mag(u: FieldOnGrid):
    """|u| at every site."""
    return np.linalg.norm(u.values, axis=-1)


def _grad_mag(u: FieldOnGrid):
    """|grad u| at every site: the magnitude of all n N gradient components."""
    return np.linalg.norm(apply_gradient(u), axis=-1)


def _weighted_l2(ctx, mag, wvals):
    return float(np.sqrt(np.sum((wvals * mag) ** 2) * ctx.grid.cell_volume))


def _bracket(z, m):
    """1 + |(z+m)/(z-m)|^(sgn Re z / 2), with sgn(0) = +1."""
    s = 1.0 if z.real >= 0.0 else -1.0
    return 1.0 + (abs(z + m) / abs(z - m)) ** (s / 2.0)


class _Context:
    """Cached per-run quantities: the grid that every test field and its resolvent
    live on, weight samples there, and the weight norms in the constants."""

    def __init__(self, grid, m):
        self.m = m
        self.n = grid.n
        self.grid = grid
        self.r = r = grid.radii
        self.rho_vals = DEFAULT_RHO.radial(r)
        l2, half = rho_norms(DEFAULT_RHO)
        self.rho_l2 = l2.rigorous_upper()
        self.rho_half = half.rigorous_upper()
        self.tau = WeightSpec("tau", eps=0.1).radial(r)
        self.wsig = WeightSpec("w_sigma", sigma=2.0).radial(r)


class _Estimate(NamedTuple):
    """``lhs(ctx, z, R0(z) f) <= constant(ctx) * rhs(ctx, z, f)``, R0 of ``kind`` at ``ctx.m``."""

    kind: str
    lhs: Callable
    rhs: Callable
    constant: Callable = None  # None: report-only
    massless: bool = False  # runs at m = 0 whatever mass is asked for


def _dyadic_lhs(ctx, mag):
    return grid_dyadic_norm(ctx.grid, mag, np.inf, 2, weight_exponent=-0.5)


def _dyadic_rhs(ctx, z, f):
    return grid_dyadic_norm(ctx.grid, _mag(f), 1, 2, weight_exponent=0.5)


def _rho_lhs(ctx, mag, power=-0.5):
    return _weighted_l2(ctx, mag, ctx.r ** power * ctx.rho_vals)


def _rho_rhs(ctx, z, f):
    return _weighted_l2(ctx, _mag(f), ctx.r ** 0.5 / ctx.rho_vals)


_ESTIMATES = {
    "L3.1-KG": _Estimate("klein_gordon", lambda c, z, u: _weighted_l2(c, _mag(u), 1.0 / c.tau),
                         lambda c, z, f: _weighted_l2(c, _mag(f), c.tau)),
    "L3.2-D0": _Estimate("dirac", lambda c, z, u: _weighted_l2(c, _mag(u), c.wsig ** -0.5),
                         lambda c, z, f: _weighted_l2(c, _mag(f), c.wsig ** 0.5), massless=True),
    "L3.2-Dm": _Estimate("dirac", lambda c, z, u: _weighted_l2(c, _mag(u), 1.0 / c.tau),
                         lambda c, z, f: _weighted_l2(c, _mag(f), c.tau)),
    "L3.3-X": _Estimate("schrodinger",
                        lambda c, z, u: np.sqrt(morrey_norms(c.grid, _mag(u))[0] ** 2
                                                + morrey_norms(c.grid, _grad_mag(u))[1] ** 2),
                        _dyadic_rhs, lambda c: 288.0 * c.n),
    "L3.3-ReY": _Estimate("schrodinger",
                          lambda c, z, u: np.sqrt(abs(z.real)) * morrey_norms(c.grid, _mag(u))[1],
                          _dyadic_rhs, lambda c: 576.0 * np.sqrt(2.0) * c.n ** 2),
    "L3.3-ImY": _Estimate("schrodinger",
                          lambda c, z, u: np.sqrt(abs(z.imag)) * morrey_norms(c.grid, _mag(u))[1],
                          _dyadic_rhs, lambda c: 864.0 * np.sqrt(2.0) * c.n),
    "C3.4-a": _Estimate("schrodinger", lambda c, z, u: morrey_norms(c.grid, _mag(u))[0],
                        _dyadic_rhs, lambda c: 576.0 * c.n),
    "C3.4-b": _Estimate("schrodinger", lambda c, z, u: np.sqrt(abs(z)) * _dyadic_lhs(c, _mag(u)),
                        _dyadic_rhs, lambda c: 576.0 * c.n * (64.0 * c.n + 324.0) ** 0.25),
    "C3.4-c": _Estimate("schrodinger", lambda c, z, u: _dyadic_lhs(c, _grad_mag(u)),
                        _dyadic_rhs, lambda c: 576.0 * c.n),
    "C3.5-a": _Estimate("schrodinger", lambda c, z, u: _rho_lhs(c, _mag(u), -1.5), _rho_rhs,
                        lambda c: 576.0 * c.n * c.rho_l2 ** 2),
    "C3.5-b": _Estimate("schrodinger", lambda c, z, u: np.sqrt(abs(z)) * _rho_lhs(c, _mag(u)),
                        _rho_rhs,
                        lambda c: 576.0 * c.n * (64.0 * c.n + 324.0) ** 0.25 * c.rho_l2 ** 2),
    "C3.5-c": _Estimate("schrodinger", lambda c, z, u: _rho_lhs(c, _grad_mag(u)), _rho_rhs,
                        lambda c: 576.0 * c.n * c.rho_l2 ** 2),
    "C3.5-d": _Estimate("schrodinger",
                        lambda c, z, u: (1.0 + abs(z) ** 2) ** 0.25 * _rho_lhs(c, _mag(u)),
                        _rho_rhs, lambda c: c3_constant(c.n, c.rho_l2, c.rho_half)),
    "L3.6-dyadic": _Estimate("dirac", lambda c, z, u: _dyadic_lhs(c, _mag(u)),
                             lambda c, z, f: _bracket(z, c.m) * _dyadic_rhs(c, z, f),
                             lambda c: c2_constant(c.n)),
    "L3.6-weighted": _Estimate("dirac", lambda c, z, u: _rho_lhs(c, _mag(u)),
                               lambda c, z, f: _bracket(z, c.m) * _rho_rhs(c, z, f),
                               lambda c: c2_constant(c.n) * c.rho_l2 ** 2),
    "L3.6-hom": _Estimate("dirac", lambda c, z, u: _rho_lhs(c, _mag(u)), _rho_rhs,
                          lambda c: c1_constant(c.n, c.m, c.rho_l2, c.rho_half)),
    "KY": _Estimate("schrodinger", lambda c, z, u: _weighted_l2(c, _mag(u), 1.0 / c.r),
                    lambda c, z, f: _weighted_l2(c, _mag(f), c.r),
                    lambda c: kato_yajima_constant(c.n)),
}

ESTIMATE_IDS = tuple(_ESTIMATES)
REPORT_ONLY = tuple(est for est, spec in _ESTIMATES.items() if spec.constant is None)


def _ratio(spec, ctx, z, f: FieldOnGrid):
    """LHS / RHS of one inequality with the analytic constant removed."""
    u = apply_free_resolvent(spec.kind, ctx.m, z, f)
    lhs = spec.lhs(ctx, z, u)
    rhs = spec.rhs(ctx, z, f)
    if rhs == 0.0:
        return None
    return lhs / rhs


def run_bench(estimate, grid, m=1.0, trials=100, seed=0) -> BenchReport:
    """Worst LHS/RHS ratio of one estimate over random trials on ``default_z_arc``.

    The trials run on the box of ``grid`` with the kind's spinor size, at mass 0
    for a massless estimate.
    """
    if estimate not in _ESTIMATES:
        raise ValueError(f"unknown estimate id {estimate!r}; known: {ESTIMATE_IDS}")
    spec = _ESTIMATES[estimate]
    grid = replace(grid, N=spinor_size(spec.kind, grid.n))
    ctx = _Context(grid, 0.0 if spec.massless else m)
    zs = default_z_arc(grid, spec.kind, ctx.m)
    rng = np.random.default_rng(seed)
    max_ratio, discarded = 0.0, 0
    for t in range(trials):
        f = random_band_limited_field(grid, rng)
        z = zs[t % len(zs)]
        try:
            ratio = _ratio(spec, ctx, complex(z), f)
        except ValueError:
            ratio = None
        if ratio is None or not np.isfinite(ratio):
            discarded += 1
            continue
        max_ratio = max(max_ratio, ratio)
    const = None if spec.constant is None else spec.constant(ctx)
    passed = None if const is None else bool(max_ratio <= const * (1.0 + SLACK))
    return BenchReport(estimate=estimate, trials=trials, discarded=discarded,
                       max_ratio=max_ratio, paper_constant=const, slack=SLACK,
                       passed=passed, grid=grid, m=ctx.m)

