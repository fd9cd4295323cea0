"""Empirical verification of the resolvent estimates on the periodic grid.

Each named estimate is evaluated on random band-limited test functions
localized away from the box boundary, trial t at ``Z_ARC[t % 40]``; the
worst left/right ratio over all trials is compared against the explicit
analytic constant with 10% slack.  A run's ``_Context`` holds what no trial
changes: the grid, the test fields' mask and cutoff, the weight samples.
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
from .gridops import GridSpec, FieldOnGrid, apply_free_resolvent, apply_gradient, spinor_size
from .weights import WeightSpec, grid_dyadic_norm, morrey_norms

SLACK = 0.1  # relative margin over the analytic constant before a ratio fails


@dataclass
class BenchReport:
    """One estimate's run: the worst ratio over ``trials`` evaluated trials."""

    estimate: str
    trials: int
    discarded: int  # always 0: every trial is evaluated; kept as a field the reports carry
    max_ratio: float
    paper_constant: float  # None for report-only estimates
    slack: float
    passed: bool  # None for report-only estimates
    grid: GridSpec
    m: float


# The arc every trial's z is drawn from: |z| log-spaced over [0.1, 10], arguments
# spread over (0, 2 pi) minus small sectors around the positive real axis.  Each
# kind's resolvent denominator is a real symbol minus z (z^2 for Dirac), so its
# modulus is at least |Im z| >= 0.0149 (|Im z^2| >= 0.00295) at every point, on
# every grid and at every mass.
Z_ARC = np.geomspace(0.1, 10.0, 40) * np.exp(1j * np.linspace(0.15, 2.0 * np.pi - 0.15, 40))


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
    live on, the test fields' band-limit mask and radial cutoff, weight samples
    there, and the weight norms in the constants."""

    def __init__(self, grid, m):
        self.m = m
        self.n = grid.n
        self.grid = grid
        self.r = r = grid.radii
        high = np.abs(np.fft.fftfreq(grid.M, d=1.0 / grid.M)) > grid.M / 3.0
        self.outside_band = np.any(np.meshgrid(*[high] * grid.n, indexing="ij"), axis=0)
        self.cut = np.zeros_like(r)
        inside = r < grid.L / 2.0
        s = (2.0 * r[inside] / grid.L) ** 2
        self.cut[inside] = np.exp(1.0 - 1.0 / (1.0 - s))
        self.rho_vals = DEFAULT_RHO.radial(r)
        l2, half = rho_norms(DEFAULT_RHO)
        self.rho_l2 = l2.rigorous_upper()
        self.rho_half = half.rigorous_upper()
        self.tau = WeightSpec("tau", eps=0.1).radial(r)
        self.wsig = WeightSpec("w_sigma", sigma=2.0).radial(r)

    def test_field(self, rng) -> FieldOnGrid:
        """Random field of unit L^2 norm: its top third of frequencies zeroed on
        each axis, then times the smooth cutoff in |x| <= L/2."""
        g = self.grid
        shape = (g.M,) * g.n + (g.N,)
        spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        spec[self.outside_band] = 0.0
        vals = np.fft.ifftn(spec, axes=tuple(range(g.n))).reshape(g.M ** g.n, g.N)
        vals = vals * self.cut[:, None]
        nrm = np.sqrt(np.sum(np.abs(vals) ** 2) * g.cell_volume)
        if nrm == 0.0:
            raise RuntimeError("degenerate zero test function")
        return g.field(vals / nrm)


class _Estimate(NamedTuple):
    """``lhs(ctx, z, R0(z) f) <= constant(ctx) * rhs(ctx, z, f)``, R0 of ``kind`` at ``ctx.m``."""

    kind: str
    lhs: Callable
    rhs: Callable
    constant: Callable = None  # None: report-only
    massless: bool = False  # runs at m = 0 whatever mass is asked for


def _dyadic_lhs(ctx, mag):
    return grid_dyadic_norm(ctx.grid, mag, np.inf, -0.5)


def _dyadic_rhs(ctx, z, f):
    return grid_dyadic_norm(ctx.grid, _mag(f), 1, 0.5)


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


def run_bench(estimate, grid, m=1.0, trials=100, seed=0) -> BenchReport:
    """Worst LHS/RHS ratio of one estimate over random trials, trial t at ``Z_ARC[t % 40]``.

    The trials run on the box of ``grid`` with the kind's spinor size, at mass 0
    for a massless estimate.  Every trial is evaluated: one that cannot be (a
    non-finite field, z on the symbol set) raises ValueError.
    """
    if estimate not in _ESTIMATES:
        raise ValueError(f"unknown estimate id {estimate!r}; known: {ESTIMATE_IDS}")
    spec = _ESTIMATES[estimate]
    grid = replace(grid, N=spinor_size(spec.kind, grid.n))
    ctx = _Context(grid, 0.0 if spec.massless else m)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for t in range(trials):
        f = ctx.test_field(rng)
        z = complex(Z_ARC[t % len(Z_ARC)])
        u = apply_free_resolvent(spec.kind, ctx.m, z, f)
        max_ratio = max(max_ratio, spec.lhs(ctx, z, u) / spec.rhs(ctx, z, f))
    const = None if spec.constant is None else spec.constant(ctx)
    passed = None if const is None else bool(max_ratio <= const * (1.0 + SLACK))
    return BenchReport(estimate=estimate, trials=trials, discarded=0,
                       max_ratio=max_ratio, paper_constant=const, slack=SLACK,
                       passed=passed, grid=grid, m=ctx.m)

