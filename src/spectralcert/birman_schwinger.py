"""The Birman-Schwinger operator K_z = A (H_0 - z)^{-1} B* on the grid.

V = B* A with the pointwise polar factors of :func:`polar_factors`.  On the
finite-dimensional discretization every factor is bounded, so K_z is one
composition on flat (D,) vectors; only the resolvent step takes a
:class:`FieldOnGrid`.  H_0 is self-adjoint, so K_z* = B R_0(z.conjugate()) A*
is the same composition with the factors swapped.  The operator norm comes
from Golub-Kahan-Lanczos bidiagonalization of K_z from one seeded start
vector, with full reorthogonalization, as a :class:`NormEstimate`.  It stops
on a residual bound: the top Ritz value theta is a lower bound on ||K_z||,
and some singular value of K_z lies within the residual r of theta.  No gap
term is used, because the top singular value of the Dirac K_z is doubly
degenerate.  Scans evaluate the norm on a lattice of z values over a
rectangle, record each point's r / theta and bs_apply count, and record the
bounding box of the points where the norm reaches 1.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridops import (EXCLUSION_MARGIN, GridSpec, apply_free_resolvent, free_operator,
                      potential_on_grid)
from .potential import PotentialSpec, polar_factors


def factor_on_grid(V: PotentialSpec, grid: GridSpec):
    """Pointwise polar factors (A, B) of V at every grid sample."""
    return polar_factors(potential_on_grid(V, grid))


def bs_apply(kind, m, z, factors, grid: GridSpec, v):
    """K_z v = A R_0(z) B* v on flat (D,) vectors, with (A, B) = ``factors``, the pair from
    :func:`factor_on_grid`.  ``bs_apply(kind, m, z.conjugate(), factors[::-1], grid, v)`` is
    K_z* v = B R_0(z)* A* v."""
    A, B = factors
    g = grid.field(np.einsum("pba,pb->pa", np.conj(B), v.reshape(-1, grid.N)))
    g = apply_free_resolvent(kind, m, z, g)
    return np.einsum("pab,pb->pa", A, g.values).ravel()


SCAN_TOL = 1e-4  # relative residual bound r / theta at which bs_norm stops
MAX_STEPS = 64  # Lanczos steps (two bs_apply calls each) before bs_norm gives up
_BREAKDOWN = 1e-13  # alpha or beta at most this times theta: the Krylov space is invariant


class NormEstimate(NamedTuple):
    """One Golub-Kahan-Lanczos estimate of ||K_z||."""

    value: float     # theta: largest singular value of the bidiagonal, a lower bound on ||K_z||
    residual: float  # r / theta: some singular value of K_z lies in value * (1 +- residual)
    applies: int     # bs_apply calls made


def _reorthogonalize(basis, w):
    """Project the orthonormal rows of ``basis`` out of w: classical Gram-Schmidt, twice."""
    for _ in range(2):
        w = w - (basis @ w.conj()).conj() @ basis  # conjugate w, not the (k, D) basis
    return w


def bs_norm(kind, m, z, factors, grid: GridSpec, seed=0) -> NormEstimate:
    """Largest singular value of K_z by Golub-Kahan-Lanczos bidiagonalization.

    Step k extends K V_k = U_k B_k and K* U_k = V_k B_k* + beta_k v_{k+1} e_k^T
    from one seeded start vector, B_k upper bidiagonal with diagonal alpha and
    superdiagonal beta, fully reorthogonalized.  With B_k = P diag(s) Q*, the
    top Ritz triplet (theta = s_1, U_k p_1, V_k q_1) has residual
    r = beta_k |e_k^T p_1|.  Stops when r is at most SCAN_TOL times theta, or
    when the Krylov space becomes invariant (then theta is exact; ``K_z = 0``
    gives 0.0).  theta never exceeds ||K_z||, and some singular value of K_z
    lies in [theta - r, theta + r].  Takes at most MAX_STEPS steps, capped at
    ``grid.size``; both constants are read at call time.  Raises RuntimeError
    on non-convergence with the last Ritz values and relative residuals attached.
    """
    D = grid.size
    steps = min(MAX_STEPS, D)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    v /= np.linalg.norm(v)
    U = np.empty((steps, D), dtype=complex)
    V = np.empty((steps, D), dtype=complex)
    B = np.zeros((steps, steps))
    theta, history = 0.0, []
    for k in range(steps):
        V[k] = v
        u = bs_apply(kind, m, z, factors, grid, v)
        if k:
            u = u - B[k - 1, k] * U[k - 1]
        u = _reorthogonalize(U[:k], u)
        alpha = float(np.linalg.norm(u))
        if alpha <= _BREAKDOWN * theta:
            # K V_{k+1} lies in span U_k: the singular values of B_k are exact
            s = np.linalg.svd(B[:k + 1, :k + 1], compute_uv=False)
            return NormEstimate(float(s[0]), 0.0, 2 * k + 1)
        B[k, k] = alpha
        U[k] = u / alpha
        w = bs_apply(kind, m, z.conjugate(), factors[::-1], grid, U[k])  # K_z* U[k]
        w = _reorthogonalize(V[:k + 1], w - alpha * v)
        beta = float(np.linalg.norm(w))
        P, s, _ = np.linalg.svd(B[:k + 1, :k + 1])
        theta = float(s[0])
        residual = beta * float(abs(P[k, 0]))
        history.append((theta, residual / theta))
        if residual <= SCAN_TOL * theta or beta <= _BREAKDOWN * theta:
            return NormEstimate(theta, residual / theta, 2 * k + 2)
        if k + 1 < steps:
            B[k, k + 1] = beta
            v = w / beta
    raise RuntimeError(f"Golub-Kahan-Lanczos did not reach residual {SCAN_TOL} * theta in {steps} "
                       f"steps; last (theta, r/theta) {history[-5:]}")


def bs_dense(kind, m, z, factors, grid: GridSpec):
    """Dense matrix of K_z: A, then the gathered resolvent kernel, then B* (pointwise)."""
    A, B = factors
    op = free_operator(kind, m, grid)
    R = op.gather(op.windows(op.resolvent_block(z))).reshape(len(A), grid.N, len(B), grid.N)
    K = np.einsum("iac,icjd,jbd->iajb", A, R, np.conj(B), optimize=True)
    return K.reshape(grid.size, grid.size)


SCAN_CSV_HEADER = ("re_z", "im_z", "norm_estimate", "excluded_flag", "residual_bound", "applies")


@dataclass
class BSScan:
    """Norm estimates of K_z over a rectangle lattice in the complex plane."""

    re: np.ndarray            # (n_re,)
    im: np.ndarray            # (n_im,)
    values: np.ndarray        # (n_im, n_re), nan at excluded points
    excluded: np.ndarray      # bool mask, same shape
    residuals: np.ndarray     # r / theta of each estimate, nan at excluded points
    applies: np.ndarray       # bs_apply calls of each estimate, 0 at excluded points

    def z_lattice(self):
        R, I = np.meshgrid(self.re, self.im)
        return R + 1j * I

    def region_bounding_box(self):
        """(re_min, re_max, im_min, im_max) of the evaluated points with norm estimate >= 1."""
        with np.errstate(invalid="ignore"):
            z = self.z_lattice()[~self.excluded & (self.values >= 1.0)]
        if not z.size:
            return None
        return (float(z.real.min()), float(z.real.max()),
                float(z.imag.min()), float(z.imag.max()))

    def csv_rows(self):
        """One row per lattice point, in SCAN_CSV_HEADER order."""
        return [(zi.real, zi.imag, vi, int(ei), ri, int(ai)) for zi, vi, ei, ri, ai in
                zip(self.z_lattice().ravel(), self.values.ravel(), self.excluded.ravel(),
                    self.residuals.ravel(), self.applies.ravel())]


def bs_scan(kind, m, V: PotentialSpec, grid: GridSpec, rectangle, resolution,
            seed=0) -> BSScan:
    """Per-z norm of K_z on a lattice over rectangle = (re_min, re_max, im_min, im_max).

    Points where the free resolvent's |denominator| falls below
    EXCLUSION_MARGIN (see :meth:`FreeOperator.gap`) are marked excluded
    instead of evaluated.  Each evaluated point also records its relative
    residual bound and its bs_apply count.
    """
    n_re, n_im = resolution
    re = np.linspace(*rectangle[:2], n_re)
    im = np.linspace(*rectangle[2:], n_im)
    factors = factor_on_grid(V, grid)
    op = free_operator(kind, m, grid)
    values = np.full((n_im, n_re), np.nan)
    residuals = np.full((n_im, n_re), np.nan)
    applies = np.zeros((n_im, n_re), dtype=int)
    excluded = np.zeros((n_im, n_re), dtype=bool)
    for i, y in enumerate(im):
        for k, x in enumerate(re):
            z = complex(x, y)
            if not op.gap(z) >= EXCLUSION_MARGIN:  # a NaN gap is excluded too
                excluded[i, k] = True
            else:
                values[i, k], residuals[i, k], applies[i, k] = bs_norm(
                    kind, m, z, factors, grid, seed=seed)
    return BSScan(re, im, values, excluded, residuals, applies)
