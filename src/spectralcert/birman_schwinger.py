"""The Birman-Schwinger operator K_z = A (H_0 - z)^{-1} B* on the grid.

On the finite-dimensional discretization every factor is bounded, so K_z is
computed as the plain composition of pointwise multiplication by A, the
multiplier resolvent, and pointwise multiplication by B*.  The operator
norm is estimated by power iteration on K* K with deterministic seeded
restarts; scans evaluate it on a lattice of z values over a rectangle and
record the empirical region where the norm reaches 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .gridops import (EXCLUSION_MARGIN, GridSpec, FieldOnGrid, apply_free_resolvent,
                      free_operator, potential_on_grid)
from .potential import PotentialSpec, polar_factorize


def factor_on_grid(V: PotentialSpec, grid: GridSpec):
    """Pointwise polar factors (A, B) of V at every grid sample."""
    return polar_factorize(V).factors(potential_on_grid(V, grid))


def _pointwise(mat_pts, f: FieldOnGrid, conj_transpose=False) -> FieldOnGrid:
    m = mat_pts
    if conj_transpose:
        m = np.conj(np.swapaxes(m, -1, -2))
    return f.grid.field(np.einsum("pab,pb->pa", m, f.values))


def bs_apply(kind, m, z, factors, f: FieldOnGrid, adjoint=False) -> FieldOnGrid:
    """K_z f = A R_0(z) B* f (or the Hermitian adjoint of K_z).

    ``factors`` is the (A_pts, B_pts) pair from :func:`factor_on_grid`.
    """
    A, B = factors
    if adjoint:
        g = _pointwise(A, f, conj_transpose=True)
        g = apply_free_resolvent(kind, m, z, g, adjoint=True)
        return _pointwise(B, g)
    g = _pointwise(B, f, conj_transpose=True)
    g = apply_free_resolvent(kind, m, z, g)
    return _pointwise(A, g)


def bs_norm(kind, m, z, factors, grid: GridSpec, tol=1e-4, seed=0,
            max_iter=2000, restarts=3) -> float:
    """Largest singular value of K_z by power iteration on K* K.

    Deterministic seeded start vectors; ``restarts`` independent seeds guard
    against starting orthogonal to the top singular vector.  Raises on
    non-convergence with the Rayleigh-quotient history attached.
    """
    best = 0.0
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        v = rng.normal(size=(grid.M ** grid.n, grid.N)) \
            + 1j * rng.normal(size=(grid.M ** grid.n, grid.N))
        v /= np.linalg.norm(v)
        fv = grid.field(v)
        history = []
        prev = None
        for _ in range(max_iter):
            kv = bs_apply(kind, m, z, factors, fv)
            sigma = float(np.linalg.norm(kv.values))  # |v| = 1
            history.append(sigma)
            if sigma == 0.0:
                break
            w = bs_apply(kind, m, z, factors, kv, adjoint=True)
            nw = np.linalg.norm(w.values)
            if nw == 0.0:
                break
            fv = grid.field(w.values / nw)
            if prev is not None and abs(sigma - prev) <= tol * max(sigma, 1e-300):
                break
            prev = sigma
        else:
            raise RuntimeError(f"power iteration did not converge in {max_iter} "
                               f"iterations; last Rayleigh quotients {history[-5:]}")
        best = max(best, history[-1] if history else 0.0)
    return best


def bs_dense(kind, m, z, factors, grid: GridSpec):
    """Dense matrix of K_z (batched application to the identity)."""
    D = grid.size
    A, B = factors
    g = grid
    shape = (g.M,) * g.n + (g.N,)
    op = free_operator(kind, m, g)
    ident = np.eye(D, dtype=complex).reshape((D, g.M ** g.n, g.N))
    batch = np.einsum("pab,dpb->dpa", np.conj(np.swapaxes(B, -1, -2)), ident)
    res = op.apply(op.resolvent_block(z), batch.reshape((D,) + shape)).reshape((D, g.M ** g.n, g.N))
    cols = np.einsum("pab,dpb->dpa", A, res).reshape(D, D)
    return cols.T.copy()


@dataclass
class BSScan:
    """Norm estimates of K_z over a rectangle lattice in the complex plane."""

    re: np.ndarray            # (n_re,)
    im: np.ndarray            # (n_im,)
    values: np.ndarray        # (n_im, n_re), nan at excluded points
    excluded: np.ndarray      # bool mask, same shape
    kind: str = ""
    m: float = 0.0
    potential_hash: str = ""
    grid: GridSpec = None
    meta: dict = field(default_factory=dict)

    def z_lattice(self):
        R, I = np.meshgrid(self.re, self.im)
        return R + 1j * I

    def region_mask(self, threshold=1.0):
        """Sample points with norm estimate >= threshold (excluded points are False)."""
        with np.errstate(invalid="ignore"):
            return np.where(self.excluded, False, self.values >= threshold)

    def region_bounding_box(self, threshold=1.0):
        mask = self.region_mask(threshold)
        if not mask.any():
            return None
        z = self.z_lattice()[mask]
        return (float(z.real.min()), float(z.real.max()),
                float(z.imag.min()), float(z.imag.max()))

    def to_csv(self, path):
        z = self.z_lattice()
        with open(path, "w") as fh:
            fh.write("re_z,im_z,norm_estimate,excluded_flag\n")
            for zi, vi, ei in zip(z.ravel(), self.values.ravel(), self.excluded.ravel()):
                v = "nan" if ei else f"{vi:.12g}"
                fh.write(f"{zi.real:.12g},{zi.imag:.12g},{v},{int(ei)}\n")


def bs_scan(kind, m, V: PotentialSpec, grid: GridSpec, rectangle, resolution,
            tol=1e-4, seed=0) -> BSScan:
    """Per-z norm of K_z on a lattice over rectangle = (re_min, re_max, im_min, im_max).

    Points where the free resolvent's |denominator| falls below
    EXCLUSION_MARGIN (see :meth:`FreeOperator.gap`) are marked excluded
    instead of evaluated.
    """
    re_min, re_max, im_min, im_max = rectangle
    n_re, n_im = resolution
    re = np.linspace(re_min, re_max, n_re)
    im = np.linspace(im_min, im_max, n_im)
    factors = factor_on_grid(V, grid)
    op = free_operator(kind, m, grid)
    values = np.full((n_im, n_re), np.nan)
    excluded = np.zeros((n_im, n_re), dtype=bool)
    for i, y in enumerate(im):
        for k, x in enumerate(re):
            z = complex(x, y)
            if op.gap(z) < EXCLUSION_MARGIN:
                excluded[i, k] = True
            else:
                values[i, k] = bs_norm(kind, m, z, factors, grid, tol=tol, seed=seed)
    return BSScan(re=re, im=im, values=values, excluded=excluded, kind=kind, m=m,
                  potential_hash=V.content_hash(), grid=grid,
                  meta={"tol": tol, "seed": seed})
