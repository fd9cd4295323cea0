"""Periodic-box Fourier discretization of the free operators and the
perturbed operator H_V = H_0 + V.

The box is [-L, L)^n with M samples per axis on a half-cell-offset lattice
(no sample sits at x = 0, so singular weights stay finite).  The free
Schrodinger, Klein-Gordon and Dirac operators are diagonal (block-diagonal)
in the discrete Fourier basis, so resolvents are exact per-frequency
multipliers; the half-cell offset only shifts phases that cancel in the
forward/inverse transform pair.

Every use of H_0 goes through one :class:`FreeOperator` per (kind, m, grid),
cached by :func:`free_operator`.  It builds the symbol once, measures the
distance of z from the discrete symbol set (``gap``), lists the free
spectrum, and applies forward and resolvent multipliers with one FFT -
multiply - inverse FFT.  Dense matrices of those multipliers are gathered
from their translation-invariant kernels.

Dense spectra (:func:`dense_spectrum`) split H_V by the lattice reflections
i -> M-1-i that commute with it exactly, and solve each block on its own.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil

import numpy as np
import scipy.linalg

from .clifford import build_clifford, dirac_symbol
from .potential import PotentialSpec

KINDS = ("schrodinger", "klein_gordon", "dirac")

DENSE_SIZE_LIMIT = 4096

EXCLUSION_MARGIN = 1e-8       # |denominator| below which z counts as on the discrete symbol set

_FREE_OPERATOR_CACHE_SIZE = 2  # a computation uses one; more keeps big Dirac symbols resident


def spinor_size(kind, n):
    """Components of a field of this kind in dimension n: 2^ceil(n/2) for Dirac, else 1."""
    return 2 ** ceil(n / 2) if kind == "dirac" else 1


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^n, M samples per axis, spinor size N."""

    n: int
    L: float
    M: int
    N: int = 1

    def __post_init__(self):
        if self.M % 2 != 0 or self.M < 2:
            raise ValueError(f"M must be even and >= 2, got {self.M}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def h(self):
        return 2.0 * self.L / self.M

    @property
    def size(self):
        return self.M ** self.n * self.N

    @property
    def cell_volume(self):
        return self.h ** self.n

    @cached_property
    def axis_points(self):
        # half-cell offset x_i = -L + (i + 1/2) h on the first half, mirrored so that
        # x_{M-1-i} = -x_i holds exactly
        half = -self.L + (np.arange(self.M // 2) + 0.5) * self.h
        return np.concatenate([half, -half[::-1]])

    @cached_property
    def points(self):
        """All sample points, shape (M^n, n), C-order over the axes."""
        grids = np.meshgrid(*([self.axis_points] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @cached_property
    def radii(self):
        return np.linalg.norm(self.points, axis=-1)

    @cached_property
    def axis_freqs(self):
        # xi_k = (pi / L) k, k in fft order over {-M/2, ..., M/2 - 1}
        return np.fft.fftfreq(self.M, d=1.0 / self.M) * (np.pi / self.L)

    @cached_property
    def freqs(self):
        """Frequency lattice in fft order, shape (M,)*n + (n,)."""
        grids = np.meshgrid(*([self.axis_freqs] * self.n), indexing="ij")
        return np.stack(grids, axis=-1)

    @cached_property
    def freq_sq(self):
        """|xi|^2 on the frequency lattice, shape (M,)*n."""
        return np.sum(self.freqs ** 2, axis=-1)

    def field(self, values) -> "FieldOnGrid":
        return FieldOnGrid(values=np.asarray(values, dtype=complex).reshape(self.M ** self.n, self.N),
                           grid=self)


@dataclass(frozen=True, eq=False)
class FieldOnGrid:
    """Spinor-valued samples, shape (M^n, N)."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        if self.values.shape != (self.grid.M ** self.grid.n, self.grid.N):
            raise ValueError(f"field shape {self.values.shape} does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field has non-finite entries")

    def boxed(self):
        """Values reshaped to (M,)*n + (N,)."""
        g = self.grid
        return self.values.reshape((g.M,) * g.n + (g.N,))


def _fft(grid, boxed):
    return np.fft.fftn(boxed, axes=tuple(range(grid.n)))


def _ifft(grid, boxed):
    return np.fft.ifftn(boxed, axes=tuple(range(grid.n)))


def _reflect(a, axis):
    """``a`` at the reflected difference index d -> -d mod M along ``axis``."""
    return np.roll(np.flip(a, axis), 1, axis)


class FreeOperator:
    """H_0 of one kind and mass on one grid; its arrays are read-only because it is shared.

    ``symbol`` is |xi|^2, sqrt(m^2+|xi|^2), or for Dirac |xi|^2+m^2, the square
    of the matrix symbol ``matrix`` (None for the scalar kinds).  The Dirac
    resolvent is (D_m + z)(-Delta + m^2 - z^2)^{-1}, with denominator symbol - z^2.
    """

    def __init__(self, kind, m, grid: GridSpec):
        self.grid = grid
        self.matrix = None
        if kind == "schrodinger":
            self.symbol = grid.freq_sq
        elif kind == "klein_gordon":
            self.symbol = np.sqrt(m ** 2 + grid.freq_sq)
        elif kind == "dirac":
            rep = build_clifford(grid.n)
            if rep.N != grid.N:
                raise ValueError(f"dirac needs N = {rep.N} in dimension {grid.n}")
            self.matrix = dirac_symbol(rep, grid.freqs, m)
            self.matrix.setflags(write=False)
            self.symbol = grid.freq_sq + m ** 2
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.symbol.setflags(write=False)

    def _denominator(self, z):
        """The scalar denominator of (H_0 - z)^{-1} at every frequency."""
        return self.symbol - (z if self.matrix is None else z ** 2)

    def gap(self, z):
        """Smallest |denominator| over the frequency lattice."""
        return float(np.min(np.abs(self._denominator(z))))

    def spectrum(self):
        """All eigenvalues of the discretized operator, sorted, with multiplicity."""
        if self.matrix is None:
            return np.sort(np.repeat(self.symbol.ravel(), self.grid.N))
        s = np.sqrt(self.symbol.ravel())
        half = self.grid.N // 2
        return np.sort(np.concatenate([np.repeat(s, half), np.repeat(-s, half)]))

    def forward_block(self):
        """Per-frequency multiplier of H_0: the scalar symbol or the matrix symbol."""
        return self.symbol if self.matrix is None else self.matrix

    def resolvent_block(self, z, adjoint=False):
        """Per-frequency multiplier of (H_0 - z)^{-1}, or of its Hermitian adjoint.

        Raises ValueError when z is within EXCLUSION_MARGIN of the discrete symbol set.
        """
        denom = self._denominator(z)
        gap = float(np.min(np.abs(denom)))
        if gap < EXCLUSION_MARGIN:
            raise ValueError(f"z = {z} is within {EXCLUSION_MARGIN} of the discrete symbol set "
                             f"(|denominator| = {gap:.3e})")
        if self.matrix is None:
            block = 1.0 / denom
            return np.conj(block) if adjoint else block
        block = self.matrix + z * np.eye(self.grid.N)
        block /= denom[..., None, None]  # in place: one (M^n, N, N) temporary, not two
        return np.swapaxes(np.conj(block, out=block), -1, -2) if adjoint else block

    def apply(self, block, values):
        """FFT over the lattice axes of ``values`` (shape (M,)*n + (N,)), multiply by
        ``block``, inverse FFT."""
        spec = _fft(self.grid, values)
        if self.matrix is None:
            out = block[..., None] * spec
        else:
            out = np.einsum("...ab,...b->...a", block, spec)
        return _ifft(self.grid, out)

    def dense(self, block):
        """Dense matrix of the multiplier ``block`` on the grid basis (point-major, spinor-minor).

        The multiplier is a circular convolution, so entry ((i, a), (j, b)) is its
        kernel (one inverse FFT of ``block``) at (i - j) mod M per axis.  On each
        axis where ``block`` equals its reflection exactly, the kernel is averaged
        with its reflection, so that the matrix commutes exactly with the
        reflection i -> M-1-i of that axis.
        """
        g = self.grid
        if self.matrix is None:
            block = block[..., None, None]
        axes = tuple(range(g.n))
        kernel = np.fft.ifftn(block, axes=axes)
        step = (np.arange(g.M)[:, None] - np.arange(g.M)) % g.M
        offsets = 0  # C-order index of the per-axis differences, sites i x sites j
        for ax in axes:
            if np.array_equal(_reflect(block, ax), block):
                kernel = 0.5 * (kernel + _reflect(kernel, ax))
            shape = [1] * (2 * g.n)
            shape[ax] = shape[g.n + ax] = g.M
            offsets = offsets * g.M + step.reshape(shape)
        blocks = kernel.reshape(g.M ** g.n, g.N, g.N)[offsets.reshape(g.M ** g.n, -1)]
        return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(g.size, g.size)


@lru_cache(maxsize=_FREE_OPERATOR_CACHE_SIZE)
def free_operator(kind, m, grid: GridSpec) -> FreeOperator:
    """The shared FreeOperator of (kind, m, grid); built once per distinct key."""
    return FreeOperator(kind, m, grid)


def free_spectrum(grid: GridSpec, kind, m):
    """All eigenvalues of the discretized free operator, sorted, with multiplicity."""
    return free_operator(kind, m, grid).spectrum()


def apply_free_operator(kind, m, f: FieldOnGrid) -> FieldOnGrid:
    """Forward application of the free operator (Fourier multiplier)."""
    op = free_operator(kind, m, f.grid)
    return f.grid.field(op.apply(op.forward_block(), f.boxed()))


def apply_free_resolvent(kind, m, z, f: FieldOnGrid, adjoint=False) -> FieldOnGrid:
    """(H_0 - z)^{-1} f by per-frequency multiplication.

    ``adjoint=True`` applies the Hermitian adjoint instead (the multiplier
    conjugated per frequency).
    """
    op = free_operator(kind, m, f.grid)
    return f.grid.field(op.apply(op.resolvent_block(z, adjoint), f.boxed()))


def apply_gradient(f: FieldOnGrid):
    """i xi multiplier per axis, shape (M^n, n N): axis-major, the spinor index fastest."""
    g = f.grid
    spec = _fft(g, f.boxed())
    return np.concatenate([_ifft(g, 1j * g.freqs[..., d, None] * spec).reshape(-1, g.N)
                           for d in range(g.n)], axis=-1)


def potential_on_grid(V: PotentialSpec, grid: GridSpec):
    """V evaluated at every sample, shape (M^n, N, N)."""
    if V.n != grid.n or V.N != grid.N:
        raise ValueError(f"potential ({V.n}, {V.N}) does not match grid ({grid.n}, {grid.N})")
    return V.evaluate(grid.points)


def assemble_perturbed(kind, m, V, grid: GridSpec):
    """Dense matrix of H_V = H_0 + V on the grid basis (point-major, spinor-minor).

    H_0 is gathered from its translation-invariant kernel (:meth:`FreeOperator.dense`).
    V is a PotentialSpec, or None for H_0; its samples from :func:`potential_on_grid`
    are added to the diagonal blocks.  Grids above DENSE_SIZE_LIMIT are rejected.
    """
    D = grid.size
    if D > DENSE_SIZE_LIMIT:
        raise ValueError(f"dense size {D} exceeds limit {DENSE_SIZE_LIMIT}; "
                         "use the matrix-free bs_scan / resolvent path instead")
    op = free_operator(kind, m, grid)
    H = op.dense(op.forward_block())
    if V is not None:
        samples = potential_on_grid(V, grid)
        sites = np.arange(grid.M ** grid.n)
        H.reshape(len(sites), grid.N, len(sites), grid.N)[sites, :, sites, :] += samples
    return H


def _boxed(grid):
    return (grid.M,) * grid.n + (grid.N,)


def reflection_axes(H, grid: GridSpec):
    """The lattice axes whose reflection i -> M-1-i commutes with the dense H exactly (bitwise)."""
    boxed = H.reshape(_boxed(grid) * 2)
    return [a for a in range(grid.n) if np.array_equal(boxed, np.flip(boxed, (a, grid.n + 1 + a)))]


def _split(H, grid, axis):
    """Even and odd blocks of H, which commutes with the reflection of lattice ``axis``.

    In the orthonormal basis (e_i +- e_{M-1-i}) / sqrt(2), i < M/2, the two blocks
    are H[i, j] +- H[i, M-1-j] over the first half of the axis in both indices.
    H is boxed as (sites..., N) x (sites..., N) with some axes already halved.
    """
    half, col = grid.M // 2, grid.n + 1 + axis
    top = H[(slice(None),) * axis + (slice(None, half),)]
    near = top[(slice(None),) * col + (slice(None, half),)]
    far = top[(slice(None),) * col + (slice(grid.M - 1, half - 1, -1),)]
    return [near + far, near - far]


def dense_spectrum(kind, m, V, grid: GridSpec):
    """All eigenvalues of H_V = H_0 + V, sorted by (real, imaginary) part, with multiplicity.

    V identically zero (absent, or coupling c = 0) gives the free spectrum, with
    no eigensolve.  A V that merely vanishes at every sample (a bump whose
    support holds no site) is solved like any other, so a job's time and memory
    do not jump with where the support falls on the lattice.
    Otherwise H_V is assembled, and every lattice axis whose reflection
    i -> M-1-i commutes with it exactly (bitwise) splits it into an even and an
    odd block.  Up to 2^n blocks are then solved by :func:`eigenvalues`, each with
    its own residual check.  The split is read from the matrix: for the scalar
    kinds with a radial potential every axis splits; the Dirac matrix and a
    potential without the symmetry stay whole.
    """
    if V is None or V.c == 0:
        return free_operator(kind, m, grid).spectrum().astype(complex)
    H = assemble_perturbed(kind, m, V, grid)
    axes = reflection_axes(H, grid)
    blocks = [H.reshape(_boxed(grid) * 2)]
    for axis in axes:
        blocks = [part for b in blocks for part in _split(b, grid, axis)]
    side = grid.size >> len(axes)
    vals = np.concatenate([eigenvalues(b.reshape(side, side)) for b in blocks])
    return vals[np.lexsort((vals.imag, vals.real))]


def eigenvalues(H):
    """Eigenvalues of a dense operator, sorted by (real, imaginary) part.

    Residuals |Hv - lambda v| <= 1e-8 |v| are verified on 10 sampled pairs.
    """
    H = np.asarray(H)
    vals, vecs = scipy.linalg.eig(H)
    order = np.lexsort((vals.imag, vals.real))
    scale = max(np.linalg.norm(H, ord=np.inf), 1.0)
    idx = np.linspace(0, len(vals) - 1, min(10, len(vals))).astype(int)
    for i in idx:
        v, lam = vecs[:, order[i]], vals[order[i]]
        res = np.linalg.norm(H @ v - lam * v) / np.linalg.norm(v)
        if res > 1e-8 * scale:
            raise RuntimeError(f"eigenpair {i} residual {res:.3e} exceeds 1e-8 * |H|")
    return vals[order]
