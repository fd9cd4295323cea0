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
distance of z from the discrete symbol set (``gap``), and applies forward
and resolvent multipliers with one FFT - multiply - inverse FFT;
:func:`free_spectrum` lists its eigenvalues.  H_0 is self-adjoint, so the
adjoint of the resolvent at z is the resolvent at z.conjugate().  Rows of the
dense matrices of those multipliers are gathered from their
translation-invariant kernels, any rows at a time.

Dense spectra (:func:`dense_spectrum`) split H_V by the symmetries of H_0 that V's samples
respect: the axis reflections for the scalar kinds, and for Dirac in n = 3 the permutations of
the axes paired with spinor rotations; a V that respects none is the trivial group's one block.
Each block is formed from the rows of H_V it reads (:func:`assemble_perturbed` with ``rows``),
so a split job builds no D x D matrix.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import product
from math import ceil, prod

import numpy as np
import scipy.linalg

from .clifford import build_clifford, dirac_symbol
from .potential import PotentialSpec

KINDS = ("schrodinger", "klein_gordon", "dirac")

DENSE_SIZE_LIMIT = 4096

GATHER_ENTRIES = 1 << 16      # entries of H_V's rows read per step of _compress

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


class FreeOperator:
    """H_0 of one kind and mass on one grid; its arrays are read-only because it is shared.

    ``symbol`` is |xi|^2, sqrt(m^2+|xi|^2), or for Dirac |xi|^2+m^2, the square
    of the matrix symbol ``matrix`` (None for the scalar kinds).  The Dirac
    resolvent is (D_m + z)(-Delta + m^2 - z^2)^{-1}, with denominator symbol - z^2.

    ``generators`` are symmetries g = (site map, spinor matrix S) that commute with H_0, acting as
    (g f)(x) = S f(x_g) with x_g the site the map holds at x: the axis reflections for the scalar
    kinds, the axis swap and cycle of :func:`_axis_permutations` for Dirac in n = 3, else none.
    """

    def __init__(self, kind, m, grid: GridSpec):
        self.grid = grid
        self.matrix = None
        self.generators = _axis_reflections(grid.M, grid.n)
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
            self.generators = _axis_permutations(rep, grid.M) if grid.n == 3 else ()
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.symbol.setflags(write=False)

    def _denominator(self, z):
        """The scalar denominator of (H_0 - z)^{-1} at every frequency."""
        return self.symbol - (z if self.matrix is None else z ** 2)

    def gap(self, z):
        """Smallest |denominator| over the frequency lattice."""
        return float(np.min(np.abs(self._denominator(z))))

    def forward_block(self):
        """Per-frequency multiplier of H_0: the scalar symbol or the matrix symbol."""
        return self.symbol if self.matrix is None else self.matrix

    def resolvent_block(self, z):
        """Per-frequency multiplier of (H_0 - z)^{-1}.  H_0 is self-adjoint, so the adjoint
        (H_0 - z)^{-1}* is the multiplier at z.conjugate().

        Raises ValueError when z is within EXCLUSION_MARGIN of the discrete symbol set.
        """
        denom = self._denominator(z)
        gap = float(np.min(np.abs(denom)))
        if gap < EXCLUSION_MARGIN:
            raise ValueError(f"z = {z} is within {EXCLUSION_MARGIN} of the discrete symbol set "
                             f"(|denominator| = {gap:.3e})")
        if self.matrix is None:
            return 1.0 / denom
        block = self.matrix + z * np.eye(self.grid.N)
        block /= denom[..., None, None]  # in place: one (M^n, N, N) temporary, not two
        return block

    def apply(self, block, values):
        """FFT over the lattice axes of ``values`` (shape (M,)*n + (N,)), multiply by
        ``block``, inverse FFT."""
        spec = _fft(self.grid, values)
        if self.matrix is None:
            out = block[..., None] * spec
        else:
            out = np.einsum("...ab,...b->...a", block, spec)
        return _ifft(self.grid, out)

    def windows(self, block):
        """The rows of the dense matrix of the multiplier ``block`` on the grid basis
        (point-major, spinor-minor), as a read-only view W of shape (starts,) + (M,)*n + (N,):
        row r is ``W[_window_starts(M, n, N)[r]]``.

        The multiplier is a circular convolution, so entry ((i, a), (j, b)) is its kernel (one
        inverse FFT of ``block``) at (i - j) mod M per axis.  Over j that is a window of the
        kernel tiled twice and flipped on each axis, starting at M - 1 - i; W[s] is the window
        that starts at element s of that array.
        """
        g = self.grid
        if self.matrix is None:
            block = block[..., None, None]
        kernel = np.fft.ifftn(block, axes=tuple(range(g.n)))
        wrap = (g.M - 1 - np.arange(2 * g.M)) % g.M
        flipped = kernel[np.ix_(*[wrap] * g.n)]  # a new C-ordered (2M,)*n + (N, N) array
        st = flipped.strides
        return np.lib.stride_tricks.as_strided(
            flipped, (_window_starts(g.M, g.n, g.N).max() + 1,) + (g.M,) * g.n + (g.N,),
            (flipped.itemsize,) + st[:g.n] + st[g.n + 1:], writeable=False)

    @cached_property
    def forward_windows(self):
        """:meth:`windows` of H_0, built once."""
        return self.windows(self.forward_block())

    def gather(self, windows, rows=None):
        """Rows ``rows`` (all if None) of the dense matrix with these :meth:`windows`, shape
        (len(rows), D), copied out with one index: the result is the only large array."""
        g = self.grid
        starts = _window_starts(g.M, g.n, g.N)
        return windows[starts if rows is None else starts[rows]].reshape(-1, g.size)


@lru_cache(maxsize=None)
def _window_starts(M, n, N):
    """Where the window of each row (i, a) starts in the flat array of
    :meth:`FreeOperator.windows`: its element (M - 1 - i, a, 0), shape (M^n N,), read-only."""
    i = np.indices((M,) * n + (N,)).reshape(n + 1, -1)
    starts = N * np.ravel_multi_index((*(M - 1 - i[:n]), i[n]), (2 * M,) * n + (N,))
    starts.setflags(write=False)
    return starts


def _generator(sites, S):
    """A symmetry (site map, spinor part S), both read-only: ``sites`` holds x_g at each x."""
    g = (sites.flatten(), S)
    for a in g:
        a.setflags(write=False)
    return g


def _axis_reflections(M, n):
    """The reflection i -> M-1-i of each lattice axis, with spinor part [[1]]."""
    sites = np.arange(M ** n).reshape((M,) * n)
    return tuple(_generator(np.flip(sites, a), np.ones((1, 1), complex)) for a in range(n))


def _axis_permutations(rep, M):
    """The axis swap T = P_12 (x) W and the axis cycle C = P_cyc (x) R of n = 3 (``rep``):
    (T f)(i, j, k) = W f(i, k, j) and (C f)(i, j, k) = R f(k, i, j).  W swaps alpha_2 and
    alpha_3, R* alpha_k R = alpha_(k+1) cycles alpha_1..alpha_3, both fix alpha_0;
    W^2 = R^3 = I and W R W = R^-1, so T and C generate S_3."""
    a = rep.alphas
    W = 1j * (a[2] - a[3]) @ rep.spare / np.sqrt(2)
    R = -(np.eye(rep.N) + a[1] @ a[2] + a[2] @ a[3] + a[3] @ a[1]) / 2
    sites = np.arange(M ** 3).reshape((M,) * 3)
    return _generator(sites.transpose(0, 2, 1), W), _generator(sites.transpose(1, 2, 0), R)


@lru_cache(maxsize=_FREE_OPERATOR_CACHE_SIZE)
def free_operator(kind, m, grid: GridSpec) -> FreeOperator:
    """The shared FreeOperator of (kind, m, grid); built once per distinct key."""
    return FreeOperator(kind, m, grid)


def free_spectrum(grid: GridSpec, kind, m):
    """All eigenvalues of the discretized free operator, sorted, with multiplicity."""
    op = free_operator(kind, m, grid)
    if op.matrix is None:
        return np.sort(np.repeat(op.symbol.ravel(), grid.N))
    s = np.sqrt(op.symbol.ravel())
    half = grid.N // 2
    return np.sort(np.concatenate([np.repeat(s, half), np.repeat(-s, half)]))


def apply_free_operator(kind, m, f: FieldOnGrid) -> FieldOnGrid:
    """Forward application of the free operator (Fourier multiplier)."""
    op = free_operator(kind, m, f.grid)
    return f.grid.field(op.apply(op.forward_block(), f.boxed()))


def apply_free_resolvent(kind, m, z, f: FieldOnGrid) -> FieldOnGrid:
    """(H_0 - z)^{-1} f by per-frequency multiplication; at z.conjugate() it applies the adjoint."""
    op = free_operator(kind, m, f.grid)
    return f.grid.field(op.apply(op.resolvent_block(z), f.boxed()))


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


def assemble_perturbed(kind, m, V, grid: GridSpec, rows=None):
    """Rows ``rows`` of the dense matrix of H_V = H_0 + V on the grid basis (point-major,
    spinor-minor), shape (len(rows), D); all of H_V if ``rows`` is None.

    H_0's rows are gathered from its translation-invariant kernel (:meth:`FreeOperator.gather`).
    V is a PotentialSpec, its samples from :func:`potential_on_grid`, or None for H_0; the
    samples are added to the diagonal entries of those rows, the entries of H_V's diagonal
    blocks.  Grids above DENSE_SIZE_LIMIT are rejected.
    """
    D = grid.size
    if D > DENSE_SIZE_LIMIT:
        raise ValueError(f"dense size {D} exceeds limit {DENSE_SIZE_LIMIT}; "
                         "use the matrix-free bs_scan / resolvent path instead")
    op = free_operator(kind, m, grid)
    H = op.gather(op.forward_windows, rows)
    if V is not None:
        samples = V if isinstance(V, np.ndarray) else potential_on_grid(V, grid)
        rows = np.arange(D) if rows is None else np.asarray(rows, dtype=np.intp)
        sites = rows // grid.N
        entries = H.reshape(len(rows), grid.M ** grid.n, grid.N)  # (row, site, spinor)
        entries[np.arange(len(rows)), sites] += samples[sites, rows % grid.N]
    return H


def _order(sites):
    """The least k > 0 such that applying the site map ``sites`` k times is the identity."""
    p, k = sites, 1
    while not np.array_equal(p, np.arange(len(p))):
        p, k = sites[p], k + 1
    return k


@lru_cache(maxsize=None)
def _symmetry_bases(n_sites, N, kept):
    """Per block of an H_V on ``n_sites`` sites, of spinor size N, that commutes with the group G of
    the ``kept`` symmetries (pairs (site map, spinor part) as bytes): the times its eigenvalues
    count, and its orthonormal basis as parts (rows, B, J, B[J]^-1), one per action of G on site
    orbits; cached, read-only.  The kept symmetries are involutions and at most one cycle C of
    order 3, which an involution inverts.  G's elements are g = G_1^e_1 ... G_k^e_k,
    (g f)(x) = S_g f(x_g).  The blocks are C's omega eigenspace (counted twice: the involution maps
    it onto the omega^2 one), then one per sign pattern of the involutions, times C's mean.  With
    no involution, C alone is dropped and G is the trivial group: one block, counted once, with
    identity bases.  One local basis B serves all orbits of an action, at ``rows``."""
    gens = [(np.frombuffer(p, np.intp), np.frombuffer(S, complex).reshape(N, N)) for p, S in kept]
    orders = [_order(p) for p, _ in gens]
    if 2 not in orders:  # C's omega block counts twice only beside an involution
        gens, orders = [(np.arange(n_sites), np.eye(N, dtype=complex))], [1]
    powers = list(product(*map(range, orders)))
    elements = []
    for exps in powers:
        sites = np.arange(n_sites)
        for (p, _), e in zip(gens, exps):
            for _ in range(e):
                sites = p[sites]
        elements.append((sites, reduce(np.matmul, [np.linalg.matrix_power(S, e)
                                                   for (_, S), e in zip(gens, exps)])))
    flips = [i for i, k in enumerate(orders) if k == 2]
    # projector weights per element: a character of the involutions times C's mean, and
    # C's omega projector (I + C/omega + C^2/omega^2)/3
    signs = [([prod(s ** e[i] for s, i in zip(pattern, flips)) / len(powers) for e in powers], 1)
             for pattern in product((1, -1), repeat=len(flips))]
    omega = [([(not any(e[i] for i in flips)) * np.exp(-2j * np.pi * e[c] / 3) / 3
               for e in powers], 2) for c, k in enumerate(orders) if k == 3]
    images = np.stack([src for src, _ in elements])
    actions = {}  # the group's action on an orbit's sorted sites -> the orbits with it
    for r in np.unique(images.min(axis=0)):
        orbit = np.unique(images[:, r])
        act = np.searchsorted(orbit, images[:, orbit])
        actions.setdefault(act.tobytes(), (act, []))[1].append(orbit)
    blocks = []
    for weights, count in omega + signs:
        parts = []
        for act, orbits in actions.values():
            k = act.shape[1]
            P = np.zeros((k, N, k, N), complex)  # (site, spinor) x (site, spinor) of one orbit
            for w, a, (_, S) in zip(weights, act, elements):
                P[np.arange(k), :, a, :] += w * S
            B, J, inv = _range_basis(P.reshape(k * N, k * N))
            if len(J):  # some orbits have no share in a block
                rows = (np.array(orbits)[..., None] * N + np.arange(N)).reshape(len(orbits), -1)
                parts.append((rows, B, J, inv))
                for a in parts[-1]:
                    a.setflags(write=False)
        blocks.append((count, tuple(parts)))
    return tuple(blocks)


def _range_basis(P):
    """An orthonormal basis B = P[:, J] T of the range of the Hermitian projector P, by
    Gram-Schmidt (twice) on its columns in order until it holds rank P = tr P of them; the
    columns J it keeps, and B[J]^-1 = T*."""
    n, BT, J = len(P), np.zeros((2 * len(P), 0), complex), []  # B on T: columns (P t, t)
    rank = round(np.trace(P).real)
    for j, w in enumerate(np.vstack([P, np.eye(n)]).T):
        if len(J) == rank:
            break
        for _ in range(2):
            w = w - BT @ (BT[:n].conj().T @ w[:n])
        if np.linalg.norm(w[:n]) > 1e-6:  # else P e_j lies in the span kept so far
            BT, J = np.c_[BT, w / np.linalg.norm(w[:n])], J + [j]
    return BT[:n], np.array(J, dtype=int), BT[n:][J].conj().T


def _compress(rows_of, parts):
    """A = Q* H Q for a basis Q of :func:`_symmetry_bases` whose span H maps into itself, from
    ``rows_of(J)``, the rows J of H (such as a ``partial`` of :func:`assemble_perturbed`): as
    H Q = Q A, A = Q[J]^-1 H[J] Q with Q[J] block-diagonal, formed from about GATHER_ENTRIES
    entries of H's rows J at a time."""
    width = sum(r.size for r, _, _, _ in parts)  # the columns of H that Q reads
    A, start = np.empty((sum(len(rows) * len(j) for rows, _, j, _ in parts),) * 2, complex), 0
    for rows, _, j, inv in parts:
        step = max(1, GATHER_ENTRIES // (len(j) * width))  # orbits per step
        for s in range(0, len(rows), step):
            Jc = rows[s:s + step, j]  # (orbits, k) of the rows J
            H = rows_of(Jc.ravel())
            HQ = np.hstack([(H[:, r.ravel()].reshape(-1, len(B)) @ B).reshape(Jc.size, -1)
                            for r, B, _, _ in parts])
            A[start:start + Jc.size] = (inv @ HQ.reshape(*Jc.shape, -1)).reshape(HQ.shape)
            start += Jc.size
    return A


def dense_spectrum(kind, m, V, grid: GridSpec):
    """All eigenvalues of H_V = H_0 + V, sorted by (real, imaginary) part, with
    multiplicity, and the sizes of the eigensolves in the order they ran.

    V identically zero (absent, or coupling c = 0) gives the free spectrum, with no
    eigensolve.  Any other V, even one that vanishes at every sample, is solved, so
    a job's cost does not hinge on where its support falls.  H_V is split into blocks, each
    solved by :func:`eigenvalues` with its own residual check, by the generators of H_0
    (:class:`FreeOperator`) whose symmetry V(x) = S V(x_g) S* V's samples respect within
    1e-12 max(|V|, 1) (:func:`_symmetry_bases`): 2^n parity blocks for the scalar kinds with a
    radial V, S_3 blocks of about D/3 (counted twice), D/6 and D/6 or halves by the swap alone
    for a Dirac H_V of n = 3, and one block of D if V respects no involution (none at all, or the
    cycle alone).  Each block is formed from the rows of H_V it reads just before its eigensolve
    and dropped after it, so a split job builds no D x D matrix."""
    op = free_operator(kind, m, grid)
    if V is None or V.c == 0:
        return free_spectrum(grid, kind, m).astype(complex), []
    samples = potential_on_grid(V, grid)
    tol = 1e-12 * max(np.abs(samples).max(), 1)
    kept = [(p, S) for p, S in op.generators
            if np.abs(samples - S @ samples[p] @ S.conj().T).max() <= tol]
    key = tuple((p.tobytes(), S.tobytes()) for p, S in kept)
    rows_of = partial(assemble_perturbed, kind, m, samples, grid)
    solved = [(eigenvalues(_compress(rows_of, parts)), count)
              for count, parts in _symmetry_bases(len(samples), grid.N, key)]
    vals = np.concatenate([np.tile(v, count) for v, count in solved])
    return vals[np.lexsort((vals.imag, vals.real))], [len(v) for v, _ in solved]


def eigenvalues(H):
    """Eigenvalues of a dense operator, sorted by (real, imaginary) part.

    Residuals |Hv - lambda v| <= 1e-8 max(|H|_inf, 1) |v| are verified on 10 sampled pairs, in
    one product H X - X diag(lambda).
    """
    H = np.asarray(H)
    vals, vecs = scipy.linalg.eig(H)
    order = np.lexsort((vals.imag, vals.real))
    scale = max(np.linalg.norm(H, ord=np.inf), 1.0)
    idx = np.linspace(0, len(vals) - 1, min(10, len(vals))).astype(int)
    X, lam = vecs[:, order[idx]], vals[order[idx]]
    res = np.linalg.norm(H @ X - X * lam, axis=0) / np.linalg.norm(X, axis=0)
    for i, r in zip(idx, res):
        if r > 1e-8 * scale:
            raise RuntimeError(f"eigenpair {i} residual {r:.3e} exceeds 1e-8 * |H|")
    return vals[order]
