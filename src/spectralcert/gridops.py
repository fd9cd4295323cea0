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
respect: the axis reflections for the scalar kinds, and in n = 3 the permutations of the axes
(paired with spinor rotations for Dirac).  One little-group rule (:func:`_symmetry_bases`) gives
the cube's group B_3 for a scalar radial V, S_3 for Dirac, and the reflections' parities or the
trivial group's one block as special cases.  Each block is formed from the rows of H_V it reads
(:func:`assemble_perturbed` with ``rows``), so a split job builds no D x D matrix.
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

    ``generators`` are the symmetries g = (site map, spinor matrix S) that commute with H_0, acting
    as (g f)(x) = S f(x_g) with x_g the site the map holds at x, as a pair (reflections,
    permutations): the axis reflections for the scalar kinds, and in n = 3 the axis swap T and
    cycle C of :func:`_axis_permutations`, with spinor parts [[1]] for the scalar kinds and W, R
    for Dirac.  They are built on first use.
    """

    def __init__(self, kind, m, grid: GridSpec):
        self.grid = grid
        self.matrix = None
        reflect, spinors = True, lambda: (np.ones((1, 1), complex),) * 2
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
            reflect, spinors = False, partial(_permutation_spinors, rep)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.symbol.setflags(write=False)
        self._symmetries = reflect, spinors  # the permutations' spinor parts, built on first use

    @cached_property
    def generators(self):
        reflect, spinors = self._symmetries
        g = self.grid
        return (_axis_reflections(g.M, g.n) if reflect else (),
                _axis_permutations(g.M, *spinors()) if g.n == 3 else ())

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

        Raises ValueError when z is within EXCLUSION_MARGIN of the discrete symbol set, or when
        the distance is NaN (a NaN z or mass).
        """
        denom = self._denominator(z)
        gap = float(np.min(np.abs(denom)))
        if not gap >= EXCLUSION_MARGIN:  # False for a NaN gap too: a NaN z or mass is refused
            raise ValueError(f"z = {z} is within {EXCLUSION_MARGIN} of the discrete symbol set, or "
                             f"the symbol is non-finite (|denominator| = {gap:.3e})")
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


def _permutation_spinors(rep):
    """The spinor parts W, R of Dirac's axis swap and cycle in n = 3 (``rep``): W swaps alpha_2
    and alpha_3, R* alpha_k R = alpha_(k+1) cycles alpha_1..alpha_3, both fix alpha_0; W^2 = R^3 = I
    and W R W = R^-1."""
    a = rep.alphas
    W = 1j * (a[2] - a[3]) @ rep.spare / np.sqrt(2)
    R = -(np.eye(rep.N) + a[1] @ a[2] + a[2] @ a[3] + a[3] @ a[1]) / 2
    return W, R


def _axis_permutations(M, W, R):
    """The axis swap T = P_12 (x) W and the axis cycle C = P_cyc (x) R of n = 3:
    (T f)(i, j, k) = W f(i, k, j) and (C f)(i, j, k) = R f(k, i, j).  With W^2 = R^3 = I and
    W R W = R^-1, T and C generate S_3."""
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
def _symmetry_bases(n_sites, N, reflections, permutations):
    """Per block of an H_V on ``n_sites`` sites, of spinor size N, that commutes with the group G
    generated by the kept ``reflections`` and ``permutations`` (tuples of pairs (site map, spinor
    part) as bytes): the times its eigenvalues count, and its orthonormal basis as parts
    (rows, B, J, B[J]^-1), one per action of G on site orbits; cached, read-only.

    The reflections are commuting involutions and generate R; the permutations H are the axis
    swap T, kept with or without the axis cycle C that it inverts (C alone is dropped), and are
    dropped too if they do not map the kept reflections onto kept reflections.  G = R H, and its
    elements g = r h are G_1^e_1 ... G_k^e_k, (g f)(x) = S_g f(x_g).  H permutes the sign patterns
    chi of the reflections (little groups): each orbit of patterns takes a representative that T
    fixes, if one does, and its stabilizer H_chi.  Its blocks have element weights
    chi(r)/|R| w_sigma(h) for h in H_chi (else 0), with sigma: C's omega block (counted twice:
    T maps it onto the omega^2 one), then the trivial and the sign block for H_chi = S_3; the two
    signs of T for H_chi = <T>; one block for the trivial group.  A block counts
    |orbit| dim sigma times; one of rank 0 is skipped.  With no reflection kept (Dirac) there is
    one empty pattern; with no permutation kept, one block per pattern; with neither, one block
    with identity bases.  One local basis B serves all orbits of an action, at ``rows``."""
    refl, perms = ([(np.frombuffer(p, np.intp), np.frombuffer(S, complex).reshape(N, N))
                    for p, S in key] for key in (reflections, permutations))
    orders = [_order(p) for p, _ in perms]
    index = {r.tobytes(): i for i, (r, _) in enumerate(refl)}
    # each permutation's action on the reflections: the index of p r p^-1 among them
    moves = [[index.get(p[r[np.argsort(p)]].tobytes()) for r, _ in refl] for p, _ in perms]
    if 2 not in orders or any(None in m for m in moves):
        perms, orders, moves = [], [], []
    gens, gen_orders = refl + perms, [2] * len(refl) + orders
    if not gens:
        gens, gen_orders = [(np.arange(n_sites), np.eye(N, dtype=complex))], [1]
    elements = []
    for exps in product(*map(range, gen_orders)):
        sites = np.arange(n_sites)
        for (p, _), e in zip(gens, exps):
            for _ in range(e):
                sites = p[sites]
        elements.append((sites, reduce(np.matmul, [np.linalg.matrix_power(S, e)
                                                   for (_, S), e in zip(gens, exps)])))
    # sign patterns (+ before -, the first reflection slowest) by elements r: chi(r) / |R|
    bits = np.array(list(product((0, 1), repeat=len(refl))), int).reshape(2 ** len(refl), -1)
    chi = (1 - 2 * (bits @ bits.T % 2)) / len(bits)
    code = 1 << np.arange(len(refl))[::-1]
    moved = [bits[:, np.argsort(m)] @ code for m in moves]  # the pattern each permutation maps to
    hexps = np.array(list(product(*map(range, orders))), int).reshape(prod(orders), -1)
    t, c = (hexps[:, orders.index(k)] if k in orders else np.zeros(len(hexps), int) for k in (2, 3))
    little = {"S3": [(np.where(t == 0, np.exp(-2j * np.pi * c / 3) / 3, 0), 2),
                     (np.full(len(t), 1 / 6), 1), ((1 - 2 * t) / 6, 1)],
              "T": [((c == 0) / 2, 1), ((c == 0) * (1 - 2 * t) / 2, 1)],
              "1": [((t + c == 0) * 1.0, 1)]}
    images = np.stack([src for src, _ in elements])
    actions = {}  # the group's action on an orbit's sorted sites -> the orbits with it
    for r in np.unique(images.min(axis=0)):
        orbit = np.unique(images[:, r])
        act = np.searchsorted(orbit, images[:, orbit])
        actions.setdefault(act.tobytes(), (act, []))[1].append(orbit)
    spinors = np.stack([S for _, S in elements])
    flat = []  # per action: P's flat index of each element's (site, spinor) x (image, spinor)
    for act, _ in actions.values():
        k = act.shape[1]
        i = (np.arange(k)[:, None, None] * N + np.arange(N)[:, None]) * k * N
        flat.append(i + act[:, :, None, None] * N + np.arange(N))
    fixed = {k: (moved[orders.index(k)] if k in orders else -1) == np.arange(len(bits))
             for k in (2, 3)}  # the patterns that T (order 2) and C (order 3) fix
    blocks, seen = [], set()
    for first in range(len(bits)):
        if first in seen:
            continue
        orbit = {first}
        for _ in hexps:
            orbit |= {m[q] for m in moved for q in orbit}
        seen |= orbit
        rep = next((q for q in sorted(orbit) if fixed[2][q]), first)
        stabilizer = ("S3" if fixed[3][rep] else "T") if fixed[2][rep] else "1"
        for w, dim in little[stabilizer]:
            weights = (chi[rep][:, None] * w).ravel()
            nz = np.flatnonzero(weights)
            parts = []
            for f, (act, orbits) in zip(flat, actions.values()):
                k = act.shape[1]
                P = np.zeros(k * N * k * N, complex)
                np.add.at(P, f[nz].ravel(), np.broadcast_to(
                    (weights[nz, None, None] * spinors[nz])[:, None], f[nz].shape).ravel())
                B, J, inv = _range_basis(P.reshape(k * N, k * N))
                if len(J):  # some orbits have no share in a block
                    rows = (np.array(orbits)[..., None] * N + np.arange(N)).reshape(len(orbits), -1)
                    parts.append((rows, B, J, inv))
                    for a in parts[-1]:
                        a.setflags(write=False)
            if parts:
                blocks.append((len(orbit) * dim, tuple(parts)))
    return tuple(blocks)


def _range_basis(P):
    """An orthonormal basis B = P[:, J] T of the range of the Hermitian projector P, by
    Gram-Schmidt (twice) on its columns in order until it holds rank P = tr P of them; the
    columns J it keeps, and B[J]^-1 = T*."""
    n, BT, J = len(P), np.zeros((2 * len(P), 0), complex), []  # B on T: columns (P t, t)
    rank = round(np.trace(P).real)
    for j in range(n):
        if len(J) == rank:
            break
        w = np.zeros(2 * n, complex)
        w[:n], w[n + j] = P[:, j], 1.0
        for _ in range(2):
            w = w - BT @ (BT[:n].conj().T @ w[:n])
        if np.linalg.norm(w[:n]) > 1e-6:  # else P e_j lies in the span kept so far
            BT, J = np.c_[BT, w / np.linalg.norm(w[:n])], J + [j]
    return BT[:n], np.array(J, dtype=int), BT[n:][J].conj().T


@lru_cache(maxsize=None)
def _reads(n_sites, N, reflections, permutations):
    """How :func:`_compress` reads each block of :func:`_symmetry_bases` (same arguments): a tuple of
    calls of ``rows_of``, each (rows J, runs), a run (part, shape (orbits, k) of its rows J) holding
    whole orbits of one part.  Each part's runs take about GATHER_ENTRIES entries of H's rows, and
    consecutive runs share one call while their entries stay within that budget; cached."""
    plans = []
    for _, parts in _symmetry_bases(n_sites, N, reflections, permutations):
        budget = max(1, GATHER_ENTRIES // sum(r.size for r, _, _, _ in parts))  # rows per call
        calls = []
        for p, (rows, _, j, _) in enumerate(parts):
            step = max(1, budget // len(j))  # orbits per run
            for s in range(0, len(rows), step):
                Jc = rows[s:s + step, j]
                if calls and len(calls[-1][0]) + Jc.size <= budget:
                    calls[-1] = (np.r_[calls[-1][0], Jc.ravel()], calls[-1][1] + ((p, Jc.shape),))
                else:
                    calls.append((Jc.ravel(), ((p, Jc.shape),)))
        for J, _ in calls:
            J.setflags(write=False)
        plans.append(tuple(calls))
    return tuple(plans)


def _compress(rows_of, parts, calls):
    """A = Q* H Q for a basis Q of :func:`_symmetry_bases` whose span H maps into itself, from
    ``rows_of(J)``, the rows J of H (such as a ``partial`` of :func:`assemble_perturbed`), read as
    ``calls`` (:func:`_reads`): as H Q = Q A, A = Q[J]^-1 H[J] Q with Q[J] block-diagonal."""
    A, start = np.empty((sum(len(rows) * len(j) for rows, _, j, _ in parts),) * 2, complex), 0
    for J, runs in calls:
        H = rows_of(J)
        HQ = np.hstack([(H[:, r.ravel()].reshape(-1, len(B)) @ B).reshape(len(J), -1)
                        for r, B, _, _ in parts])
        for p, shape in runs:
            n = shape[0] * shape[1]
            A[start:start + n] = (parts[p][3] @ HQ[:n].reshape(*shape, -1)).reshape(n, -1)
            HQ, start = HQ[n:], start + n
    return A


def dense_spectrum(kind, m, V, grid: GridSpec):
    """All eigenvalues of H_V = H_0 + V, sorted by (real, imaginary) part, with
    multiplicity, and the sizes of the eigensolves in the order they ran.

    V identically zero (absent, or coupling c = 0) gives the free spectrum, with no
    eigensolve.  Any other V, even one that vanishes at every sample, is solved, so
    a job's cost does not hinge on where its support falls.  H_V is split into blocks, each
    solved by :func:`eigenvalues` with its own residual check, by the generators of H_0
    (:class:`FreeOperator`) whose symmetry V(x) = S V(x_g) S* V's samples respect within
    1e-12 max(|V|, 1) (:func:`_symmetry_bases`).  For the scalar kinds in n = 3 a radial V keeps
    the cube's group B_3 (the reflections with the axis swap and cycle): 10 blocks of about
    D/48 to D/16, counted 1, 2 or 3 times; in other dimensions 2^n parity blocks.  A Dirac H_V
    of n = 3 takes S_3 blocks of about D/3 (counted twice), D/6 and D/6, or halves by the swap
    alone; one block of D if V respects no involution.  Each block is formed from the rows of
    H_V it reads just before its eigensolve and dropped after it, so a split job builds no D x D
    matrix."""
    op = free_operator(kind, m, grid)
    if V is None or V.c == 0:
        return free_spectrum(grid, kind, m).astype(complex), []
    samples = potential_on_grid(V, grid)
    tol = 1e-12 * max(np.abs(samples).max(), 1)
    kept = [tuple((p.tobytes(), S.tobytes()) for p, S in gens
                  if np.abs(samples - S @ samples[p] @ S.conj().T).max() <= tol)
            for gens in op.generators]
    rows_of = partial(assemble_perturbed, kind, m, samples, grid)
    key = (len(samples), grid.N, *kept)
    solved = [(eigenvalues(_compress(rows_of, parts, calls)), count)
              for (count, parts), calls in zip(_symmetry_bases(*key), _reads(*key))]
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
    scale = max(np.abs(H).sum(axis=1).max(), 1.0)  # |H|_inf
    k = min(10, len(vals))
    idx = np.arange(k) * (len(vals) - 1) // max(k - 1, 1)  # evenly spaced, both ends
    X, lam = vecs[:, order[idx]], vals[order[idx]]
    res = np.sqrt((np.abs(H @ X - X * lam) ** 2).sum(axis=0) / (np.abs(X) ** 2).sum(axis=0))
    bad = np.flatnonzero(res > 1e-8 * scale)
    if bad.size:
        raise RuntimeError(f"eigenpair {idx[bad[0]]} residual {res[bad[0]]:.3e} exceeds 1e-8 * |H|")
    return vals[order]
