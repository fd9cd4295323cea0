"""Matrix-valued potentials, pointwise operator norms, and polar factors.

The preset catalogue covers the hypotheses of the stability theorems:

* ``inverse-square``       c (1+|x|)^-2 I_N             (complex c allowed)
* ``bump``                 smooth, compactly supported in |x| < R, height c
* ``dyadic-decay``         c |x|^-1 (1+|log|x||)^-sigma I_N
* ``matrix-mix``           c (1+|x|)^-2 (alpha_1 + i I_N), non-Hermitian

All presets have radial pointwise operator norm, exposed exactly through
:attr:`PotentialSpec.profile`, declared factor by factor; the dyadic norm
engine uses that profile as an analytic envelope for tail bounds.
Grid-sampled potentials evaluate by nearest-sample lookup (no interpolation)
and carry no envelope; lookups outside the sampled box are errors.  Their
operator norms are one table, |V| at every lattice site
(:attr:`PotentialSpec.opnorm_table`): V is constant on the closed cell around
each site, and the dyadic norms read each cell's |V| from the table and take
|V| as 0 outside the box.
"""

from dataclasses import dataclass, field
from functools import cached_property
import hashlib
from math import inf, log2
import struct
import warnings

import numpy as np

from .clifford import build_clifford
from .profiles import Profile

# preset -> the parameters beyond c that its profile reads
PRESET_PARAMS = {"inverse-square": (), "complex-inverse-square": (), "bump": ("R",),
                 "dyadic-decay": ("sigma",), "matrix-mix": ()}
PRESETS = tuple(PRESET_PARAMS)


@dataclass(frozen=True)
class PotentialSpec:
    """A potential V: R^n -> C^{NxN}, analytic preset or grid-sampled."""

    n: int
    N: int
    kind: str
    c: complex = 1.0
    R: float = 1.0
    sigma: float = 2.0
    # grid-sampled data: samples on the half-cell-offset lattice of a box [-L, L)^n
    grid_L: float = 0.0
    grid_M: int = 0
    values: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def preset(cls, kind, n, N, c=1.0, R=1.0, sigma=2.0):
        if kind == "complex-inverse-square":
            kind = "inverse-square"
        if kind not in PRESETS:
            raise ValueError(f"unknown preset {kind!r}, expected one of {PRESETS}")
        if kind == "matrix-mix" and N != build_clifford(n).N:
            raise ValueError(f"matrix-mix needs N = {build_clifford(n).N} in dimension {n}, "
                             f"got N = {N}")
        return cls(n=n, N=N, kind=kind, c=complex(c), R=float(R), sigma=float(sigma))

    @classmethod
    def from_samples(cls, n, N, L, M, values):
        """V sampled at the M^n lattice sites of [-L, L)^n, in C-order (last index fastest)."""
        _check_lattice(n, N, M, L)
        values = np.asarray(values, dtype=complex)
        if values.shape != (M ** n, N, N):
            raise ValueError(f"values shape {values.shape} != {(M ** n, N, N)}")
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        return cls(n=n, N=N, kind="grid-sampled", grid_L=float(L), grid_M=int(M), values=values)

    # -- evaluation -----------------------------------------------------

    def scalar_profile(self, r):
        """Scalar radial factor of the preset at radius r (complex, includes c)."""
        r = np.asarray(r, dtype=float)
        if self.kind in ("inverse-square", "matrix-mix"):
            return self.c / (1.0 + r) ** 2
        if self.kind == "bump":
            out = np.zeros(r.shape, dtype=complex)
            inside = r < self.R
            s = (r[inside] / self.R) ** 2
            out[inside] = self.c * np.exp(1.0 - 1.0 / (1.0 - s))
            return out
        if self.kind == "dyadic-decay":
            with np.errstate(divide="ignore"):
                lg = np.abs(np.log(r))
            return self.c / (r * (1.0 + lg) ** self.sigma)
        raise ValueError(f"no scalar profile for kind {self.kind!r}")

    def evaluate(self, x):
        """V at points x of shape (n,) or (k, n); returns (N, N) or (k, N, N)."""
        squeeze = np.ndim(x) == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.n:
            raise ValueError(f"points have dimension {x.shape[-1]}, expected {self.n}")
        if self.kind == "grid-sampled":
            out = self._lookup(x)
        else:
            r = np.linalg.norm(x, axis=-1)
            s = self.scalar_profile(r)
            if self.kind == "matrix-mix":
                base = build_clifford(self.n).alphas[1] + 1j * np.eye(self.N)
                out = s[:, None, None] * base[None]
            else:
                out = s[:, None, None] * np.eye(self.N)[None]
        return out[0] if squeeze else out

    def _lookup(self, x):
        """The sample at the lattice site nearest each point of x, shape (k, n)."""
        L, M = self.grid_L, self.grid_M
        if np.any(np.abs(x) > L):
            bad = x[np.any(np.abs(x) > L, axis=-1)][0]
            raise ValueError(f"point {bad} outside sampled box [-{L}, {L})^{self.n}")
        idx = np.clip(np.round((x + L) / (2.0 * L / M) - 0.5).astype(int), 0, M - 1)
        return self.values[np.ravel_multi_index(idx.T, (M,) * self.n)]

    @cached_property
    def opnorm_table(self):
        """|V| at every lattice site of a grid-sampled V, shape (M^n,): one batched SVD."""
        if self.kind != "grid-sampled":
            raise ValueError("only grid-sampled potentials have a table of |V|")
        return np.linalg.svd(self.values, compute_uv=False)[:, 0]

    @property
    def profile(self):
        """The exact pointwise operator norm |V(x)| as a function of r = |x|, with its
        declared factors (presets only)."""
        if self.kind == "grid-sampled":
            raise ValueError("grid-sampled potentials have no analytic radial profile")
        c = abs(self.c)
        if self.kind == "bump":
            return Profile.of(c, ("bump", self.R, 1.0))
        if self.kind == "dyadic-decay":
            return Profile.of(c, ("r", None, -1.0), ("log", None, -self.sigma))
        if self.kind == "matrix-mix":
            c *= np.sqrt(2.0)  # alpha_1 has eigenvalues +-1, so |alpha_1 + iI| = sqrt(2)
        return Profile.of(c, ("1+r^k", 1.0, -2.0))

    def radial_opnorm(self, r):
        """|V(x)| at radii r = |x|: the values of :attr:`profile` (presets only)."""
        return self.profile(r)[0]

    def content_hash(self):
        """Stable hash of the defining data, recorded in certificates."""
        h = hashlib.sha256()
        h.update(repr((self.n, self.N, self.kind, self.c, self.R, self.sigma,
                       self.grid_L, self.grid_M)).encode())
        if self.values is not None:
            h.update(np.ascontiguousarray(self.values).tobytes())
        return h.hexdigest()[:16]


def polar_factors(samples):
    """Factors (A, B) of samples V of shape (..., N, N): B* A = V and |A| = |B| = |V|^(1/2).

    Built from one singular value decomposition V = P S Q* per sample:
    A = Q sqrt(S) Q* (= sqrt(W) with W = sqrt(V*V)) and B = Q sqrt(S) P*
    (= sqrt(W) U* with the partial isometry U = P Q*, completed by the
    identity on the kernel of W).
    """
    P, s, Qh = np.linalg.svd(samples)
    rs = np.sqrt(s)
    Q = np.swapaxes(Qh.conj(), -1, -2)
    A = np.einsum("...ik,...k,...jk->...ij", Q, rs, Q.conj())
    B = np.einsum("...ik,...k,...jk->...ij", Q, rs, P.conj())
    return A, B


# -- grid-sampled potential files --------------------------------------
#
# Text format: first line "n N M L", then one row per lattice site, in any
# order but each site once: the n integer indices followed by the N*N matrix
# entries in row-major order, each as "re im".
#
# Binary format: ASCII magic "SCPT1\n", then little-endian int64 n, N, M,
# float64 L, then M^n * N * N little-endian complex128 values, the sites in
# C-order (last index fastest; indices are implicit).

_MAGIC = b"SCPT1\n"
_HEADER = struct.Struct("<qqqd")


def _check_lattice(n, N, M, L):
    if min(n, N, M) < 1 or not 0.0 < L < inf or n * log2(M) >= 63:
        raise ValueError(f"need n, N, M >= 1, M^n < 2^63 and a finite L > 0, got {n, N, M, L}")


def save_potential_text(V: PotentialSpec, path):
    if V.kind != "grid-sampled":
        raise ValueError("only grid-sampled potentials are serializable")
    sites = np.unravel_index(np.arange(len(V.values)), (V.grid_M,) * V.n)
    pairs = np.stack([V.values.real, V.values.imag], axis=-1).reshape(len(V.values), -1)
    np.savetxt(path, np.column_stack([*sites, pairs]), fmt="%.17g",
               header=f"{V.n} {V.N} {V.grid_M} {V.grid_L!r}", comments="")


def load_potential_text(path) -> PotentialSpec:
    with open(path) as fh:
        n, N, M, L = fh.readline().split()
        n, N, M, L = int(n), int(N), int(M), float(L)
        _check_lattice(n, N, M, L)
        with warnings.catch_warnings():
            # a file without rows fails the shape check below; loadtxt need not warn first
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, ndmin=2)
    if rows.shape != (M ** n, n + 2 * N * N):
        raise ValueError(f"expected {M ** n} rows of {n + 2 * N * N} numbers, got {rows.shape}")
    idx = rows[:, :n]
    if np.any((idx != np.round(idx)) | (idx < 0) | (idx >= M)):
        raise ValueError(f"site indices must be integers in [0, {M})")
    flat = np.ravel_multi_index(idx.astype(int).T, (M,) * n)
    order = np.argsort(flat)
    if np.any(flat[order] != np.arange(M ** n)):
        raise ValueError("each lattice site must have exactly one row")
    pairs = rows[order, n:].reshape(M ** n, N, N, 2)
    return PotentialSpec.from_samples(n, N, L, M, pairs[..., 0] + 1j * pairs[..., 1])


def save_potential_binary(V: PotentialSpec, path):
    if V.kind != "grid-sampled":
        raise ValueError("only grid-sampled potentials are serializable")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _HEADER.pack(V.n, V.N, V.grid_M, V.grid_L))
        fh.write(np.ascontiguousarray(V.values, dtype="<c16").tobytes())


def load_potential_binary(path) -> PotentialSpec:
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(_MAGIC) + _HEADER.size
    if not data.startswith(_MAGIC):
        raise ValueError(f"not a potential file (bad magic {data[:len(_MAGIC)]!r})")
    if len(data) < start:
        raise ValueError(f"header has {len(data) - len(_MAGIC)} bytes, expected {_HEADER.size}")
    n, N, M, L = _HEADER.unpack_from(data, len(_MAGIC))
    _check_lattice(n, N, M, L)
    if len(data) - start != 16 * M ** n * N * N:
        raise ValueError(f"body has {len(data) - start} bytes, expected {16 * M ** n * N * N}")
    values = np.frombuffer(data, dtype="<c16", offset=start).reshape(M ** n, N, N)
    return PotentialSpec.from_samples(n, N, L, M, values)
