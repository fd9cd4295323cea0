"""Weight functions and the norm functionals built on dyadic annuli.

Annulus j is {2^(j-1) <= |x| < 2^j}.  The dyadic norm aggregates per-annulus
L^q norms in ell^p over j; the Morrey-Campanato norms are computed on grid
fields by radial shell / ball sums.  A radial field's per-annulus norms
come from its profile in r: sup norms by iterative sampling refinement,
never by quadrature, L^2 norms by Gauss-Legendre nodes in r, with fixed
sample counts.  A potential file is read cell by cell: each closed cell
meets the annuli its radius range meets, and only a weight's sup on that
overlap is sampled.

Tail policy: when an analytic radial envelope is available (all weight and
potential presets are radial in operator norm) the annuli outside the
requested j-range are evaluated from the envelope and reported separately
as ``tail_bound``; without an envelope the tail is unknown (None) and any
certificate built on the norm must be inconclusive.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .gridops import GridSpec

# the catalogue, each kind with the parameters it reads
WEIGHT_PARAMS = {"tau": ("eps",), "w_sigma": ("sigma",), "rho1": ("sigma",),
                 "rho2": ("eps", "delta"), "power": ("exponent",)}
WEIGHT_KINDS = tuple(WEIGHT_PARAMS)


@dataclass(frozen=True)
class WeightSpec:
    """One of the catalogue weights, all radial and positive for x != 0.

    tau:     |x|^(1/2-eps) + |x|
    w_sigma: |x| (1+|log|x||)^sigma
    rho1:    (1+|log|x||)^(-sigma/2)
    rho2:    (|x|^-eps + |x|^delta)^-1
    power:   |x|^exponent
    """

    kind: str
    eps: float = 0.5
    sigma: float = 2.0
    delta: float = 0.5
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "tau" and not self.eps > 0:
            raise ValueError("tau weight needs eps > 0")
        if self.kind in ("w_sigma", "rho1") and not self.sigma > 1:
            raise ValueError(f"{self.kind} weight needs sigma > 1")
        if self.kind == "rho2" and not (self.eps > 0 and self.delta > 0):
            raise ValueError("rho2 weight needs eps > 0 and delta > 0")

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "tau":
            return r ** (0.5 - self.eps) + r
        if self.kind == "w_sigma":
            return r * (1.0 + np.abs(np.log(r))) ** self.sigma
        if self.kind == "rho1":
            return (1.0 + np.abs(np.log(r))) ** (-self.sigma / 2.0)
        if self.kind == "rho2":
            return 1.0 / (r ** -self.eps + r ** self.delta)
        return r ** self.exponent


@dataclass(frozen=True)
class NormResult:
    """A dyadic-norm estimate plus bookkeeping for a rigorous upper bound.

    ``value`` covers annuli j in [j_min, j_max]; ``tail_bound`` is the
    aggregated envelope contribution of the omitted annuli (None when no
    envelope was available).  ``value + tail_bound`` is always a valid
    upper estimate; :meth:`rigorous_upper` combines them with the exact
    ell^p rule instead.  ``samples_per_annulus`` counts the radii of one
    sup refinement round (q = inf) or the Gauss nodes (q = 2) of a radial
    profile; of a file's norm, the radii per round of a weight's sup on one
    cell's overlap with an annulus (0 without a weight).
    """

    value: float
    p: float
    j_min: int
    j_max: int
    tail_bound: float = None
    samples_per_annulus: int = 0
    diverged: bool = False

    def rigorous_upper(self):
        if self.diverged:
            return np.inf
        if self.tail_bound is None:
            return None
        if np.isinf(self.p):
            return max(self.value, self.tail_bound)
        return (self.value ** self.p + self.tail_bound ** self.p) ** (1.0 / self.p)


# -- sampling helpers ---------------------------------------------------

J_RANGE = (-40, 40)  # dyadic annuli 2^j, j in J_RANGE, sampled by default

_J_EXT = 200                # continuation annuli beyond each end of a radial range
_SUP_SAMPLES = 256          # radii per refinement round of a sup
_GAUSS_NODES = 64           # Gauss-Legendre nodes of an L^2 norm
_SUP_ROUNDS = 3             # refinement rounds of a sup
_BLOCK_SAMPLES = 8192       # samples per profile call, about 64 KB per temporary


def _sphere_area(n):
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


def _annulus_bounds(js):
    """Inner and outer radius of each annulus j in ``js`` (exact powers of two)."""
    return np.ldexp(1.0, js - 1), np.ldexp(1.0, js)


def _blocks(fn, rows, samples):
    """``fn`` over blocks of ``rows`` that take ``samples`` samples each, as many rows
    per call as fit in _BLOCK_SAMPLES samples (at least one), concatenated."""
    step = max(1, _BLOCK_SAMPLES // samples)
    return np.concatenate([fn(rows[k:k + step]) for k in range(0, len(rows), step)])


def _refined_sup(values, lo, hi):
    """Sup over [lo, hi] per row by log-spaced refinement.

    ``values`` maps radii of shape (J, _SUP_SAMPLES) to magnitudes of the
    same shape.  Each round samples every row, keeps its running max and
    narrows the row to the two neighbours of its argmax radius (with this
    many samples, no bracket collapses in 3 rounds).
    """
    best = np.zeros(len(lo))
    rows = np.arange(len(lo))
    for _ in range(_SUP_ROUNDS):
        r = np.ascontiguousarray(np.geomspace(lo, hi, _SUP_SAMPLES, axis=-1))
        vals = values(r)
        i = np.argmax(vals, axis=1)
        top = vals[rows, i]
        best = np.where(top > best, top, best)
        lo = r[rows, np.maximum(i - 1, 0)]
        hi = r[rows, np.minimum(i + 1, _SUP_SAMPLES - 1)]
    return best


@lru_cache(maxsize=1)
def _legendre():
    """Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    t, wts = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    t.setflags(write=False)
    wts.setflags(write=False)
    return t, wts


def _gauss_nodes(lo, hi):
    """Gauss-Legendre nodes and weights mapped onto each [lo, hi], one row per annulus."""
    t, wts = _legendre()
    lo, hi = lo[:, None], hi[:, None]
    return 0.5 * (hi - lo) * t + 0.5 * (hi + lo), 0.5 * (hi - lo) * wts


def _annulus_terms(profile, js, n, q):
    """Per-annulus L^q norms of the radial ``profile`` on the annuli ``js``: a refined
    sup, or the Gauss L^2 norm."""
    lo, hi = _annulus_bounds(js)
    if np.isinf(q):
        return _refined_sup(lambda r: np.abs(profile(r)), lo, hi * (1.0 - 1e-9))
    r, w = _gauss_nodes(lo, hi)
    return np.sqrt(_sphere_area(n) * np.sum(w * r ** (n - 1) * np.abs(profile(r)) ** 2, axis=-1))


def _detect_divergence(terms, p, outer=True):
    """Partial sums not Cauchy: non-decaying significant terms outward from the
    inner end of the range, or from its outer end if ``outer``."""
    if np.isinf(p) or len(terms) < 8:
        return False
    t = np.asarray(terms)
    peak = t.max()
    if peak == 0.0:
        return False
    for edge in (t[:6][::-1], t[-6:])[:2 if outer else 1]:  # outward order at each end
        if edge[-1] > 1e-10 * peak and np.all(np.diff(edge) > -1e-12 * peak):
            return True
    return False


def _aggregate(terms, p):
    t = np.asarray(terms, dtype=float)
    if np.isinf(p):
        return float(t.max(initial=0.0))
    return float(np.sum(t ** p) ** (1.0 / p))


def _check_exponents(p, q):
    if p not in (1, 2, np.inf) or q not in (2, np.inf):
        raise ValueError(f"need p in (1, 2, inf) and q in (2, inf), got p = {p}, q = {q}")


def dyadic_norm(profile, p, q, n, j_range=J_RANGE) -> NormResult:
    """ell^p aggregation over dyadic annuli of per-annulus L^q norms of a radial field.

    ``profile`` gives the field's magnitude as a function of r = |x|.  It is
    evaluated exactly in 1-D and doubles as the tail envelope: the 200 annuli
    beyond each end of the range give ``tail_bound``.  It receives many
    annuli per call (radii of shape (J, S)); each annulus gets exactly the
    samples and arithmetic it would get alone.

    A divergent ell^p sum (terms not decaying toward either end of the
    range) is reported with ``diverged=True`` and an infinite value rather
    than a misleading number.
    """
    _check_exponents(p, q)
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError(f"empty annulus range {j_range}")
    samples = _SUP_SAMPLES if np.isinf(q) else _GAUSS_NODES
    js = np.arange(j_min - _J_EXT, j_max + 1 + _J_EXT)
    every = _blocks(lambda block: _annulus_terms(profile, block, n, q), js, samples)
    terms = every[_J_EXT:len(js) - _J_EXT]
    diverged = _detect_divergence(terms, p)
    value = np.inf if diverged else _aggregate(terms, p)

    tail = None
    if not diverged:
        ext_terms = np.concatenate([every[:_J_EXT], every[len(js) - _J_EXT:]])
        if not _detect_divergence(ext_terms, p):
            tail = _aggregate(ext_terms, p)
    return NormResult(value=value, p=float(p), j_min=j_min, j_max=j_max,
                      tail_bound=tail, samples_per_annulus=samples, diverged=diverged)


@lru_cache(maxsize=4)
def _lattice_cells(n, L, M):
    """Squared-radius range (near, far) of each closed cell of the lattice (n, L, M), in
    site order, and the orthants it has volume in; exact on dyadic lattices."""
    a = (2 * np.arange(M) - M) * (L / M)
    b = (2 * np.arange(M) + 2 - M) * (L / M)
    sites = np.indices((M,) * n).reshape(n, -1)
    cells = (np.where(a * b <= 0.0, 0.0, np.minimum(a * a, b * b))[sites].sum(axis=0),
             np.maximum(a * a, b * b)[sites].sum(axis=0),
             ((a < 0.0).astype(int) + (b > 0.0))[sites].prod(axis=0))
    for x in cells:
        x.setflags(write=False)
    return cells


def cell_dyadic_norm(mag, n, L, M, p, q, weight=None) -> NormResult:
    """Dyadic ell^p L^q norm over J_RANGE of weight(|x|) mag[c] (weight None: 1) on each
    closed cell c of the lattice (n, L, M), 0 outside its box: a potential file's norm.

    Cell c meets annulus j when near < 4^j and far >= 4^(j-1).  A sup is the largest
    mag[c] times the weight's sup on the overlap of the radius ranges; an L^2 norm is
    the upper bound sqrt(sum_c mag[c]^2 sup w^2 min(vol c, vol(A_j) o_c / 2^n)), o_c the
    orthants c has volume in.  Beyond the box every term is 0, so only the inner end is
    checked for divergence; the tail is unknown.
    """
    _check_exponents(p, q)
    js = np.arange(J_RANGE[0], J_RANGE[1] + 1)
    lo, hi = _annulus_bounds(js)
    near, far, orthants = _lattice_cells(n, L, M)
    cells = np.flatnonzero(mag)
    row, k = np.nonzero((near[cells, None] < hi * hi) & (far[cells, None] >= lo * lo))
    c = cells[row]  # the (cell, annulus) pairs that meet, by cell, then annulus
    val = mag[c]
    if weight is not None and len(c):
        overlaps = np.stack([np.maximum(np.sqrt(near[c]), lo[k]),
                             np.minimum(np.sqrt(far[c]), hi[k] * (1.0 - 1e-9))], axis=1)
        overlaps, pair = np.unique(overlaps, axis=0, return_inverse=True)
        val = val * _blocks(lambda rows: _refined_sup(lambda r: np.abs(weight(r)), *rows.T),
                            overlaps, _SUP_SAMPLES)[pair]
    terms = np.zeros(len(js))
    if np.isinf(q):
        np.maximum.at(terms, k, val)
    else:
        annulus = _sphere_area(n) / n * hi ** n * (1.0 - 0.5 ** n)
        share = np.minimum((2.0 * L / M) ** n, annulus[k] * orthants[c] / 2 ** n)
        terms = np.sqrt(np.bincount(k, weights=val ** 2 * share, minlength=len(js)))
    diverged = _detect_divergence(terms, p, outer=False)
    return NormResult(value=np.inf if diverged else _aggregate(terms, p), p=float(p),
                      j_min=J_RANGE[0], j_max=J_RANGE[1], diverged=diverged,
                      samples_per_annulus=0 if weight is None else _SUP_SAMPLES)


# -- grid-field norms ---------------------------------------------------
#
# A field enters these norms as its grid and its magnitude at every site
# (shape (M^n,)), so a spinor field, its gradient or any other stack of
# components on the same lattice is measured the same way.

@lru_cache(maxsize=4)
def _lattice_annuli(n, L, M):
    """Site orders of the lattice (n, L, M) that the grid norms read, computed once per lattice.

    Returns the sites grouped by annulus index (a stable sort, so each
    annulus keeps its sites in site order), the start of every group after
    the first, and the sites in order of radius.  Keyed by the lattice, not
    by a GridSpec, so the cache keeps no grid and none of its cached arrays.
    """
    radii = GridSpec(n, L, M).radii
    j_idx = np.floor(np.log2(radii)).astype(int) + 1
    by_annulus = np.argsort(j_idx, kind="stable")
    starts = np.flatnonzero(np.diff(j_idx[by_annulus])) + 1
    by_radius = np.argsort(radii)
    for a in (by_annulus, starts, by_radius):
        a.setflags(write=False)
    return by_annulus, starts, by_radius


def grid_dyadic_norm(grid, mag, p, weight_exponent) -> float:
    """Dyadic ell^p L^2 norm of |x|^a times a field on ``grid`` with site magnitudes
    ``mag``, a = ``weight_exponent``.

    Annuli are the cells with 2^(j-1) <= |x| < 2^j, and each L^2 sum carries
    the cell volume.  Only annuli intersecting the box contribute (the field
    is supported there by construction).
    """
    by_annulus, starts, _ = _lattice_annuli(grid.n, grid.L, grid.M)
    groups = np.split((grid.radii ** weight_exponent * mag)[by_annulus], starts)
    return _aggregate([np.sqrt(np.sum(g ** 2) * grid.cell_volume) for g in groups], p)


def morrey_norms(grid, mag):
    """Morrey-Campanato norms (X, Y) of a field on ``grid`` with site magnitudes ``mag``.

    X:  sup over radial shells of R^-2 * (surface integral of |u|^2),
        shells of width h, surface integral = shell cell sum / h;
    Y:  sup over R of R^-1 * (integral of |u|^2 over |x| <= R), the sup
        taken over all sample radii.
    """
    radii, vol, h = grid.radii, grid.cell_volume, grid.h
    sq = mag ** 2

    shell = np.floor(radii / h).astype(int)
    n_shells = shell.max() + 1
    shell_sum = np.bincount(shell, weights=sq, minlength=n_shells)
    R_shell = (np.arange(n_shells) + 0.5) * h
    X2 = np.max(shell_sum * vol / h / R_shell ** 2)

    order = _lattice_annuli(grid.n, grid.L, grid.M)[2]
    csum = np.cumsum(sq[order]) * vol
    Y2 = np.max(csum / radii[order])
    return float(np.sqrt(X2)), float(np.sqrt(Y2))
