"""Weight functions and the norm functionals built on dyadic annuli.

Annulus j is {2^(j-1) <= |x| < 2^j}.  The dyadic norm aggregates per-annulus
L^q norms in ell^p over j; the Morrey-Campanato norms are computed on grid
fields by radial shell / ball sums.  A radial field's per-annulus norms come
from its :class:`~spectralcert.profiles.Profile` in r: an L^2 norm by
Gauss-Legendre nodes in r, a sup by an upper bound on the closed annulus
(:func:`_sup_bounds`), built from the profile's values and its declared
per-factor log-derivatives, never from a sample maximum.  A potential file is
read cell by cell: each closed cell meets the annuli its radius range meets,
and a weight's sup on that overlap is bounded the same way.

The bounds are upper bounds in floating point, not interval arithmetic: the
values and derivatives are rounded to nearest like any other arithmetic.

Tail policy: when an analytic radial envelope is available (all weight and
potential presets are radial in operator norm) the 200 annuli beyond each end
of the requested j-range are evaluated from the envelope and reported
separately as ``tail_bound``; the annuli beyond those are not counted.
Without an envelope the tail is unknown (None) and any certificate built on
the norm must be inconclusive.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .gridops import GridSpec
from .profiles import Profile

# the catalogue, each kind with the parameters it reads
WEIGHT_PARAMS = {"tau": ("eps",), "w_sigma": ("sigma",), "rho1": ("sigma",),
                 "rho2": ("eps", "delta"), "power": ("exponent",)}
WEIGHT_KINDS = tuple(WEIGHT_PARAMS)


@dataclass(frozen=True)
class WeightSpec:
    """One of the catalogue weights, all radial and positive for x != 0.

    tau:     |x|^(1/2-eps) + |x|          = r^(1/2-eps) (1 + r^(1/2+eps))
    w_sigma: |x| (1+|log|x||)^sigma
    rho1:    (1+|log|x||)^(-sigma/2)
    rho2:    (|x|^-eps + |x|^delta)^-1     = r^eps (1 + r^(eps+delta))^-1
    power:   |x|^exponent

    :meth:`radial` evaluates the formula on the left, :attr:`profile` declares the
    factors on the right for the dyadic norms.
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

    @property
    def profile(self) -> Profile:
        if self.kind == "tau":
            return Profile.of(1.0, ("r", None, 0.5 - self.eps), ("1+r^k", 0.5 + self.eps, 1.0))
        if self.kind == "w_sigma":
            return Profile.of(1.0, ("r", None, 1.0), ("log", None, self.sigma))
        if self.kind == "rho1":
            return Profile.of(1.0, ("log", None, -self.sigma / 2.0))
        if self.kind == "rho2":
            return Profile.of(1.0, ("r", None, self.eps), ("1+r^k", self.eps + self.delta, -1.0))
        return Profile.of(1.0, ("r", None, self.exponent))


@dataclass(frozen=True)
class NormResult:
    """A dyadic-norm estimate plus bookkeeping for a rigorous upper bound.

    ``value`` covers annuli j in [j_min, j_max]; ``tail_bound`` is the
    aggregated envelope contribution of the omitted annuli (None when no
    envelope was available).  ``value + tail_bound`` is always a valid
    upper estimate; :meth:`rigorous_upper` combines them with the exact
    ell^p rule instead.  ``profile_points`` counts the radii at which the
    norm evaluated its profile: a radial profile's, or a file's weight on
    the cells' overlaps with the annuli (0 without a weight).
    """

    value: float
    p: float
    j_min: int
    j_max: int
    tail_bound: float = None
    profile_points: int = 0
    diverged: bool = False

    def rigorous_upper(self):
        if self.diverged:
            return np.inf
        if self.tail_bound is None:
            return None
        if np.isinf(self.p):
            return max(self.value, self.tail_bound)
        return (self.value ** self.p + self.tail_bound ** self.p) ** (1.0 / self.p)

    def tail_share(self):
        """tail_bound / rigorous_upper(); None when either is unknown or the upper bound
        is 0 or infinite."""
        upper = self.rigorous_upper()
        if self.tail_bound is None or upper is None or not 0.0 < upper < np.inf:
            return None
        return self.tail_bound / upper


# -- per-annulus norms of a radial profile ------------------------------

J_RANGE = (-40, 40)  # dyadic annuli 2^j, j in J_RANGE, sampled by default

_J_EXT = 200          # continuation annuli beyond each end of a radial range
_GAUSS_NODES = 64     # Gauss-Legendre nodes of an L^2 norm
_GAUSS_ROWS = 128     # annuli per profile call of an L^2 norm: about 64 KB per temporary
_SUP_RTOL = 1e-9      # a piece is settled once its bound is within this of its interval's top value
_SUP_SPLIT = 8        # parts of equal log-width an unsettled piece is split into
_SUP_POINTS = 4096    # profile points of one sup call beyond its intervals' ends and breaks


def _sphere_area(n):
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


def _annulus_bounds(js):
    """Inner and outer radius of each annulus j in ``js`` (exact powers of two)."""
    return np.ldexp(1.0, js - 1), np.ldexp(1.0, js)


def _piece_bounds(va, vb, sa, sb, h):
    """Upper bounds of a profile on pieces [a, b] of log-width h = ln(b/a), and whether each
    is exact.

    ``va``, ``vb`` are the values at the ends, ``sa``, ``sb`` (factor, piece) the factors'
    log-derivatives at the ends, each the limit from inside the piece.  Each factor's
    derivative is monotone on a piece, so the derivative g' of g = ln(profile) lies in
    [-down, up] with up = sum max(sa, sb) and down = -sum min(sa, sb).  If up <= 0 or
    down <= 0, g is monotone and the sup is the larger end value, exactly.  Otherwise
    g(t) <= min(g(a) + up (t - a), g(b) + down (b - t)), whose peak lies
    first (second h - |g(a) - g(b)|) / (up + down) above the larger end: ``first`` the
    slope bound leaving that end, ``second`` the other.  The peak is first h, the bound of
    the first line alone, where second or the gap is infinite: an end value of 0 from
    underflow comes with a finite slope, and the gap to it says nothing about g.  A value
    below the float range reads 0, so a bound of 0 may stand for a sup below about 1e-300.
    """
    up, down = np.maximum(sa, sb).sum(axis=0), -np.minimum(sa, sb).sum(axis=0)
    exact = (up <= 0.0) | (down <= 0.0)
    top = np.maximum(va, vb)
    left = va >= vb
    first, second = np.where(left, up, down), np.where(left, down, up)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(np.log(va) - np.log(vb))
        rise = np.where(np.isinf(second) | np.isinf(gap), first * h,
                        first * (second * h - gap) / (first + second))
    rise = np.where(exact | ~(top > 0.0) | np.isinf(top), 0.0, np.maximum(rise, 0.0))
    return top * np.exp(rise), exact


def _sup_bounds(profile, breaks, lo, hi):
    """Upper bounds of the sup of ``profile`` on each closed interval [lo, hi] (0 < lo <= hi),
    and the number of radii evaluated.

    ``profile`` maps radii to (values, per-factor one-sided log-derivatives), each
    derivative monotone between the radii ``breaks`` (a :class:`Profile` and its
    ``breaks``).  The intervals are cut at the breaks into pieces, which
    :func:`_piece_bounds` bounds.  A piece is settled when its bound is exact or within
    _SUP_RTOL of the largest value seen on its interval; the others are split into
    _SUP_SPLIT parts, all intervals' new radii in one profile call per round.  Splitting
    stops before it would take more than _SUP_POINTS radii beyond the first call's, with
    every bound still valid.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    edges = np.stack([lo, *(np.clip(b, lo, hi) for b in sorted(breaks)), hi])
    radii = np.unique(edges)
    values, slopes = profile(radii)
    points, budget = radii.size, radii.size + _SUP_POINTS
    sup = np.maximum(values[np.searchsorted(radii, lo)], values[np.searchsorted(radii, hi)])
    best = sup.copy()  # the largest value seen on each interval

    a, b = edges[:-1].ravel(), edges[1:].ravel()
    owner = np.tile(np.arange(lo.size), len(edges) - 1)
    piece = a < b
    a, b, owner = a[piece], b[piece], owner[piece]
    ia, ib = np.searchsorted(radii, a), np.searchsorted(radii, b)
    va, vb, sa, sb = values[ia], values[ib], slopes[1][:, ia], slopes[0][:, ib]
    frac = np.arange(1, _SUP_SPLIT) / _SUP_SPLIT
    while True:
        bound, exact = _piece_bounds(va, vb, sa, sb, np.log(b / a))
        done = exact | (bound <= best[owner] * (1.0 + _SUP_RTOL))
        open_ = np.flatnonzero(~done)
        if not open_.size or points + open_.size * frac.size > budget:
            np.maximum.at(sup, owner, bound)
            return sup, points
        np.maximum.at(sup, owner[done], bound[done])
        a, b, owner, va, vb = a[open_], b[open_], owner[open_], va[open_], vb[open_]
        sa, sb = sa[:, open_], sb[:, open_]
        inner = a[:, None] * (b / a)[:, None] ** frac
        vi, si = profile(inner.ravel())
        points += inner.size
        vi, si = vi.reshape(inner.shape), si.reshape(2, len(sa), *inner.shape)
        np.maximum.at(best, owner, vi.max(axis=1))
        ends = np.concatenate([a[:, None], inner, b[:, None]], axis=1)
        vals = np.concatenate([va[:, None], vi, vb[:, None]], axis=1)
        a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
        va, vb = vals[:, :-1].ravel(), vals[:, 1:].ravel()
        sa = np.concatenate([sa[:, :, None], si[1]], axis=2).reshape(len(sa), -1)
        sb = np.concatenate([si[0], sb[:, :, None]], axis=2).reshape(len(sb), -1)
        owner = np.repeat(owner, _SUP_SPLIT)


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


def _annulus_terms(profile, breaks, js, n, q):
    """Per-annulus L^q norms of the radial ``profile`` on the annuli ``js`` (an upper bound
    of the sup, or the Gauss L^2 norm), and the number of radii evaluated."""
    lo, hi = _annulus_bounds(js)
    if np.isinf(q):
        return _sup_bounds(profile, breaks, lo, hi)
    terms = []
    for k in range(0, len(js), _GAUSS_ROWS):
        r, w = _gauss_nodes(lo[k:k + _GAUSS_ROWS], hi[k:k + _GAUSS_ROWS])
        values = profile(r)[0]
        terms.append(np.sqrt(_sphere_area(n) * np.sum(w * r ** (n - 1) * values ** 2, axis=-1)))
    return np.concatenate(terms), len(js) * _GAUSS_NODES


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


def dyadic_norm(profile, p, q, n, j_range=J_RANGE, *, breaks) -> NormResult:
    """ell^p aggregation over dyadic annuli of per-annulus L^q norms of a radial field.

    ``profile`` gives the field's magnitude as a function of r = |x| with its
    per-factor log-derivatives, and ``breaks`` the radii where those jump (a
    :class:`Profile` and its ``breaks``, passed apart so that a wrapper of the
    callable keeps them).  It is evaluated exactly in 1-D, many annuli per call,
    and doubles as the tail envelope: the 200 annuli beyond each end of the
    range give ``tail_bound``.  Each sup term is an upper bound, each L^2 term a
    64-node Gauss sum.

    A divergent ell^p sum (terms not decaying toward either end of the
    range) is reported with ``diverged=True`` and an infinite value rather
    than a misleading number.
    """
    _check_exponents(p, q)
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError(f"empty annulus range {j_range}")
    js = np.arange(j_min - _J_EXT, j_max + 1 + _J_EXT)
    every, points = _annulus_terms(profile, breaks, js, n, q)
    terms = every[_J_EXT:len(js) - _J_EXT]
    diverged = _detect_divergence(terms, p)
    value = np.inf if diverged else _aggregate(terms, p)

    tail = None
    if not diverged:
        ext_terms = np.concatenate([every[:_J_EXT], every[len(js) - _J_EXT:]])
        if not _detect_divergence(ext_terms, p):
            tail = _aggregate(ext_terms, p)
    return NormResult(value=value, p=float(p), j_min=j_min, j_max=j_max,
                      tail_bound=tail, profile_points=points, diverged=diverged)


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
    """Dyadic ell^p L^q norm over J_RANGE of weight(|x|) mag[c] (weight None: 1, else a
    :class:`Profile`) on each closed cell c of the lattice (n, L, M), 0 outside its box:
    a potential file's norm.

    Cell c meets annulus j when near < 4^j and far >= 4^(j-1).  A sup is the largest
    mag[c] times an upper bound of the weight's sup on the closed overlap of the radius
    ranges (:func:`_sup_bounds`); an L^2 norm is
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
    val, points = mag[c], 0
    if weight is not None and len(c):
        overlaps = np.stack([np.maximum(np.sqrt(near[c]), lo[k]),
                             np.minimum(np.sqrt(far[c]), hi[k])], axis=1)
        overlaps, pair = np.unique(overlaps, axis=0, return_inverse=True)
        sups, points = _sup_bounds(weight, weight.breaks, *overlaps.T)
        val = val * sups[pair]
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
                      profile_points=points)


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
