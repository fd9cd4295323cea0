"""Weight functions and the norm functionals built on dyadic annuli.

Annulus j is {2^(j-1) <= |x| < 2^j}.  The dyadic norm aggregates per-annulus
L^q norms in ell^p over j; the Morrey-Campanato norms are computed on grid
fields by radial shell / ball sums.  One engine takes every per-annulus
norm, from the magnitudes along D rays: a radial profile is one ray, a
field that is not radial is sampled along 2n + 16 fixed rays.  Sup norms on
annuli are estimated by iterative sampling refinement, never by quadrature;
L^2 norms by Gauss-Legendre nodes in r.  The sample counts are fixed.

Tail policy: when an analytic radial envelope is available (all weight and
potential presets are radial in operator norm) the annuli outside the
requested j-range are evaluated from the envelope and reported separately
as ``tail_bound``; without an envelope the tail is unknown (None) and any
certificate built on the norm must be inconclusive.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridops import GridSpec

WEIGHT_KINDS = ("tau", "w_sigma", "rho1", "rho2", "power")  # the catalogue; "product" composes it


@dataclass(frozen=True)
class WeightSpec:
    """One of the catalogue weights, all radial and positive for x != 0.

    tau:     |x|^(1/2-eps) + |x|
    w_sigma: |x| (1+|log|x||)^sigma
    rho1:    (1+|log|x||)^(-sigma/2)
    rho2:    (|x|^-eps + |x|^delta)^-1
    power:   |x|^exponent
    product: pointwise product of other WeightSpecs
    """

    kind: str
    eps: float = 0.5
    sigma: float = 2.0
    delta: float = 0.5
    exponent: float = 1.0
    factors: tuple = ()

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS and self.kind != "product":
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
        if self.kind == "power":
            return r ** self.exponent
        out = np.ones_like(r)
        for w in self.factors:
            out = out * w.radial(r)
        return out


def weight_eval(w: WeightSpec, x):
    """Weight value at points x (shape (n,) or (k, n)); rejects x = 0."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("weights are singular or vanishing at the origin; x must be nonzero")
    return w.radial(r)


@dataclass(frozen=True)
class NormResult:
    """A dyadic-norm estimate plus bookkeeping for a rigorous upper bound.

    ``value`` covers annuli j in [j_min, j_max]; ``tail_bound`` is the
    aggregated envelope contribution of the omitted annuli (None when no
    envelope was available).  ``value + tail_bound`` is always a valid
    upper estimate; :meth:`rigorous_upper` combines them with the exact
    ell^p rule instead.  ``samples_per_annulus`` counts the samples of one
    sup refinement round (q = inf) or the Gauss nodes (q = 2), over all
    sampled directions.
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
_RADIAL_SUP_SAMPLES = 256   # radii per refinement round of a radial sup
_RAY_SUP_SAMPLES = 64       # radii per refinement round along each ray
_GAUSS_NODES = 64           # Gauss-Legendre nodes of an L^2 norm
_SUP_ROUNDS = 3             # refinement rounds of a sup
_RAY_EXTRA, _RAY_SEED = 16, 7  # seeded random rays beyond the 2n signed axes
_BLOCK_SAMPLES = 8192       # samples per profile call, about 64 KB per temporary


def _directions(n):
    """The 2n + 16 fixed rays: e_0, -e_0, e_1, ..., then seeded random unit vectors."""
    axes = np.stack([np.eye(n), 0.0 - np.eye(n)], axis=1).reshape(2 * n, n)
    random = np.random.default_rng(_RAY_SEED).normal(size=(_RAY_EXTRA, n))
    return np.concatenate([axes, [v / np.linalg.norm(v) for v in random]])


def _sphere_area(n):
    from scipy.special import gamma
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


def _annulus_bounds(js):
    """Inner and outer radius of each annulus j in ``js`` (exact powers of two)."""
    return np.ldexp(1.0, js - 1), np.ldexp(1.0, js)


def _refined_sup(values, lo, hi, n_samples):
    """Sup over [lo, hi] per row by log-spaced refinement.

    ``values`` maps radii of shape (J, n_samples) to magnitudes of shape
    (J, n_samples, D).  Each round samples every row, keeps its running max
    and narrows the row to the two neighbours of its argmax radius (with 64
    or more samples, no bracket collapses in 3 rounds).
    """
    best = np.zeros(len(lo))
    rows = np.arange(len(lo))
    for _ in range(_SUP_ROUNDS):
        r = np.ascontiguousarray(np.geomspace(lo, hi, n_samples, axis=-1))
        vals = values(r).reshape(len(r), -1)
        flat = np.argmax(vals, axis=1)
        top = vals[rows, flat]
        best = np.where(top > best, top, best)
        i = flat // (vals.shape[1] // n_samples)
        lo = r[rows, np.maximum(i - 1, 0)]
        hi = r[rows, np.minimum(i + 1, n_samples - 1)]
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


def _annulus_terms(values, js, n, q, n_sup):
    """Per-annulus L^q norms of ``values``, which maps radii (J, S) to magnitudes (J, S, D):
    a sup of ``n_sup`` radii per round, or the Gauss L^2 norm of the mean of |.|^2 over rays."""
    lo, hi = _annulus_bounds(js)
    if np.isinf(q):
        return _refined_sup(values, lo, hi * (1.0 - 1e-9), n_sup)
    r, w = _gauss_nodes(lo, hi)
    sph_mean = np.mean(values(r) ** 2, axis=-1)
    return np.sqrt(_sphere_area(n) * np.sum(w * r ** (n - 1) * sph_mean, axis=-1))


def _detect_divergence(terms, p):
    """Partial sums not Cauchy: outward non-decaying significant terms."""
    if np.isinf(p) or len(terms) < 8:
        return False
    t = np.asarray(terms)
    peak = t.max()
    if peak == 0.0:
        return False
    for edge in (t[:6][::-1], t[-6:]):  # outward order at each end
        if edge[-1] > 1e-10 * peak and np.all(np.diff(edge) > -1e-12 * peak):
            return True
    return False


def _aggregate(terms, p):
    t = np.asarray(terms, dtype=float)
    if np.isinf(p):
        return float(t.max(initial=0.0))
    return float(np.sum(t ** p) ** (1.0 / p))


def dyadic_norm(f, p, q, n, j_range=J_RANGE, radial_profile=None) -> NormResult:
    """ell^p aggregation over dyadic annuli of per-annulus L^q norms.

    ``f`` is a callable on point arrays of shape (k, n) returning nonnegative
    scalars, sampled along the 2n + 16 fixed rays; for radial fields pass
    ``radial_profile`` (a function of r) instead, which is one ray evaluated
    exactly in 1-D and doubles as the tail envelope: the 200 annuli beyond
    each end of the range give ``tail_bound``.  Both callables receive many
    annuli per call (radii of shape (J, S), or (J * S * D, n) points); each
    annulus gets exactly the samples and arithmetic it would get alone.

    A divergent ell^p sum (terms not decaying toward either end of the
    range) is reported with ``diverged=True`` and an infinite value rather
    than a misleading number.
    """
    if p not in (1, 2, np.inf):
        raise ValueError(f"p must be 1, 2 or inf, got {p}")
    if q not in (2, np.inf):
        raise ValueError(f"q must be 2 or inf, got {q}")
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError(f"empty annulus range {j_range}")

    if radial_profile is not None:
        ext, n_sup, rays = _J_EXT, _RADIAL_SUP_SAMPLES, 1

        def values(r):
            return np.abs(radial_profile(r))[..., None]
    else:
        dirs = _directions(n)
        ext, n_sup, rays = 0, _RAY_SUP_SAMPLES, len(dirs)

        def values(r):
            pts = r[..., None, None] * dirs
            return np.abs(f(pts.reshape(-1, n))).reshape(r.shape + (rays,))
    samples = (n_sup if np.isinf(q) else _GAUSS_NODES) * rays
    chunk = max(1, _BLOCK_SAMPLES // samples)
    js = np.arange(j_min - ext, j_max + 1 + ext)
    every = np.concatenate([_annulus_terms(values, js[k:k + chunk], n, q, n_sup)
                            for k in range(0, len(js), chunk)])
    terms = every[ext:len(js) - ext]
    diverged = _detect_divergence(terms, p)
    value = np.inf if diverged else _aggregate(terms, p)

    tail = None
    if not diverged and ext:
        ext_terms = np.concatenate([every[:ext], every[len(js) - ext:]])
        if not _detect_divergence(ext_terms, p):
            tail = _aggregate(ext_terms, p)
    return NormResult(value=value, p=float(p), j_min=j_min, j_max=j_max,
                      tail_bound=tail, samples_per_annulus=samples, diverged=diverged)


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


def grid_dyadic_norm(grid, mag, p, q, weight_exponent=0.0) -> float:
    """Dyadic ell^p L^q norm of a field on ``grid`` with site magnitudes ``mag``,
    optionally of |x|^a times it.

    Annuli are the cells with 2^(j-1) <= |x| < 2^j; L^2 sums carry the cell
    volume.  Only annuli intersecting the box contribute (the field is
    supported there by construction).
    """
    if weight_exponent != 0.0:
        mag = grid.radii ** weight_exponent * mag
    by_annulus, starts, _ = _lattice_annuli(grid.n, grid.L, grid.M)
    groups = np.split(mag[by_annulus], starts)
    if np.isinf(q):
        terms = [g.max() for g in groups]
    else:
        terms = [np.sqrt(np.sum(g ** 2) * grid.cell_volume) for g in groups]
    return _aggregate(terms, p)


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
