"""Explicit constants, stability certificates, and eigenvalue-enclosure disks.

Theorems 2.3, 2.4 (``stable``) and 2.5 (``enclosure``) share one step: a
weighted dyadic norm of V from :func:`potential_norm`, whose upper bound
(norm plus tail) times an explicit constant is compared with 1 by one rule:

* upper bound unknown or not finite: ``inconclusive``, "norm divergent or
  tail unknown; cannot certify";
* constant * upper bound < 1, the product rounded up one ulp (:func:`product_up`,
  so that a verdict is no rounding accident): ``stable`` or ``enclosure``;
* otherwise ``inconclusive``, "smallness condition not met; no claim either way".

Every certificate with a norm also reports ``tail_share``, the tail's share of
that norm's upper bound.

The qualitative theorems 2.1, 2.2 have existential constants: their norm is
reported and the verdict is always ``inconclusive``.  ``enclosure`` verdicts
carry the two closed disks centred at +-m (v^2+1)/(v^2-1), radius 2 m v / (v^2-1),
with v = (1 / (C2 N_j) - 1)^2 (v = inf and radius 0 when N_j = 0).
"""

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np

from .potential import PotentialSpec
from .profiles import RADIUS, Profile
from .weights import WeightSpec, NormResult, cell_dyadic_norm, dyadic_norm

CERTIFY_THEOREMS = ("2.1", "2.2-massless", "2.2-massive", "2.3", "2.4")  # 2.5: enclosure_disks
MASSLESS_THEOREMS = ("2.2-massless", "2.4")  # stated for m = 0 only

# qualitative theorem -> (kind of the weight w in its hypothesis on || w^k V ||_Linf,
#                         the certify parameter that sets w, the power k)
QUALITATIVE = {"2.1": ("tau", "eps", 2), "2.2-massive": ("tau", "eps", 2),
               "2.2-massless": ("w_sigma", "sigma", 1)}

# theorem (2.5: enclosure_disks, by j) -> the certify or disks keys its hypothesis reads
THEOREM_PARAMS = {**{theorem: (param,) for theorem, (_, param, _) in QUALITATIVE.items()},
                  "2.3": ("weight",), "2.4": (), "2.5-j1": (), "2.5-j2": ("weight",)}

DEFAULT_RHO = WeightSpec("rho2", eps=0.5, delta=0.5)  # the weight rho when none is given


@dataclass
class DiskPair:
    """Two closed disks on the real axis confining the massive Dirac point spectrum."""

    x0_plus: float
    x0_minus: float
    r0: float
    V_j: float
    j: int
    m: float

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        return (np.abs(z - self.x0_plus) <= self.r0) | (np.abs(z - self.x0_minus) <= self.r0)


@dataclass
class Certificate:
    """Outcome of a theorem check with every number needed to re-derive it."""

    theorem: str
    verdict: str  # stable | enclosure | inconclusive
    norm: float = None
    tail_bound: float = None
    norm_upper: float = None
    tail_share: float = None
    constant: float = None
    threshold: float = None
    reason: str = ""
    disks: DiskPair = None
    n: int = 0
    m: float = 0.0
    params: dict = field(default_factory=dict)
    potential_hash: str = ""


def check_dimension(n):
    """n, if the estimates cover dimension n (they need n >= 3); ValueError if not."""
    if n < 3:
        raise ValueError(f"dimension {n} unsupported: the estimates need n >= 3")
    return n


def c2_constant(n) -> float:
    """576 n max(sqrt(n), (64n+324)^(1/4))."""
    return 576.0 * n * max(np.sqrt(n), (64.0 * n + 324.0) ** 0.25)


def kato_yajima_constant(n) -> float:
    """Best constant sqrt(pi / (2(n-2))) of the weighted free-resolvent bound."""
    check_dimension(n)
    return float(np.sqrt(np.pi / (2.0 * (n - 2))))


def c1_constant(n, m, rho_l2linf, rho_halfpower_linf=None) -> float:
    """The stability constant of the quantitative weighted theorem.

    Massive case: 576 n [sqrt(n) + (2m+1) (64n+324)^(1/4)] |rho|^2
                  + (2m+1) sqrt(pi/(2(n-2))) | |x|^(1/2) rho |^2.
    Massless case: 2 C2(n) |rho|^2.
    """
    check_dimension(n)
    if m == 0.0:
        return 2.0 * c2_constant(n) * rho_l2linf ** 2
    if rho_halfpower_linf is None:
        raise ValueError("massive case needs the | |x|^(1/2) rho |_Linf norm to be finite")
    quarter = (64.0 * n + 324.0) ** 0.25
    return (576.0 * n * (np.sqrt(n) + (2.0 * m + 1.0) * quarter) * rho_l2linf ** 2
            + (2.0 * m + 1.0) * kato_yajima_constant(n) * rho_halfpower_linf ** 2)


def c3_constant(n, rho_l2linf, rho_halfpower_linf) -> float:
    """576 n (64n+324)^(1/4) |rho|^2 + sqrt(pi/(2(n-2))) | |x|^(1/2) rho |^2."""
    return (576.0 * n * (64.0 * n + 324.0) ** 0.25 * rho_l2linf ** 2
            + kato_yajima_constant(n) * rho_halfpower_linf ** 2)


@lru_cache(maxsize=16)
def rho_norms(rho: WeightSpec):
    """(|rho|_{ell2 Linf}, | |x|^(1/2) rho |_Linf) as NormResults, shared per rho."""
    prof, half = rho.profile, RADIUS ** 0.5 * rho.profile
    return (dyadic_norm(prof, 2, np.inf, 3, breaks=prof.breaks),
            dyadic_norm(half, np.inf, np.inf, 3, breaks=half.breaks))


def potential_norm(V: PotentialSpec, w: Profile = None, p=np.inf, q=np.inf) -> NormResult:
    """Dyadic ell^p L^q norm of x -> w(|x|) |V(x)| in V's own dimension (w = 1 if None).

    The only choice between the two paths: a preset's declared radial profile,
    which also gives the tail, or a file's cells, each holding its site's |V|
    (:attr:`PotentialSpec.opnorm_table`, 0 outside the box), whose tail is unknown.
    """
    if V.kind == "grid-sampled":
        return cell_dyadic_norm(V.opnorm_table, V.n, V.grid_L, V.grid_M, p, q, w)
    prof = V.profile if w is None else V.profile * w
    return dyadic_norm(prof, p, q, V.n, breaks=prof.breaks)


def n1_norm(V: PotentialSpec) -> NormResult:
    """N_1(V) = || |x| V ||_{ell^1 L^inf}."""
    return potential_norm(V, RADIUS, p=1)


def n2_norm(V: PotentialSpec, rho: WeightSpec):
    """N_2(V) = |rho|^2_{ell2 Linf} * || |x| rho^-2 V ||_Linf; returns (NormResult, rho_l2).

    The NormResult is also the hypothesis norm of theorem 2.3."""
    l2, _ = rho_norms(rho)
    return potential_norm(V, RADIUS * rho.profile ** -2), l2


def product_up(*factors):
    """The product of nonnegative floats, each multiplication moved up one ulp: never
    below the exact product of the factors as given."""
    out = factors[0]
    for f in factors[1:]:
        out = math.nextafter(out * f, math.inf)
    return out


def _decide(cert, res: NormResult, upper, constant, verdict):
    """Fill in the hypothesis norm ``res``, its upper bound and the constant, and
    apply the verdict rule (module docstring) to constant * upper rounded up;
    True if ``verdict`` was given."""
    cert.norm, cert.tail_bound, cert.norm_upper = res.value, res.tail_bound, upper
    cert.tail_share = res.tail_share()
    cert.constant, cert.threshold = constant, 1.0 / constant
    if upper is None or not np.isfinite(upper):
        cert.reason = "norm divergent or tail unknown; cannot certify"
    elif product_up(constant, upper) < 1.0:
        cert.verdict = verdict
    else:
        cert.reason = "smallness condition not met; no claim either way"
    return cert.verdict == verdict


def certify(theorem, V: PotentialSpec, m=0.0, eps=0.25, sigma=2.0,
            rho: WeightSpec = None) -> Certificate:
    """Check one theorem's hypothesis against a potential.

    Quantitative theorems (2.3, 2.4) compare C * (norm + tail) with 1 and can
    return ``stable``; the qualitative smallness conditions (2.1, 2.2) have
    existential constants, so the computed norm is reported and the verdict
    is always ``inconclusive``.
    """
    if theorem not in CERTIFY_THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r} (disks are produced by enclosure_disks)")
    if theorem in MASSLESS_THEOREMS and m != 0.0:
        raise ValueError(f"theorem {theorem} needs m = 0")
    n = V.n
    check_dimension(n)
    cert = Certificate(theorem=theorem, verdict="inconclusive", n=n, m=m,
                       potential_hash=V.content_hash())

    if theorem in QUALITATIVE:
        kind, param, power = QUALITATIVE[theorem]
        cert.params = {param: {"eps": eps, "sigma": sigma}[param]}
        res = potential_norm(V, WeightSpec(kind, **cert.params).profile ** power)
        cert.norm, cert.tail_bound = res.value, res.tail_bound
        cert.norm_upper, cert.tail_share = res.rigorous_upper(), res.tail_share()
        cert.reason = ("threshold alpha is existential in the qualitative theorem; "
                       "norm reported, no stability claim")
        return cert

    if theorem == "2.4":  # massless, dyadic
        res = n1_norm(V)
        _decide(cert, res, res.rigorous_upper(), 2.0 * c2_constant(n), "stable")
        return cert

    rho = rho if rho is not None else DEFAULT_RHO
    l2, half = rho_norms(rho)
    rl2, rhalf = l2.rigorous_upper(), half.rigorous_upper()
    if m > 0 and (rhalf is None or not np.isfinite(rhalf)):
        cert.reason = "massive case needs | |x|^(1/2) rho |_Linf finite"
        return cert
    C1 = c1_constant(n, m, rl2, rhalf if m > 0 else None)
    res, _ = n2_norm(V, rho)
    cert.params = {"rho": rho.kind, "rho_l2linf": rl2, "rho_halfpower_linf": rhalf}
    _decide(cert, res, res.rigorous_upper(), C1, "stable")
    return cert


def disk_pair(m, Nj, j, n=3) -> DiskPair:
    """Disks for a given value of N_j(V); requires 2 C2 N_j < 1 (0 gives radius 0 at +-m)."""
    C2 = c2_constant(n)
    if not 2.0 * C2 * Nj < 1.0:
        raise ValueError(f"2*C2*N_j = {2.0 * C2 * Nj} >= 1: disks undefined")
    v = (1.0 / (C2 * Nj) - 1.0) ** 2 if Nj else np.inf
    if v < 1e150:
        x0 = m * (v ** 2 + 1.0) / (v ** 2 - 1.0)
        r0 = m * 2.0 * v / (v ** 2 - 1.0)
    else:  # v ** 2 overflows; (v^2 + 1) / (v^2 - 1) rounds to 1 beyond v = 2^27
        x0, r0 = m, m * 2.0 / v
    return DiskPair(x0_plus=x0, x0_minus=-x0, r0=r0, V_j=v, j=j, m=m)


def enclosure_disks(V: PotentialSpec, m, j=1, rho: WeightSpec = None) -> Certificate:
    """Eigenvalue-enclosure certificate for the massive Dirac operator.

    N_j includes the tail bound before the disks are formed, so a larger
    (more conservative) N_j only enlarges the disks.
    """
    if m <= 0:
        raise ValueError("enclosure disks need m > 0")
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    n = V.n
    check_dimension(n)
    cert = Certificate(theorem=f"2.5-j{j}", verdict="inconclusive", n=n, m=m,
                       potential_hash=V.content_hash())
    if j == 1:
        res = n1_norm(V)
        upper = res.rigorous_upper()
    else:
        rho = rho if rho is not None else DEFAULT_RHO
        res, l2 = n2_norm(V, rho)
        cu, lu = res.rigorous_upper(), l2.rigorous_upper()
        upper = None if (cu is None or lu is None) else product_up(lu, lu, cu)
        cert.params = {"rho": rho.kind, "rho_l2linf": lu}
    cert.params["N_j"] = upper
    if _decide(cert, res, upper, 2.0 * c2_constant(n), "enclosure"):
        cert.disks = disk_pair(m, upper, j, n=n)
    return cert
