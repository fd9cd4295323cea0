"""Independent correctness oracles for the benchmark's jobs.

Nothing here calls into spectralcert: radial norms are recomputed by dense
sampling of closed-form profiles, constants from the paper's formulas, and
spectral traces from the Fourier symbols, so a wrong number in a report
cannot also be produced by the oracle.  (Two checks in ``workloads.py`` are
defined against named program functions instead: ``bs_dense`` for scans and
``free_spectrum`` for free spectra.)
"""

import functools
import json
import math

import numpy as np

N_SAMPLES = 256            # log-spaced radii per dyadic annulus
J_SAMPLED = (-40, 40)      # the program's sampled annulus range
J_FULL = (-240, 240)       # sampled range plus the 200-annulus tails
SUP_RTOL = 1e-4            # sup norms: dense sampling vs refined sampling
L2_RTOL = 1e-4             # annulus L^2 norms: trapezoid vs Gauss-Legendre
SCAN_RTOL = 1e-3           # power iteration vs dense top singular value
TRACE_RTOL = 1e-8          # eigenvalue moments vs traces of H


class OracleError(AssertionError):
    """A job's output disagrees with its oracle."""


def check(cond, msg):
    if not cond:
        raise OracleError(msg)


def close(a, b, rtol, what):
    check(a is not None and b is not None and abs(a - b) <= rtol * max(abs(a), abs(b)),
          f"{what}: got {a!r}, oracle {b!r} (rtol {rtol})")


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def as_complex(c):
    return complex(c[0], c[1]) if isinstance(c, list) else complex(c)


# -- closed-form radial profiles -------------------------------------------

def potential_abs(doc, r):
    """|V(x)| at radius r for a preset potential document (all presets are radial)."""
    c = abs(as_complex(doc.get("c", 1.0)))
    preset = doc["preset"]
    r = np.asarray(r, dtype=float)
    if preset in ("inverse-square", "complex-inverse-square"):
        return c / (1.0 + r) ** 2
    if preset == "matrix-mix":
        return math.sqrt(2.0) * c / (1.0 + r) ** 2     # |alpha_1 + i I| = sqrt(2)
    if preset == "bump":
        R = doc.get("R", 1.0)
        out = np.zeros(r.shape)
        inside = r < R
        out[inside] = c * np.exp(1.0 - 1.0 / (1.0 - (r[inside] / R) ** 2))
        return out
    if preset == "dyadic-decay":
        return c / (r * (1.0 + np.abs(np.log(r))) ** doc.get("sigma", 2.0))
    raise ValueError(f"no oracle profile for preset {preset!r}")


def weight(doc, r):
    r = np.asarray(r, dtype=float)
    kind = doc["kind"]
    eps, sigma, delta = doc.get("eps", 0.5), doc.get("sigma", 2.0), doc.get("delta", 0.5)
    if kind == "tau":
        return r ** (0.5 - eps) + r
    if kind == "w_sigma":
        return r * (1.0 + np.abs(np.log(r))) ** sigma
    if kind == "rho1":
        return (1.0 + np.abs(np.log(r))) ** (-sigma / 2.0)
    if kind == "rho2":
        return 1.0 / (r ** -eps + r ** delta)
    raise ValueError(f"no oracle for weight {kind!r}")


DEFAULT_RHO = {"kind": "rho2", "eps": 0.5, "delta": 0.5}


# -- dyadic norms by dense sampling ----------------------------------------

def annulus_norms(profile, q, n, j_range):
    """Per-annulus L^q norms of a radial profile, annuli 2^(j-1) <= r < 2^j."""
    j = np.arange(j_range[0], j_range[1] + 1)
    t = np.linspace(0.0, 1.0, N_SAMPLES)
    if math.isinf(q):
        # right end just inside the half-open annulus, as sup over [lo, hi)
        r = 2.0 ** (j[:, None] - 1 + t[None, :] * (1.0 - 1e-12))
        return np.max(np.abs(profile(r)), axis=1)
    r = 2.0 ** (j[:, None] - 1 + t[None, :])
    # integral of r^(n-1) g^2 dr = integral of r^n g^2 d(log r), trapezoid in log r
    integrand = r ** n * np.abs(profile(r)) ** 2
    integral = np.trapezoid(integrand, dx=math.log(2.0) / (N_SAMPLES - 1), axis=1)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return np.sqrt(area * integral)


def aggregate(terms, p):
    terms = np.asarray(terms, dtype=float)
    if math.isinf(p):
        return float(terms.max())
    return float(np.sum(terms ** p) ** (1.0 / p))


def dyadic(profile, p, q, n=3, j_range=J_FULL):
    return aggregate(annulus_norms(profile, q, n, j_range), p)


def rho_norms(rho_doc):
    """(|rho|_{ell2 Linf}, | |x|^(1/2) rho |_Linf) over the full annulus range."""
    return _rho_norms(tuple(sorted(rho_doc.items())))


@functools.lru_cache(maxsize=None)
def _rho_norms(rho_items):
    rho_doc = dict(rho_items)
    l2 = dyadic(lambda r: weight(rho_doc, r), 2, math.inf)
    half = dyadic(lambda r: np.sqrt(r) * weight(rho_doc, r), math.inf, math.inf)
    return l2, half


# -- the paper's constants ----------------------------------------------------

def c2(n):
    return 576.0 * n * max(math.sqrt(n), (64.0 * n + 324.0) ** 0.25)


def c1(n, m, rho_l2, rho_half):
    if m == 0.0:
        return 2.0 * c2(n) * rho_l2 ** 2
    quarter = (64.0 * n + 324.0) ** 0.25
    return (576.0 * n * (math.sqrt(n) + (2.0 * m + 1.0) * quarter) * rho_l2 ** 2
            + (2.0 * m + 1.0) * math.sqrt(math.pi / (2.0 * (n - 2))) * rho_half ** 2)


def certificate_norm(doc, pot=None, j_range=J_FULL):
    """The oracle's rigorous norm for a certify/disks config, with the constant.

    ``pot`` overrides the potential profile (used for grid-sampled files whose
    operator norm is constant over the sampled range).  Returns
    (norm, constant); constant is None for the qualitative theorems.
    """
    n = doc.get("n", 3)
    m = float(doc.get("m", 0.0))
    vabs = pot or (lambda r: potential_abs(doc["potential"], r))
    rho = doc.get("weight") or DEFAULT_RHO
    theorem = doc.get("theorem") or f"2.5-j{doc.get('j', 1)}"
    if theorem in ("2.1", "2.2-massive"):
        tau = {"kind": "tau", "eps": doc.get("eps", 0.25)}
        return dyadic(lambda r: weight(tau, r) ** 2 * vabs(r), math.inf, math.inf, n, j_range), None
    if theorem == "2.2-massless":
        w = {"kind": "w_sigma", "sigma": doc.get("sigma", 2.0)}
        return dyadic(lambda r: weight(w, r) * vabs(r), math.inf, math.inf, n, j_range), None
    if theorem == "2.3":
        rl2, rhalf = rho_norms(rho)
        core = dyadic(lambda r: r / weight(rho, r) ** 2 * vabs(r), math.inf, math.inf, n, j_range)
        return core, c1(n, m, rl2, rhalf if m > 0 else None)
    if theorem in ("2.4", "2.5-j1"):
        return dyadic(lambda r: r * vabs(r), 1, math.inf, n, j_range), 2.0 * c2(n)
    if theorem == "2.5-j2":
        rl2, _ = rho_norms(rho)
        core = dyadic(lambda r: r / weight(rho, r) ** 2 * vabs(r), math.inf, math.inf, n, j_range)
        return rl2 ** 2 * core, 2.0 * c2(n)
    raise ValueError(f"no oracle for theorem {theorem!r}")


# -- free symbols and spectral traces --------------------------------------

def axis_freqs(L, M):
    k = np.concatenate([np.arange(0, M // 2), np.arange(-M // 2, 0)])
    return k * (math.pi / L)


def freq_sq(n, L, M):
    xi = axis_freqs(L, M)
    grids = np.meshgrid(*([xi] * n), indexing="ij")
    return sum(g ** 2 for g in grids)


def lattice_radii(n, L, M):
    h = 2.0 * L / M
    x = -L + (np.arange(M) + 0.5) * h
    grids = np.meshgrid(*([x] * n), indexing="ij")
    return np.sqrt(sum(g ** 2 for g in grids)).ravel()


def spinor_size(kind, n):
    return 2 ** math.ceil(n / 2) if kind == "dirac" else 1


def traces(kind, n, m, L, M, pot_doc):
    """(tr H, tr H^2) of H = H_0 + V on the grid, from symbols and potential samples.

    H_0 is unitarily similar to its symbol, so tr H_0^k is a symbol sum, and its
    diagonal blocks in the point basis all equal the mean symbol.  The Dirac
    matrices are traceless with tr(alpha_j alpha_k) = N delta_jk, which is all
    the Dirac case needs.
    """
    N = spinor_size(kind, n)
    s2 = freq_sq(n, L, M)
    if kind == "schrodinger":
        sym = s2
    else:
        sym = np.sqrt(m ** 2 + s2)
    if kind == "dirac":
        tr_h0, tr_h0sq, tr_mean_sym = 0.0, float(N * np.sum(m ** 2 + s2)), 0.0
    else:
        tr_h0, tr_h0sq, tr_mean_sym = float(np.sum(sym)), float(np.sum(sym ** 2)), float(np.mean(sym))
    c = as_complex(pot_doc.get("c", 1.0))
    profile_doc = dict(pot_doc, c=1.0)
    s = c * potential_abs(profile_doc, lattice_radii(n, L, M))  # complex scalar factor
    if pot_doc["preset"] == "matrix-mix":
        s = s / math.sqrt(2.0)
        # V = s (alpha_1 + i I): tr V = i N s, tr V^2 = 0, and alpha_1 pairs with axis 0
        mean_xi0 = float(np.mean(axis_freqs(L, M)))
        tr_v, tr_vsq, tr_h0v = 1j * N * s.sum(), 0.0, N * mean_xi0 * s.sum()
    else:
        tr_v, tr_vsq, tr_h0v = N * s.sum(), N * np.sum(s ** 2), tr_mean_sym * s.sum()
    return tr_h0 + tr_v, tr_h0sq + 2.0 * tr_h0v + tr_vsq


def symbol_gap(kind, n, m, L, M, z):
    """Distance of z from the discrete symbol set, as the program's exclusion test measures it."""
    s2 = freq_sq(n, L, M)
    if kind == "dirac":
        return float(np.min(np.abs(s2 + m ** 2 - z ** 2)))
    if kind == "klein_gordon":
        return float(np.min(np.abs(np.sqrt(s2 + m ** 2) - z)))
    return float(np.min(np.abs(s2 - z)))
