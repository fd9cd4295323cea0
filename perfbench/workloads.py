"""The benchmark workloads: seeded job generation and per-job oracles.

Four job families (``Scan``, ``Certify``, ``Spectrum``, ``Estimates``) each
generate rounds of jobs.  Every round of a family has the same mix of job
categories; the seed draws the parameters inside each category (couplings,
rectangles and their lattice offsets, grid sizes among fixed choices).  A
workload (``Mix``) joins the rounds of two families into one list of
distinct jobs, a *pass*, which the benchmark runs over and over.

Each job is one ``spectralcert`` command on a config file written during
set-up.  ``expect`` is the exit code the config predicts; ``key`` is the
input that later jobs may share (``(kind, m, grid)``, or the weight ``rho``
on ``certify``).
"""

from dataclasses import dataclass, field
import math
import struct

import numpy as np

import oracles as orc
from oracles import check, close


@dataclass
class Job:
    command: str
    doc: dict
    expect: int
    key: str = None
    info: dict = field(default_factory=dict)
    path: str = None


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _phase(rng, magnitude):
    a = _u(rng, 0.0, 2.0 * math.pi)
    return [magnitude * math.cos(a), magnitude * math.sin(a)]


class InputFiles:
    """Grid-sampled potential files written next to the configs (binary SCPT1 format)."""

    def __init__(self):
        self.count = 0

    def grid_potential(self, rng):
        """A scalar potential on a box covering every sampled annulus.

        The 2^n cells around the origin hold |c| times unit phases, so |V| = |c|
        at every point the dyadic engine samples; the other cells are never hit.
        Returns (relative path, |c|).
        """
        n, M = 3, GRID_FILE_M
        mag = _u(rng, 0.1, 2.0)
        values = (rng.normal(size=(M,) * n) + 1j * rng.normal(size=(M,) * n)) * 3.0 * mag
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(2,) * n)
        values[M // 2 - 1:M // 2 + 1, M // 2 - 1:M // 2 + 1, M // 2 - 1:M // 2 + 1] = mag * np.exp(1j * phases)
        path = f"pot{self.count:03d}.bin"
        self.count += 1
        with open(path, "wb") as fh:
            fh.write(b"SCPT1\n" + struct.pack("<qqqd", n, 1, M, GRID_FILE_L))
            fh.write(values.astype("<c16").tobytes())
        return path, mag


def _grid_key(doc):
    return repr((doc.get("kind"), doc.get("m"), doc["grid"]["L"], doc["grid"]["M"]))


# -- scan -------------------------------------------------------------------

SCAN_DIRAC_GRID = {"L": 8.0, "M": 8}     # 8^3 points x 4 spinor components = 2048
SCAN_SCALAR_GRID = {"L": 8.0, "M": 8}    # 512


def _rect(re_min, re_max, im_min, im_max):
    return {"re_min": re_min, "re_max": re_max, "im_min": im_min, "im_max": im_max}


class Scan:
    commands = ("scan",)

    def __init__(self):
        self._heavy_tiny = False   # the heavy job's potential alternates, so every pass has the same mix
    DENSE_SAMPLES = {"dirac": 1, "scalar": 2}   # lattice points per run given to the dense oracle

    @staticmethod
    def _job(kind, potential, rect, res, seed, tiny):
        grid = SCAN_DIRAC_GRID if kind == "dirac" else SCAN_SCALAR_GRID
        doc = {"kind": kind, "n": 3, "m": 1.0, "potential": potential, "grid": dict(grid),
               "rectangle": rect, "resolution": {"n_re": res[0], "n_im": res[1]}, "seed": seed}
        return Job("scan", doc, 0, _grid_key(doc), {"tiny": tiny})

    def round(self, rng, files):
        """Four cheap jobs, four standard Dirac jobs (3 points), one heavy Dirac job (6 slow points)."""
        return self._jobs(rng, heavy=True)

    def quick_round(self, rng, files):
        """The four cheap jobs alone: one or two points each, so per-job set-up dominates."""
        return self._jobs(rng, heavy=False)

    def _jobs(self, rng, heavy):
        def tiny():
            return {"preset": "inverse-square", "c": _u(rng, 0.5, 2.0) * 1e-5}

        def mix():
            return {"preset": "matrix-mix", "c": [_u(rng, 0.3, 0.6), _u(rng, 0.1, 0.4)]}

        def side(lo, hi, width):    # [lo, hi + width] or its mirror image: 0.1 <= |Re z|, see README
            re0 = _u(rng, lo, hi)
            return (re0, re0 + width) if rng.random() < 0.5 else (-re0 - width, -re0)

        def gap():      # inside the spectral gap, away from the axis
            im0 = _u(rng, 0.1, 0.4)
            return _rect(*side(0.1, 0.5, 0.3), im0, im0 + 0.2)

        def near():     # close to the real axis inside the gap
            im0 = _u(rng, 0.005, 0.03)
            return _rect(*side(0.1, 0.6, 0.3), im0, im0 + 0.02)

        def outside():  # close to the real axis beyond the gap edge, where power iteration is slowest
            s = 1.0 if rng.random() < 0.5 else -1.0
            re0, im0 = _u(rng, 1.2, 1.22), _u(rng, 0.005, 0.02)
            return _rect(min(s * re0, s * (re0 + 0.1)), max(s * re0, s * (re0 + 0.1)), im0, im0 + 0.01)

        def edge():     # on the axis: the gap edge z = +-m is excluded, the other point is in the gap
            s = 1.0 if rng.random() < 0.5 else -1.0
            a, b = s * 1.0, s * _u(rng, 0.4, 0.9)
            return _rect(min(a, b), max(a, b), 0.0, 0.0)

        def scalar():
            return {"preset": "inverse-square", "c": _u(rng, 0.5, 2.0) * 1e-3}

        seed = int(rng.integers(0, 1000))
        cheap = [
            self._job("schrodinger", scalar(),
                      # z = 0 sits on the symbol set and is excluded
                      _rect(_u(rng, -0.5, -0.1), 0.0, 0.0, 0.2) if rng.random() < 0.5 else gap(),
                      (2, 2), seed, True),
            self._job("klein_gordon", scalar(), gap(), (2, 1), seed, True),
            self._job("dirac", tiny(), edge(), (2, 1), seed, True),
            self._job("dirac", mix(), edge(), (2, 1), seed, False),
        ]
        if not heavy:
            return cheap
        self._heavy_tiny = heavy_tiny = not self._heavy_tiny
        heavy_pot = tiny() if heavy_tiny else mix()
        return cheap + [
            self._job("dirac", tiny(), gap(), (3, 1), seed, True),
            self._job("dirac", mix(), gap(), (3, 1), seed, False),
            self._job("dirac", tiny(), near(), (3, 1), seed, True),
            self._job("dirac", mix(), near(), (3, 1), seed, False),
            self._job("dirac", heavy_pot, outside(), (3, 2), seed, heavy_tiny),
        ]

    def warmup(self):
        return self._job("dirac", {"preset": "inverse-square", "c": 1e-5},
                         _rect(0.2, 0.4, 0.3, 0.5), (2, 1), 0, True)

    @staticmethod
    def lattice(doc):
        r, res = doc["rectangle"], doc["resolution"]
        re = np.linspace(r["re_min"], r["re_max"], res["n_re"])
        im = np.linspace(r["im_min"], r["im_max"], res["n_im"])
        R, I = np.meshgrid(re, im)
        return (R + 1j * I).ravel()

    def check(self, job, out):
        doc = job.doc
        rep = orc.load_report(out)["results"]
        _, rows = orc.read_csv(out[:-5] + "_scan.csv")
        z = self.lattice(doc)
        check(len(rows) == len(z), f"{len(rows)} scan rows for {len(z)} lattice points")
        values = []
        for zz, row in zip(z, rows):
            check(abs(complex(float(row[0]), float(row[1])) - zz) <= 1e-11 * max(1.0, abs(zz)),
                  f"scan row {row[:2]} is not lattice point {zz}")
            excluded = orc.symbol_gap(doc["kind"], 3, doc["m"], doc["grid"]["L"],
                                      doc["grid"]["M"], zz) < 1e-8
            check(row[3] == str(int(excluded)), f"z={zz}: excluded flag {row[3]}, oracle {excluded}")
            if not excluded:
                v = float(row[2])
                check(math.isfinite(v) and v > 0.0, f"z={zz}: norm estimate {row[2]}")
                values.append(v)
        check(rep["excluded_points"] == len(z) - len(values), "excluded_points count")
        if values:
            close(rep["max_norm_estimate"], max(values), 1e-11, "max_norm_estimate")
            check((rep["region_ge_1_bounding_box"] is None) == (max(values) < 1.0),
                  "region bounding box disagrees with the sampled norms")
        if job.info["tiny"]:
            check(rep["region_ge_1_bounding_box"] is None, "tiny potential has a |K_z| >= 1 region")

    def final_check(self, rng, attempts):
        """Dense oracle at a few sampled lattice points: svdvals(bs_dense(...))[0]."""
        import scipy.linalg
        from spectralcert.birman_schwinger import bs_dense, factor_on_grid
        from spectralcert.config import build_grid, build_potential, parse_config

        failures = []
        first = {}      # one report per distinct job, so the sample depends on the seed alone
        for a in attempts:
            if a.ok:
                first.setdefault(a.job.path, a)
        for group, count in self.DENSE_SAMPLES.items():
            points = []
            for a in first.values():
                if (a.job.doc["kind"] == "dirac") == (group == "dirac"):
                    _, rows = orc.read_csv(a.out[:-5] + "_scan.csv")
                    points += [(a, i) for i, row in enumerate(rows) if row[3] == "0"]
            for k in rng.choice(len(points), size=min(count, len(points)), replace=False):
                a, i = points[int(k)]
                doc = a.job.doc
                cfg = parse_config(dict(doc), "scan")
                grid = build_grid(cfg)
                z = complex(self.lattice(doc)[i])
                K = bs_dense(doc["kind"], doc["m"], z, factor_on_grid(build_potential(cfg), grid), grid)
                top = float(scipy.linalg.svdvals(K)[0])
                del K
                _, rows = orc.read_csv(a.out[:-5] + "_scan.csv")
                try:
                    close(float(rows[i][2]), top, orc.SCAN_RTOL, f"|K_z| at z={z} ({doc['kind']})")
                except orc.OracleError as e:
                    failures.append((a, str(e)))
        return failures


# -- certify ----------------------------------------------------------------

RHO_MASSIVE = ({"kind": "rho2", "eps": 0.5, "delta": 0.5}, {"kind": "rho2", "eps": 0.25, "delta": 0.5})
RHO_MASSLESS = ({"kind": "rho1", "sigma": 2.0}, {"kind": "rho2", "eps": 0.5, "delta": 0.5})
GRID_FILE_L = 2.0 ** 41   # box half-width covering every sampled annulus (j <= 40)
GRID_FILE_M = 4


class Certify:
    commands = ("certify", "disks", "norms")

    def __init__(self):
        self._base = {}
        self._decks = {}

    def base_norm(self, doc):
        """Oracle (norm, constant) of a certify/disks config at coupling |c| = 1, cached by shape."""
        shape = dict(doc, potential=dict(doc["potential"], c=1.0))
        if "j" in shape:
            shape.pop("m")  # N_j does not depend on the mass
        key = repr(sorted((k, repr(v)) for k, v in shape.items()))
        if key not in self._base:
            self._base[key] = orc.certificate_norm(shape)
        return self._base[key]

    def _preset(self, rng, names):
        """Presets are dealt from a shuffled deck, so every pass has each about equally often."""
        deck = self._decks.setdefault(tuple(names), [])
        if not deck:
            deck.extend(names[i] for i in rng.permutation(len(names)))
        name = deck.pop()
        doc = {"preset": name}
        if name == "bump":
            doc["R"] = [0.5, 1.0, 2.0][int(rng.integers(3))]
        if name == "dyadic-decay":
            doc["sigma"] = [1.5, 2.0][int(rng.integers(2))]
        return doc

    def _sweep(self, rng, doc, below):
        """Set the coupling a seeded factor below or above the oracle's stability boundary."""
        base, const = self.base_norm(doc)
        factor = math.exp(_u(rng, math.log(0.3), math.log(0.8))) if below else \
            math.exp(_u(rng, math.log(1.25), math.log(3.0)))
        mag = factor / (const * base)
        doc["potential"]["c"] = _phase(rng, mag)
        return 0 if below else 3

    def round(self, rng, files):
        jobs = []
        every = ["inverse-square", "complex-inverse-square", "bump", "dyadic-decay", "matrix-mix"]

        def cert(theorem, m, **extra):
            doc = {"theorem": theorem, "kind": "dirac", "n": 3, "m": m,
                   "potential": self._preset(rng, every), **extra}
            doc["potential"]["c"] = _phase(rng, _u(rng, 0.1, 2.0))
            return doc

        for theorem, m, extra in (("2.1", 1.0, {"eps": [0.1, 0.25][int(rng.integers(2))]}),
                                  ("2.2-massive", 1.0, {"eps": [0.1, 0.25][int(rng.integers(2))]}),
                                  ("2.2-massless", 0.0, {"sigma": [1.5, 2.0][int(rng.integers(2))]})):
            doc = cert(theorem, m, **extra)
            jobs.append(Job("certify", doc, 3))

        sweeps = [("2.3", 1.0, True), ("2.3", 1.0, False), ("2.3", 1.0, True), ("2.3", 1.0, False),
                  ("2.3", 0.0, True), ("2.3", 0.0, False), ("2.4", 0.0, True), ("2.4", 0.0, False)]
        for theorem, m, below in sweeps:
            doc = {"theorem": theorem, "kind": "dirac", "n": 3, "m": m,
                   "potential": self._preset(rng, ["inverse-square", "matrix-mix", "bump"])}
            key = None
            if theorem == "2.3":
                rhos = RHO_MASSIVE if m > 0 else RHO_MASSLESS
                doc["weight"] = dict(rhos[int(rng.integers(len(rhos)))])
                key = repr(sorted(doc["weight"].items()))
            jobs.append(Job("certify", doc, self._sweep(rng, doc, below), key))

        for j, below in ((1, True), (1, False), (2, True), (2, False)):
            doc = {"n": 3, "m": _u(rng, 0.5, 2.0), "j": j,
                   "potential": self._preset(rng, ["inverse-square", "matrix-mix", "bump", "dyadic-decay"])}
            key = None
            if j == 2:
                doc["weight"] = dict(RHO_MASSLESS[int(rng.integers(2))])
                key = repr(sorted(doc["weight"].items()))
            jobs.append(Job("disks", doc, self._sweep(rng, doc, below), key))

        # (p, q) pairs whose dyadic sums converge for these profiles
        weight_norms = [({"kind": "rho2", "eps": 0.5, "delta": 0.5}, p) for p in (1, 2, "inf")] + \
                       [({"kind": "rho1", "sigma": 2.0}, p) for p in (2, "inf")]
        w, p = weight_norms[int(rng.integers(len(weight_norms)))]
        jobs.append(Job("norms", {"n": 3, "p": p, "q": "inf", "weight": dict(w)}, 0,
                        repr(sorted(w.items()))))
        for p, q in (("inf", "inf"), ([1, 2, "inf"][int(rng.integers(3))], 2)):
            pot = self._preset(rng, ["inverse-square", "matrix-mix", "bump"])
            pot["c"] = _phase(rng, _u(rng, 0.1, 2.0))
            if pot["preset"] == "matrix-mix":
                pot["N"] = 4
            jobs.append(Job("norms", {"n": 3, "p": p, "q": q, "potential": pot}, 0))

        # grid-sampled files: the non-radial, direction-sampling path
        path, mag = files.grid_potential(rng)
        doc = {"theorem": "2.3", "kind": "dirac", "n": 3, "m": 1.0,
               "potential": {"file": path, "format": "binary"}}
        jobs.append(Job("certify", doc, 3, info={"file_abs_v": mag}))
        path, mag = files.grid_potential(rng)
        doc = {"n": 3, "p": "inf", "q": 2, "potential": {"file": path, "format": "binary"}}
        jobs.append(Job("norms", doc, 0, info={"file_abs_v": mag}))
        return jobs

    def warmup(self):
        doc = {"theorem": "2.3", "kind": "dirac", "n": 3, "m": 1.0,
               "potential": {"preset": "inverse-square", "c": 5e-6},
               "weight": {"kind": "rho2", "eps": 0.5, "delta": 0.5}}
        return Job("certify", doc, 0)

    def check(self, job, out):
        rep = orc.load_report(out)["results"]
        if job.command == "norms":
            self._check_norms(job, rep["norms"])
            return
        cert = rep["certificate"]
        doc = job.doc
        mag = job.info.get("file_abs_v")
        if mag is not None:
            norm, const = orc.certificate_norm(doc, pot=lambda r: mag * np.ones_like(r),
                                               j_range=orc.J_SAMPLED)
            close(cert["norm"], norm, orc.SUP_RTOL, "sampled norm of a grid-sampled potential")
            check(cert["tail_bound"] is None and cert["norm_upper"] is None,
                  "grid-sampled potential got a tail bound")
        else:
            base, const = self.base_norm(doc)
            norm = base * abs(orc.as_complex(doc["potential"]["c"]))
            close(cert["norm_upper"], norm, orc.SUP_RTOL, f"norm_upper ({cert['theorem']})")
        if const is None:
            check(cert["constant"] is None and cert["verdict"] == "inconclusive",
                  "qualitative theorem must stay inconclusive")
        elif cert["norm_upper"] is not None:
            close(cert["constant"], const, 1e-9, "constant")
            good = "enclosure" if job.command == "disks" else "stable"
            small = cert["constant"] * cert["norm_upper"] < 1.0
            check((cert["verdict"] == good) == small,
                  f"verdict {cert['verdict']} with constant*norm_upper = "
                  f"{cert['constant'] * cert['norm_upper']}")
        if job.command == "disks" and cert["verdict"] == "enclosure":
            d, m = cert["disks"], doc["m"]
            close(d["x0_plus"] ** 2 - d["r0"] ** 2, m ** 2, 1e-9 * max(1.0, d["x0_plus"] ** 2 / m ** 2),
                  "disk tangency x0^2 - r0^2 = m^2")
            check(d["x0_minus"] == -d["x0_plus"], "disks not symmetric")
            close(d["C2"], orc.c2(3), 1e-12, "C2")
        check((cert["verdict"] in ("stable", "enclosure")) == (job.expect == 0),
              f"verdict {cert['verdict']}, expected exit {job.expect}")

    def _check_norms(self, job, table):
        doc = job.doc
        p = math.inf if doc["p"] == "inf" else doc["p"]
        q = math.inf if doc["q"] == "inf" else doc["q"]
        rtol = orc.SUP_RTOL if math.isinf(q) else orc.L2_RTOL
        for target, res in table.items():
            check(not res["diverged"], f"{target} norm reported divergent")
            mag = job.info.get("file_abs_v")
            if mag is not None:
                want = orc.dyadic(lambda r: mag * np.ones_like(r), p, q, 3, orc.J_SAMPLED)
                close(res["value"], want, rtol, "sampled norm of a grid-sampled potential")
                check(res["tail_bound"] is None, "grid-sampled potential got a tail bound")
                continue
            if target == "weight":
                profile = lambda r: orc.weight(doc["weight"], r)
            else:
                profile = lambda r: orc.potential_abs(doc["potential"], r)
            want = orc.dyadic(profile, p, q)
            value, tail = res["value"], res["tail_bound"]
            upper = max(value, tail) if math.isinf(p) else (value ** p + tail ** p) ** (1.0 / p)
            close(upper, want, rtol, f"{target} dyadic norm")


# -- spectrum ---------------------------------------------------------------

class Spectrum:
    commands = ("eig",)

    # (kind, M, count per round, free count); dimension M^3 * N is 64, 216, 256, 512, 864.
    # Most of the time goes to the few large jobs, most of the count to the small ones.
    MIX = (("scalar", 4, 38, 3), ("scalar", 6, 40, 3), ("dirac", 4, 10, 2),
           ("scalar", 8, 3, 0), ("dirac", 6, 1, 0))

    def _job(self, kind, M, L, m, potential):
        doc = {"kind": kind, "n": 3, "m": m, "potential": potential, "grid": {"L": L, "M": M}}
        return Job("eig", doc, 0, _grid_key(doc))

    def round(self, rng, files):
        jobs = []
        for group, M, count, free in self.MIX:
            for i in range(count):
                kind = "dirac" if group == "dirac" else ["schrodinger", "klein_gordon"][int(rng.integers(2))]
                presets = ["inverse-square", "bump", "dyadic-decay"] + (["matrix-mix"] if kind == "dirac" else [])
                pot = {"preset": presets[int(rng.integers(len(presets)))]}
                if pot["preset"] == "bump":
                    pot["R"] = _u(rng, 0.5, 2.0)
                if pot["preset"] == "dyadic-decay":
                    pot["sigma"] = _u(rng, 1.5, 3.0)
                pot["c"] = 0.0 if i < free else _phase(rng, _u(rng, 0.5, 3.0))
                L = [3.0, 4.0, 6.0][int(rng.integers(3))]
                m = [0.5, 1.0][int(rng.integers(2))]
                jobs.append(self._job(kind, M, L, m, pot))
        return jobs

    def warmup(self):
        return self._job("dirac", 4, 4.0, 1.0, {"preset": "matrix-mix", "c": [1.0, 0.5]})

    def check(self, job, out):
        doc = job.doc
        kind, m, L, M = doc["kind"], doc["m"], doc["grid"]["L"], doc["grid"]["M"]
        D = M ** 3 * orc.spinor_size(kind, 3)
        rep = orc.load_report(out)["results"]
        _, rows = orc.read_csv(out[:-5] + "_spectrum.csv")
        lam = np.array([complex(float(a), float(b)) for a, b in rows])
        check(rep["count"] == D and len(lam) == D, f"{len(lam)} eigenvalues for dimension {D}")
        tr1, tr2 = orc.traces(kind, 3, m, L, M, doc["potential"])
        s1, s2 = lam.sum(), (lam ** 2).sum()
        scale1, scale2 = np.abs(lam).sum() + 1.0, (np.abs(lam) ** 2).sum() + 1.0
        check(abs(s1 - tr1) <= orc.TRACE_RTOL * scale1, f"sum of eigenvalues {s1} != tr H {tr1}")
        check(abs(s2 - tr2) <= orc.TRACE_RTOL * scale2, f"sum of squares {s2} != tr H^2 {tr2}")
        if orc.as_complex(doc["potential"]["c"]) == 0:
            from spectralcert.gridops import GridSpec, free_spectrum
            free = free_spectrum(GridSpec(n=3, L=L, M=M, N=orc.spinor_size(kind, 3)), kind, m)
            tol = orc.TRACE_RTOL * max(1.0, float(np.abs(free).max()))
            check(np.allclose(lam.real, free, rtol=0.0, atol=tol) and np.abs(lam.imag).max() <= tol,
                  "free spectrum (V = 0) differs from gridops.free_spectrum")


# -- estimates --------------------------------------------------------------

EXPLICIT_SCHRODINGER = ("L3.3-X", "L3.3-ReY", "L3.3-ImY", "C3.4-a", "C3.4-b", "C3.4-c",
                        "C3.5-a", "C3.5-b", "C3.5-c", "C3.5-d", "KY")
EXPLICIT_DIRAC = ("L3.6-dyadic", "L3.6-weighted", "L3.6-hom")
REPORT_ONLY = ("L3.1-KG", "L3.2-D0", "L3.2-Dm")
BENCH_TRIALS = (4, 16, 64)  # cycled over the estimates: job sizes spread evenly in log scale


class Estimates:
    commands = ("bench",)

    @staticmethod
    def _job(estimate, L, m, seed, trials):
        doc = {"estimate": estimate, "n": 3, "m": m, "trials": trials,
               "grid": {"L": L, "M": 16}, "seed": seed}
        kind = "dirac" if estimate in EXPLICIT_DIRAC or estimate.startswith("L3.2") else \
            "klein_gordon" if estimate == "L3.1-KG" else "schrodinger"
        key = repr((kind, m if kind != "schrodinger" else None, L, 16))
        return Job("bench", doc, 0, key, {"explicit": estimate not in REPORT_ONLY})

    def round(self, rng, files):
        estimates = EXPLICIT_SCHRODINGER + EXPLICIT_DIRAC + REPORT_ONLY
        jobs = [self._job(est, [6.0, 8.0][int(rng.integers(2))], [0.5, 1.0][int(rng.integers(2))],
                          int(rng.integers(0, 10 ** 6)), BENCH_TRIALS[i % len(BENCH_TRIALS)])
                for i, est in enumerate(estimates)]
        return jobs

    def warmup(self):
        return self._job("C3.5-d", 8.0, 1.0, 0, 8)

    def check(self, job, out):
        rep = orc.load_report(out)["results"]
        trials = job.doc["trials"]
        check(rep["trials"] == trials and 0 <= rep["discarded"] < trials,
              f"trials {rep['trials']}, discarded {rep['discarded']}")
        check(isinstance(rep["max_ratio"], float) and rep["max_ratio"] > 0.0, "max_ratio")
        if job.info["explicit"]:
            check(rep["passed"] is True, f"{job.doc['estimate']}: ratio {rep['max_ratio']} above "
                                         f"constant {rep['paper_constant']} with slack")
        else:
            check(rep["passed"] is None and rep["paper_constant"] == "non-explicit",
                  "report-only estimate declared pass/fail")

    def final_check(self, rng, attempts):
        """Repeats of one config (same seed) must give an identical max_ratio."""
        seen, failures = {}, []
        for a in attempts:
            if not a.ok:
                continue
            ident = repr(sorted(a.job.doc.items()))
            ratio = orc.load_report(a.out)["results"]["max_ratio"]
            if ident in seen and seen[ident] != ratio:
                failures.append((a, f"max_ratio {ratio} differs from {seen[ident]} for the same config"))
            seen.setdefault(ident, ratio)
        return failures


class Mix:
    """One workload: a plan of (family, round method, count), joined into one pass of distinct jobs."""

    def __init__(self, name, plan):
        self.name = name
        self.plan = plan
        self.families = {f: f() for f, _, _ in plan}
        self._family = {c: f for f in self.families.values() for c in f.commands}

    def make_pass(self, rng, files):
        return [job for f, method, count in self.plan for _ in range(count)
                for job in getattr(self.families[f], method)(rng, files)]

    def warmup(self):
        return [f.warmup() for f in self.families.values()]

    def check(self, job, out):
        self._family[job.command].check(job, out)

    def final_check(self, rng, attempts):
        failures = []
        for f in self.families.values():
            if hasattr(f, "final_check"):
                failures += f.final_check(rng, [a for a in attempts if a.job.command in f.commands])
        return failures


# A pass has about 112 distinct jobs, so that at least ten lie beyond job_p90_s,
# and lasts about 10 s, so that a run repeats every job several times.
WORKLOADS = {
    "scan_bench": lambda: Mix("scan_bench", [(Scan, "round", 4), (Scan, "quick_round", 15),
                                             (Estimates, "round", 1)]),
    "certify_eig": lambda: Mix("certify_eig", [(Certify, "round", 1), (Spectrum, "round", 1)]),
}
