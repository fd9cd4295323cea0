"""Strict parsing and validation of run configurations.

Configs are JSON documents.  Unknown keys are fatal and every validation
problem is reported at once with its path, so a typo in a weight parameter
cannot silently produce a wrong certificate.
"""

from dataclasses import dataclass, field as dc_field
import json
import math

from .bench import ESTIMATE_IDS
from .enclosure import THEOREM_IDS
from .gridops import KINDS, GridSpec, spinor_size
from .potential import PotentialSpec, load_potential_text, load_potential_binary
from .weights import WeightSpec

COMMANDS = ("certify", "disks", "scan", "eig", "bench", "norms")


class ConfigError(ValueError):
    """All validation problems of a config, each with the offending path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    kind: str = "dirac"
    n: int = 3
    m: float = 0.0
    theorem: str = None
    j: int = 1
    eps: float = 0.25
    sigma: float = 2.0
    potential: dict = None
    weight: dict = None
    grid: dict = None
    rectangle: dict = None
    resolution: dict = None
    estimate: str = None
    trials: int = 100
    p: float = None
    q: float = None
    raw: dict = dc_field(default_factory=dict, repr=False)

    def echo(self):
        """The normalized config document, re-parseable to an equal RunConfig."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


_POTENTIAL_KEYS = {"preset", "c", "R", "sigma", "N", "file", "format"}
_WEIGHT_KEYS = {"kind", "eps", "sigma", "delta", "exponent"}
_GRID_KEYS = {"L", "M"}
_RECT_KEYS = {"re_min", "re_max", "im_min", "im_max"}
_RES_KEYS = {"n_re", "n_im"}

_COMMAND_KEYS = {
    "certify": {"theorem", "kind", "n", "m", "potential", "weight", "eps", "sigma", "seed"},
    "disks": {"n", "m", "j", "potential", "weight", "seed"},
    "scan": {"kind", "n", "m", "potential", "grid", "rectangle", "resolution", "seed"},
    "eig": {"kind", "n", "m", "potential", "grid", "seed"},
    "bench": {"estimate", "n", "m", "trials", "grid", "seed"},
    "norms": {"n", "potential", "weight", "p", "q", "seed"},
}

_REQUIRED = {
    "certify": {"theorem", "potential"},
    "disks": {"m", "potential"},
    "scan": {"kind", "potential", "grid", "rectangle", "resolution"},
    "eig": {"kind", "potential", "grid"},
    "bench": {"estimate"},
    "norms": {"p", "q"},
}


def _check_number(doc, key, path, errors, lo=None, hi=None, integer=False, allow_inf=False):
    if key not in doc:
        return None
    v = doc[key]
    if isinstance(v, str) and allow_inf and v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{path}.{key}: expected a number, got {v!r}")
        return None
    if integer and not float(v).is_integer():
        errors.append(f"{path}.{key}: expected an integer, got {v!r}")
        return None
    if lo is not None and v < lo:
        errors.append(f"{path}.{key}: value {v} below minimum {lo}")
        return None
    if hi is not None and v > hi:
        errors.append(f"{path}.{key}: value {v} above maximum {hi}")
        return None
    return int(v) if integer else float(v)


def _check_keys(doc, allowed, path, errors):
    for k in doc:
        if k not in allowed:
            errors.append(f"{path}.{k}: unknown key")


def _validate_potential(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return
    _check_keys(doc, _POTENTIAL_KEYS, path, errors)
    if ("preset" in doc) == ("file" in doc):
        errors.append(f"{path}: exactly one of 'preset' or 'file' is required")
    if "preset" in doc and doc["preset"] not in (
            "inverse-square", "complex-inverse-square", "bump", "dyadic-decay", "matrix-mix"):
        errors.append(f"{path}.preset: unknown preset {doc['preset']!r}")
    if "c" in doc:
        c = doc["c"]
        ok = isinstance(c, (int, float)) and not isinstance(c, bool)
        ok = ok or (isinstance(c, list) and len(c) == 2
                    and all(isinstance(x, (int, float)) for x in c))
        if not ok:
            errors.append(f"{path}.c: expected a number or [re, im] pair, got {c!r}")
    _check_number(doc, "R", path, errors, lo=1e-12)
    _check_number(doc, "sigma", path, errors, lo=1.0)
    _check_number(doc, "N", path, errors, lo=1, integer=True)


def _validate_weight(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return
    _check_keys(doc, _WEIGHT_KEYS, path, errors)
    if doc.get("kind") not in ("tau", "w_sigma", "rho1", "rho2", "power"):
        errors.append(f"{path}.kind: unknown weight kind {doc.get('kind')!r}")
    _check_number(doc, "eps", path, errors, lo=1e-12)
    _check_number(doc, "delta", path, errors, lo=1e-12)
    _check_number(doc, "sigma", path, errors)
    _check_number(doc, "exponent", path, errors)


def parse_config(text, command) -> RunConfig:
    """Validate a JSON config for one command; raises ConfigError listing
    every problem (not just the first)."""
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}"])
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError([f"not valid JSON: {e}"]) from e
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    errors = []
    _check_keys(doc, _COMMAND_KEYS[command], "$", errors)
    for key in _REQUIRED[command]:
        if key not in doc:
            errors.append(f"$.{key}: required for command {command!r}")

    n = _check_number(doc, "n", "$", errors, integer=True) or 3
    if "n" in doc and isinstance(doc["n"], (int, float)) and doc["n"] < 3:
        errors.append(f"$.n: unsupported dimension {doc['n']} (the estimates need n >= 3)")
    m = _check_number(doc, "m", "$", errors, lo=0.0)
    seed = _check_number(doc, "seed", "$", errors, lo=0, integer=True)
    trials = _check_number(doc, "trials", "$", errors, lo=1, integer=True)
    j = _check_number(doc, "j", "$", errors, lo=1, hi=2, integer=True)
    eps = _check_number(doc, "eps", "$", errors, lo=1e-12)
    sigma = _check_number(doc, "sigma", "$", errors)

    if "kind" in doc and doc["kind"] not in KINDS:
        errors.append(f"$.kind: unknown operator kind {doc['kind']!r}")
    if "theorem" in doc:
        if doc["theorem"] not in THEOREM_IDS or doc["theorem"].startswith("2.5"):
            errors.append(f"$.theorem: unknown theorem id {doc['theorem']!r} "
                          "(use the disks command for 2.5)")
    if "estimate" in doc and doc["estimate"] not in ESTIMATE_IDS:
        errors.append(f"$.estimate: unknown estimate id {doc['estimate']!r}")
    if "potential" in doc:
        _validate_potential(doc["potential"], "$.potential", errors)
    if "weight" in doc:
        _validate_weight(doc["weight"], "$.weight", errors)
    if "grid" in doc:
        g = doc["grid"]
        if not isinstance(g, dict):
            errors.append("$.grid: expected an object")
        else:
            _check_keys(g, _GRID_KEYS, "$.grid", errors)
            for k in _GRID_KEYS:
                if k not in g:
                    errors.append(f"$.grid.{k}: required")
            _check_number(g, "L", "$.grid", errors, lo=1e-9)
            M = _check_number(g, "M", "$.grid", errors, lo=2, integer=True)
            if M is not None and M % 2 != 0:
                errors.append(f"$.grid.M: must be even, got {M}")
    if "rectangle" in doc:
        r = doc["rectangle"]
        if not isinstance(r, dict):
            errors.append("$.rectangle: expected an object")
        else:
            _check_keys(r, _RECT_KEYS, "$.rectangle", errors)
            for k in _RECT_KEYS:
                if k not in r:
                    errors.append(f"$.rectangle.{k}: required")
                else:
                    _check_number(r, k, "$.rectangle", errors)
            if all(isinstance(r.get(k), (int, float)) for k in _RECT_KEYS):
                if r["re_min"] > r["re_max"]:
                    errors.append("$.rectangle: re_min > re_max")
                if r["im_min"] > r["im_max"]:
                    errors.append("$.rectangle: im_min > im_max")
    if "resolution" in doc:
        r = doc["resolution"]
        if not isinstance(r, dict):
            errors.append("$.resolution: expected an object")
        else:
            _check_keys(r, _RES_KEYS, "$.resolution", errors)
            for k in _RES_KEYS:
                if k not in r:
                    errors.append(f"$.resolution.{k}: required")
                else:
                    _check_number(r, k, "$.resolution", errors, lo=1, integer=True)
    p = q = None
    if command == "norms":
        p = _check_number(doc, "p", "$", errors, allow_inf=True)
        q = _check_number(doc, "q", "$", errors, allow_inf=True)
        if p is not None and p not in (1.0, 2.0, math.inf):
            errors.append(f"$.p: must be 1, 2 or \"inf\", got {doc.get('p')!r}")
        if q is not None and q not in (2.0, math.inf):
            errors.append(f"$.q: must be 2 or \"inf\", got {doc.get('q')!r}")
        if "potential" not in doc and "weight" not in doc:
            errors.append("$: norms needs a 'potential' or a 'weight' target")
    if command == "disks" and isinstance(m, float) and m <= 0.0:
        errors.append("$.m: disks need m > 0")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        command=command, seed=int(seed or 0), kind=doc.get("kind", "dirac"), n=int(n),
        m=float(m if m is not None else 0.0), theorem=doc.get("theorem"),
        j=int(j or 1), eps=float(eps or 0.25), sigma=float(sigma or 2.0),
        potential=doc.get("potential"), weight=doc.get("weight"), grid=doc.get("grid"),
        rectangle=doc.get("rectangle"), resolution=doc.get("resolution"),
        estimate=doc.get("estimate"), trials=int(trials or 100),
        p=p, q=q, raw={"command": command, **doc})


def build_potential(cfg: RunConfig, kind=None) -> PotentialSpec:
    doc = cfg.potential
    kind = kind or cfg.kind
    if "file" in doc:
        fmt = doc.get("format", "binary" if doc["file"].endswith(".bin") else "text")
        loader = load_potential_binary if fmt == "binary" else load_potential_text
        return loader(doc["file"])
    c = doc.get("c", 1.0)
    if isinstance(c, list):
        c = complex(c[0], c[1])
    N = int(doc.get("N", spinor_size(kind, cfg.n)))
    return PotentialSpec.preset(doc["preset"], cfg.n, N, c=c,
                                R=doc.get("R", 1.0), sigma=doc.get("sigma", 2.0))


def build_weight(cfg: RunConfig) -> WeightSpec:
    doc = cfg.weight
    if doc is None:
        return None
    return WeightSpec(kind=doc["kind"], eps=doc.get("eps", 0.5), sigma=doc.get("sigma", 2.0),
                      delta=doc.get("delta", 0.5), exponent=doc.get("exponent", 1.0))


def build_grid(cfg: RunConfig, kind=None) -> GridSpec:
    kind = kind or cfg.kind
    g = cfg.grid
    return GridSpec(n=cfg.n, L=float(g["L"]), M=int(g["M"]), N=spinor_size(kind, cfg.n))
