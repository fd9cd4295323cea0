"""Strict parsing and validation of run configurations.

Configs are JSON documents.  ``_KEYS`` is the one table of config keys, each
with its check and its value when absent; ``_COMMAND_KEYS`` names the keys
each command requires and the others it reads, and ``_COMMAND_DEFAULTS``
holds where a command's default differs.  Names to choose from, the
parameters each one reads and rules that a library object owns are read from
the module that owns them.  Unknown keys and unread parameters are fatal, and
every problem is reported at once with its path, so a typo in a weight
parameter cannot silently produce a wrong certificate.
"""

import json
import math
from types import SimpleNamespace

from .bench import ESTIMATE_IDS
from .enclosure import (CERTIFY_THEOREMS, MASSLESS_THEOREMS, QUALITATIVE, THEOREM_PARAMS,
                        check_dimension)
from .gridops import KINDS, GridSpec, spinor_size
from .potential import (PRESET_PARAMS, PRESETS, PotentialSpec, load_potential_text,
                        load_potential_binary)
from .weights import WEIGHT_KINDS, WEIGHT_PARAMS, WeightSpec

COMMANDS = ("certify", "disks", "scan", "eig", "bench", "norms")


class ConfigError(ValueError):
    """All validation problems of a config, each with the offending path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


class RunConfig(SimpleNamespace):
    """A parsed config: its ``command``, the document as given (``raw``) and one
    attribute per key of ``_KEYS``, at its default where the document has none."""


# -- checks: each takes a JSON value and returns it parsed, or raises ValueError

def _number(lo=None, hi=None, integer=False):
    """A number in [lo, hi], parsed to int if ``integer`` and to float otherwise."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {v!r}")
        if integer and not float(v).is_integer():
            raise ValueError(f"expected an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ValueError(f"value {v} below minimum {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"value {v} above maximum {hi}")
        return int(v) if integer else float(v)
    return check


_real = _number()
_integer = _number(integer=True)
_positive = _number(lo=1e-12)
_count = _number(lo=1, integer=True)


def _choice(options):
    """One of ``options``; a dict maps each allowed value to its parsed value."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (str, int, float)) or v not in options:
            raise ValueError(f"expected one of {', '.join(map(json.dumps, options))}, got {v!r}")
        return options[v] if isinstance(options, dict) else v
    return check


def _coupling(v):
    """The coupling c: a number, or an [re, im] pair for a complex c."""
    if isinstance(v, list) and len(v) == 2:
        return complex(*map(_real, v))
    return complex(_real(v))


def _text(v):
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _object(checks, required=(), rule=None):
    """An object whose keys ``checks`` parses, of which ``required`` must be
    present, and a ``rule`` across keys that runs once they all passed.  Its
    ConfigError gives each path relative to the object: ".key: ..." for a key,
    ": ..." for the object itself."""
    def check(doc):
        if not isinstance(doc, dict):
            raise ConfigError([": expected an object"])
        errors, out = [], {}
        for k, v in doc.items():
            if k not in checks:
                errors.append(f".{k}: unknown key")
                continue
            try:
                out[k] = checks[k](v)
            except ConfigError as e:
                errors += [f".{k}{sub}" for sub in e.errors]
            except ValueError as e:
                errors.append(f".{k}: {e}")
        errors += [f".{k}: required" for k in required if k not in doc]
        if rule is not None and not errors:
            try:
                rule(out)
            except ValueError as e:
                errors.append(f": {e}")
        if errors:
            raise ConfigError(errors)
        return out
    return check


def _one_source(potential):
    if ("preset" in potential) == ("file" in potential):
        raise ValueError("exactly one of 'preset' or 'file' is required")
    other = "file" if "preset" in potential else "preset"
    stray = sorted(set(potential) & _SOURCE_KEYS[other])
    if stray:
        raise ValueError(f"only a '{other}' takes {', '.join(stray)}")


def _ordered(rect):
    for axis in ("re", "im"):
        if rect[axis + "_min"] > rect[axis + "_max"]:
            raise ValueError(f"{axis}_min > {axis}_max")


_RECT = ("re_min", "re_max", "im_min", "im_max")
_SOURCE_KEYS = {"preset": {"c", "R", "sigma", "N"}, "file": {"format"}}  # read by one source only


# key -> (its check, its value when the document has no such key)
_KEYS = {
    "seed": (_number(lo=0, integer=True), 0),
    "kind": (_choice(KINDS), "dirac"),
    "n": (lambda v: check_dimension(_integer(v)), 3),
    "m": (_number(lo=0.0), 0.0),
    "theorem": (_choice(CERTIFY_THEOREMS), None),
    "j": (_number(lo=1, hi=2, integer=True), 1),
    "eps": (_positive, 0.25),
    "sigma": (_real, 2.0),
    "potential": (_object({"preset": _choice(PRESETS), "c": _coupling, "R": _positive,
                           "sigma": _number(lo=1.0), "N": _count, "file": _text,
                           "format": _choice(("text", "binary"))}, rule=_one_source), None),
    "weight": (_object({"kind": _choice(WEIGHT_KINDS), "eps": _positive, "sigma": _real,
                        "delta": _positive, "exponent": _real},
                       required=("kind",), rule=lambda w: WeightSpec(**w)), None),
    "grid": (_object({"L": _number(lo=1e-9), "M": _integer}, required=("L", "M"),
                     rule=lambda g: GridSpec(n=1, **g)), None),  # GridSpec owns the M rule
    "rectangle": (_object(dict.fromkeys(_RECT, _real), required=_RECT, rule=_ordered), None),
    "resolution": (_object(dict.fromkeys(("n_re", "n_im"), _count), required=("n_re", "n_im")),
                   None),
    "estimate": (_choice(ESTIMATE_IDS), None),
    "trials": (_count, 100),
    "p": (_choice({1: 1.0, 2: 2.0, "inf": math.inf}), None),
    "q": (_choice({2: 2.0, "inf": math.inf}), None),
}

# command -> (the keys it requires, the other keys it reads)
_COMMAND_KEYS = {
    "certify": ({"theorem", "potential"}, {"kind", "n", "m", "weight", "eps", "sigma", "seed"}),
    "disks": ({"m", "potential"}, {"n", "j", "weight", "seed"}),
    "scan": ({"kind", "potential", "grid", "rectangle", "resolution"}, {"n", "m", "seed"}),
    "eig": ({"kind", "potential", "grid"}, {"n", "m", "seed"}),
    "bench": ({"estimate"}, {"n", "m", "trials", "grid", "seed"}),
    "norms": ({"p", "q"}, {"n", "potential", "weight", "seed"}),
}

_COMMAND_DEFAULTS = {"bench": {"m": 1.0, "grid": {"L": 8.0, "M": 32}}}

_DOCUMENT = {cmd: _object({k: _KEYS[k][0] for k in required | other}, sorted(required))
             for cmd, (required, other) in _COMMAND_KEYS.items()}


def _unread(path, given, table, item, owner):
    """Problems for the keys of ``given`` that some item of the owner's ``table`` reads
    but the chosen ``item`` does not."""
    for key in sorted(set(given) & set().union(*table.values()) - set(table[item])):
        yield f"{path}.{key}: not read by {owner} {item}"


def _command_rules(cfg):
    """Problems across keys of a parsed config, including rules a library object owns."""
    if cfg.command == "disks" and cfg.m <= 0.0:
        yield "$.m: disks need m > 0"
    if cfg.command == "norms" and cfg.potential is None and cfg.weight is None:
        yield "$: norms needs a 'potential' or a 'weight' target"
    if cfg.command in ("certify", "disks"):
        yield from _unread("$", cfg.raw, THEOREM_PARAMS, cfg.theorem or f"2.5-j{cfg.j}", "theorem")
    if cfg.potential is not None and "preset" in cfg.potential:
        yield from _unread("$.potential", cfg.potential, PRESET_PARAMS, cfg.potential["preset"],
                           "preset")
    if cfg.weight is not None:
        yield from _unread("$.weight", cfg.weight, WEIGHT_PARAMS, cfg.weight["kind"], "weight")
    if cfg.theorem in MASSLESS_THEOREMS and cfg.m != 0.0:
        yield f"$.m: theorem {cfg.theorem} needs m = 0"
    if cfg.theorem in QUALITATIVE:
        kind, param, _ = QUALITATIVE[cfg.theorem]
        try:
            WeightSpec(kind, **{param: getattr(cfg, param)})
        except ValueError as e:
            yield f"$.{param}: {e}"
    if cfg.potential is not None and "preset" in cfg.potential:
        try:
            build_potential(cfg)  # reads no file
        except ValueError as e:
            yield f"$.potential: {e}"


def parse_config(text, command) -> RunConfig:
    """Validate a JSON config (text or a decoded dict) for one command; raises
    ConfigError listing every problem (not just the first)."""
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}"])
    try:
        doc = text if isinstance(text, dict) else json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    try:
        given = _DOCUMENT[command](doc)
    except ConfigError as e:
        raise ConfigError(["$" + sub for sub in e.errors]) from None
    values = {k: default for k, (_, default) in _KEYS.items()}
    values.update(_COMMAND_DEFAULTS.get(command, {}), **given)
    cfg = RunConfig(command=command, raw=dict(doc), **values)
    errors = list(_command_rules(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def build_potential(cfg: RunConfig) -> PotentialSpec:
    """The config's potential: a file in the config's dimension n, or a preset
    built from the keys the document gives.  An absent N is the spinor size of
    the command's operator: Dirac for disks, scalar for norms, else the config's kind."""
    doc = dict(cfg.potential)
    fmt = doc.pop("format", None)
    if "file" in doc:
        binary = fmt == "binary" if fmt else doc["file"].endswith(".bin")
        try:
            V = (load_potential_binary if binary else load_potential_text)(doc["file"])
        except (OSError, ValueError) as e:
            raise ValueError(f"cannot read potential file {doc['file']}: {e}") from None
        if V.n != cfg.n:
            raise ValueError(f"potential file {doc['file']} has dimension {V.n}, "
                             f"but the config has n = {cfg.n}")
        return V
    kind = {"disks": "dirac", "norms": "schrodinger"}.get(cfg.command, cfg.kind)
    N = doc.pop("N", spinor_size(kind, cfg.n))
    return PotentialSpec.preset(doc.pop("preset"), cfg.n, N, **doc)


def build_weight(cfg: RunConfig) -> WeightSpec:
    return None if cfg.weight is None else WeightSpec(**cfg.weight)


def build_grid(cfg: RunConfig) -> GridSpec:
    g = cfg.grid
    return GridSpec(n=cfg.n, L=g["L"], M=g["M"], N=spinor_size(cfg.kind, cfg.n))
