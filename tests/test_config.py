"""The config contract: one table of keys, echoes that re-parse, and documented examples."""

import json
import re
from pathlib import Path

import pytest

from spectralcert import config
from spectralcert.config import ConfigError, parse_config

MINIMAL = {
    "certify": {"theorem": "2.3", "potential": {"preset": "bump"}},
    "disks": {"m": 1.0, "potential": {"preset": "inverse-square", "c": [1e-5, 0]}},
    "scan": {"kind": "schrodinger", "potential": {"preset": "bump", "R": 2},
             "grid": {"L": 4, "M": 8},
             "rectangle": {"re_min": -1, "re_max": 1, "im_min": 0.1, "im_max": 0.5},
             "resolution": {"n_re": 3, "n_im": 2}},
    "eig": {"kind": "klein_gordon", "potential": {"preset": "dyadic-decay", "sigma": 3},
            "grid": {"L": 4.0, "M": 4}},
    "bench": {"estimate": "KY"},
    "norms": {"p": "inf", "q": 2, "weight": {"kind": "rho2", "eps": 1}},
}


def test_minimal_configs_cover_every_command():
    assert set(MINIMAL) == set(config.COMMANDS)


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_echo_reparses_to_an_equal_config(command):
    cfg = parse_config(json.dumps(MINIMAL[command]), command)
    again = parse_config(cfg.raw, command)
    assert vars(again) == vars(cfg)
    assert set(vars(cfg)) == set(config._KEYS) | {"command", "raw"}


def test_every_command_key_has_a_table_entry():
    for command, (required, other) in config._COMMAND_KEYS.items():
        assert not required & other, command
        assert required | other <= set(config._KEYS), command
        assert set(config._COMMAND_DEFAULTS.get(command, {})) <= required | other, command


def test_missing_required_keys_are_listed_in_a_fixed_order():
    with pytest.raises(ConfigError) as e:
        parse_config({}, "scan")
    assert e.value.errors == [f"$.{k}: required"
                              for k in ("grid", "kind", "potential", "rectangle", "resolution")]


def test_bench_defaults():
    cfg = parse_config({"estimate": "KY", "n": 4}, "bench")
    assert cfg.m == 1.0 and cfg.grid == {"L": 8.0, "M": 32}
    assert config.build_grid(cfg).n == 4
    assert parse_config({"estimate": "KY", "m": 0}, "bench").m == 0.0


@pytest.mark.parametrize("potential, path", [
    ({"file": "v.bin", "format": "hdf5"}, "$.potential.format"),
    ({"file": 7}, "$.potential.file"),
    ({"preset": "bump", "c": [1.0, 2.0, 3.0]}, "$.potential.c"),
    ({"preset": "bump", "file": "v.bin"}, "$.potential:"),
    ({"preset": "bump", "R": float("nan")}, "$.potential.R"),
    ({"preset": "bump", "c": [0.0, float("inf")]}, "$.potential.c"),
    # keys the source ignores: "c": 1000 beside a file reported the unscaled norm
    ({"file": "v.bin", "c": 1000}, "$.potential:"),
    ({"file": "v.txt", "R": 2, "sigma": 3, "N": 4}, "$.potential:"),
    ({"preset": "bump", "format": "text"}, "$.potential:"),
])
def test_potential_section_rules(potential, path):
    with pytest.raises(ConfigError) as exc:
        parse_config({"p": 2, "q": 2, "potential": potential}, "norms")
    assert any(e.startswith(path) for e in exc.value.errors), exc.value.errors


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return dict(re.findall(r"Example `(\w+)\.json`.*?```json\n(.*?)```", text, re.S))


@pytest.mark.parametrize("name, command", [("cert", "certify"), ("scan", "scan"),
                                           ("bench", "bench")])
def test_readme_examples_parse(name, command):
    doc = _readme_examples()[name]
    cfg = parse_config(doc, command)
    assert cfg.raw == json.loads(doc)
