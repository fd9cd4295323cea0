"""The benchmark's span tracer must still reach every layer it names.

``perfbench/tracing.py`` patches ``spectralcert`` module namespaces from
outside, so a renamed function, or a function object captured at import
time instead of looked up as a module global at call time, silently drops
its spans.  This runs a few tiny CLI jobs under the tracer and checks that
each layer, and each caller/callee edge the per-layer metrics rely on, shows up.
"""

from collections import Counter
import importlib.util
import json
from pathlib import Path

import numpy as np

from spectralcert import bench, cli, enclosure, weights
from spectralcert.potential import PotentialSpec, save_potential_binary

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

GRID = {"L": 8.0, "M": 8}
JOBS = [
    ("bench", {"estimate": "L3.3-X", "n": 3, "m": 1.0, "trials": 2, "grid": GRID}),
    ("bench", {"estimate": "C3.4-b", "n": 3, "m": 1.0, "trials": 2, "grid": GRID}),
    ("bench", {"estimate": "L3.6-hom", "n": 3, "m": 0.5, "trials": 2, "grid": GRID}),
    ("scan", {"kind": "schrodinger", "n": 3, "m": 0.0,
              "potential": {"preset": "bump", "c": 2.0, "R": 2.5, "N": 1},
              "grid": {"L": 3.0, "M": 4},
              "rectangle": {"re_min": -1.0, "re_max": 1.0, "im_min": 0.3, "im_max": 0.9},
              "resolution": {"n_re": 2, "n_im": 1}}),
    ("certify", {"theorem": "2.3", "kind": "dirac", "n": 3, "m": 1.0,
                 "potential": {"preset": "inverse-square", "c": 5e-6},
                 "weight": {"kind": "rho2", "eps": 0.5, "delta": 0.5}}),
    ("disks", {"n": 3, "m": 1.0, "j": 1, "potential": {"preset": "bump", "c": 1e-6}}),
    ("norms", {"n": 3, "p": "inf", "q": "inf", "potential": {"preset": "bump", "c": 0.5}}),
    ("eig", {"kind": "schrodinger", "n": 3, "m": 1.0,
             "potential": {"preset": "inverse-square", "c": 0.5}, "grid": {"L": 3.0, "M": 4}}),
]


def test_tracer_sees_every_layer(tmp_path):
    pot = tmp_path / "pot.bin"
    values = np.random.default_rng(0).normal(size=(4 ** 3, 1, 1))
    save_potential_binary(PotentialSpec.from_samples(3, 1, 8.0, 4, values), pot)
    file_norms = ("norms", {"n": 3, "p": "inf", "q": "inf",
                            "potential": {"file": str(pot), "format": "binary"}})
    namespaces = {mod: dict(vars(mod)) for mod in (bench, cli, enclosure, weights)}
    init = bench._Context.__init__
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for i, (command, doc) in enumerate(JOBS + [file_norms]):
            cfg = tmp_path / f"job{i}.json"
            cfg.write_text(json.dumps(doc))
            out = str(tmp_path / f"job{i}_report.json")
            assert cli.main([command, "--config", str(cfg), "--out", out]) == cli.EXIT_OK
    finally:
        tracer.uninstall()

    rows = tracer.summary()
    for name in ("bench.run", "bench.context", "weights.grid_norms", "gridops.resolvent",
                 "bs.scan", "bs.factor_on_grid", "bs.apply", "bs.norm", "enclosure.certify", "enclosure.disks",
                 "enclosure.rho_norms", "weights.dyadic_norm", "gridops.assemble",
                 "gridops.eigenvalues", "lapack.eig", "potential.load"):
        assert rows.get(name, {}).get("calls", 0) > 0, name
    assert rows["bench.run"]["calls"] == 3

    spans = tracer.spans
    edges = [(spans[parent][0], name) for name, _, _, parent, _, _ in spans if parent >= 0]
    # L3.3-X: two Morrey norms and one dyadic norm per trial; C3.4-b: two dyadic norms
    assert edges.count(("bench.run", "weights.grid_norms")) == 2 * 3 + 2 * 2
    for edge in (("bench.run", "bench.context"), ("bench.run", "weights.grid_norms"),
                 ("bench.run", "gridops.resolvent"), ("bs.scan", "bs.factor_on_grid"),
                 ("bs.scan", "bs.norm"), ("bs.norm", "bs.apply"),
                 ("bs.apply", "gridops.resolvent"),
                 # each certificate's hypothesis norm is a dyadic norm of its own
                 ("enclosure.certify", "weights.dyadic_norm"),
                 ("enclosure.disks", "weights.dyadic_norm"),
                 ("gridops.eigenvalues", "lapack.eig")):
        assert edge in edges, edge
    # K_z and K_z* each apply the free resolvent once
    applies = [i for i, span in enumerate(spans) if span[0] == "bs.apply"]
    children = Counter(parent for name, _, _, parent, _, _ in spans if name == "gridops.resolvent")
    assert applies and all(children[i] == 1 for i in applies)

    assert bench._Context.__init__ is init
    for mod, before in namespaces.items():
        assert all(vars(mod)[key] is value for key, value in before.items())
