"""Command-line entry point.

Commands: certify, disks, scan, eig, bench, norms.  Each reads a JSON
config, runs the corresponding computation, and writes one canonical JSON
report (bulk data spills to CSV siblings).

Exit codes: 0 success, 1 validation error, 2 computational error,
3 certificate inconclusive.
"""

import argparse
import contextlib
from dataclasses import asdict
from functools import lru_cache
import json
import sys
import time

import numpy as np

from . import birman_schwinger as bs
from . import bench as bench_mod
from .config import (ConfigError, parse_config, build_potential, build_weight,
                     build_grid, COMMANDS)
from .enclosure import certify as run_certify_op, enclosure_disks, c2_constant, potential_norm
from .gridops import dense_spectrum
from .report import make_report, write_report
from .weights import dyadic_norm

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTE = 2
EXIT_INCONCLUSIVE = 3


def _cert_dict(cert):
    d = asdict(cert)
    if cert.disks is None:
        del d["disks"]
    else:
        d["disks"].update(N_j=cert.params.get("N_j"), C2=c2_constant(cert.n))
    return d


def _cert_warnings(cert):
    warns = []
    if cert.tail_bound is None and cert.norm is not None:
        warns.append("tail bound unknown: reported norm covers the sampled annuli only")
    if cert.verdict == "inconclusive" and cert.reason:
        warns.append(cert.reason)
    return warns


def _do_certificate(cfg):
    """certify and disks: one certificate, exit 0 if it is stable or an enclosure."""
    V, rho = build_potential(cfg), build_weight(cfg)
    if cfg.command == "disks":
        cert = enclosure_disks(V, m=cfg.m, j=cfg.j, rho=rho)
    else:
        cert = run_certify_op(cfg.theorem, V, m=cfg.m, eps=cfg.eps, sigma=cfg.sigma, rho=rho)
    code = EXIT_OK if cert.verdict in ("stable", "enclosure") else EXIT_INCONCLUSIVE
    return {"certificate": _cert_dict(cert)}, _cert_warnings(cert), {}, code


def _do_scan(cfg):
    V = build_potential(cfg)
    grid = build_grid(cfg)
    rect = tuple(cfg.rectangle[k] for k in ("re_min", "re_max", "im_min", "im_max"))
    res = (cfg.resolution["n_re"], cfg.resolution["n_im"])
    scan = bs.bs_scan(cfg.kind, cfg.m, V, grid, rect, res, seed=cfg.seed)
    box = scan.region_bounding_box()
    results = {
        "rectangle": cfg.rectangle,
        "resolution": cfg.resolution,
        "excluded_points": int(scan.excluded.sum()),
        "max_norm_estimate": (None if np.all(scan.excluded)
                              else float(np.nanmax(scan.values))),
        "region_ge_1_bounding_box": (None if box is None else
                                     {"re_min": box[0], "re_max": box[1],
                                      "im_min": box[2], "im_max": box[3]}),
    }
    warns = ["some scan points excluded near the discrete symbol set"] if scan.excluded.any() else []
    return results, warns, {"scan": (bs.SCAN_CSV_HEADER, scan.csv_rows())}, EXIT_OK


def _do_eig(cfg):
    V = build_potential(cfg)
    grid = build_grid(cfg)
    vals, block_sizes = dense_spectrum(cfg.kind, cfg.m, V, grid)
    results = {
        "block_sizes": block_sizes,
        "count": len(vals),
        "max_abs_imag": float(np.max(np.abs(vals.imag))),
        "real_range": [float(vals.real.min()), float(vals.real.max())],
    }
    rows = [(v.real, v.imag) for v in vals]
    return results, [], {"spectrum": (("re_lambda", "im_lambda"), rows)}, EXIT_OK


def _do_bench(cfg):
    rep = bench_mod.run_bench(cfg.estimate, build_grid(cfg), cfg.m, cfg.trials, cfg.seed)
    results = asdict(rep)
    warns = []
    if rep.paper_constant is None:
        results["paper_constant"] = "non-explicit"
        warns = ["estimate has no explicit analytic constant; ratio reported without pass/fail"]
    return results, warns, {}, EXIT_OK


def _do_norms(cfg):
    table = {}
    if cfg.weight is not None:
        prof = build_weight(cfg).profile
        table["weight"] = asdict(dyadic_norm(prof, cfg.p, cfg.q, cfg.n, breaks=prof.breaks))
    if cfg.potential is not None:
        table["potential"] = asdict(potential_norm(build_potential(cfg), p=cfg.p, q=cfg.q))
    warns = [k + ": tail bound unknown" for k, v in table.items() if v["tail_bound"] is None]
    return {"norms": table}, warns, {}, EXIT_OK


_RUNNERS = {
    "certify": _do_certificate,
    "disks": _do_certificate,
    "scan": _do_scan,
    "eig": _do_eig,
    "bench": _do_bench,
    "norms": _do_norms,
}


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and shared by every later call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="spectralcert",
        description="Spectral-stability certificates and Birman-Schwinger numerics "
                    "for perturbed Dirac and Klein-Gordon operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="report path (default <config>_report.json)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.seed is not None:  # checked with the document; a non-object keeps its own error
        with contextlib.suppress(json.JSONDecodeError):
            doc = json.loads(text)
            text = {**doc, "seed": args.seed} if isinstance(doc, dict) else text
    try:
        cfg = parse_config(text, args.command)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    out = args.out or (args.config.removesuffix(".json") + "_report.json")
    t0 = time.monotonic()
    try:
        results, warnings, siblings, code = _RUNNERS[args.command](cfg)
    except (ValueError, RuntimeError, MemoryError) as e:
        print(f"error: computation failed: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    elapsed = time.monotonic() - t0

    report = make_report(args.command, {"command": args.command, **cfg.raw}, results, warnings)
    try:
        write_report(report, out, siblings)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    print(f"{args.command}: report written to {out} ({elapsed:.2f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
