"""Write the reports of benchmark job lists to a directory, for comparing two trees.

    python3 tools/dump_reports.py --tree T --workload all --seed 1 --seed 9001 --out DIR

Loads ``T/perfbench/run.py``, which imports spectralcert from ``T/src`` and
the job generators from ``T/perfbench/workloads.py``.  For each workload
(``all`` is both) and each ``--seed``, ``Run.setup()`` writes the seeded job
list (and runs the warm-up jobs), each distinct job then runs once through
``run_job``, and every report is copied to ``DIR/<workload>-<seed>/`` with
the CSV siblings its ``files`` list names, under the job's config number.
Nothing under ``T/perfbench`` is written: the run works in
``T/.perfbench_work`` and removes its directory there afterwards.

Reports are canonical JSON, so a refactor that keeps behaviour gives
identical dumps.  With the parent commit exported to ``../parent``
(``git archive``):

    python3 tools/dump_reports.py --tree ../parent --workload all --seed 1 --seed 9001 --out /tmp/old
    python3 tools/dump_reports.py --tree . --workload all --seed 1 --seed 9001 --out /tmp/new
    diff -r /tmp/old /tmp/new

Where the arithmetic changed on purpose, ``tools/diff_reports.py`` lists
every differing number with its relative difference, per workload and seed:

    python3 tools/diff_reports.py /tmp/old/scan_bench-1 /tmp/new/scan_bench-1 --rtol 1e-3

Exits 1 if a job's exit code differs from the one its config predicts.
"""

import argparse
import importlib.util
import json
import shutil
import sys
from pathlib import Path

WORKLOADS = ("scan_bench", "certify_eig")


def load_run_module(tree):
    """Import ``tree/perfbench/run.py`` as a module without running its main()."""
    path = Path(tree).resolve() / "perfbench" / "run.py"
    if not path.is_file():
        raise SystemExit(f"error: no benchmark runner at {path}")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(run_mod, workload, seed, out):
    """Run each distinct job of the workload once; copy its report and siblings to ``out``."""
    run = run_mod.Run(workload, seed)
    failed = 0
    try:
        run.setup()
        for job in run.jobs:
            report = Path("out") / f"{Path(job.path).stem}.json"
            attempt = run_mod.run_job(run.cli, job, str(report), run.sink)
            if not attempt.ok:
                failed += 1
                print(f"FAILED {job.command} {job.path}: {attempt.error.strip()[:500]}")
            if not report.is_file():
                continue
            shutil.copy(report, out / report.name)
            for sibling in json.loads(report.read_text()).get("files", []):
                shutil.copy(report.parent / sibling, out / sibling)
    finally:
        run.cleanup()
    return len(run.jobs), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, help="repository root whose program and benchmark to run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, action="append",
                        help="job-list seed; repeat for several")
    parser.add_argument("--out", required=True, help="directory for the reports (created if missing)")
    args = parser.parse_args(argv)
    # resolved before any run: Run.cleanup() leaves the working directory at the tree root
    out_root = Path(args.out).resolve()
    run_mod = load_run_module(args.tree)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    any_failed = False
    for workload in workloads:
        for seed in args.seed:
            out = out_root / f"{workload}-{seed}"
            out.mkdir(parents=True, exist_ok=True)
            jobs, failed = dump(run_mod, workload, seed, out)
            any_failed |= failed > 0
            print(f"{workload} seed {seed}: {jobs} jobs, {failed} failed, "
                  f"{sum(1 for _ in out.iterdir())} files in {out}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
