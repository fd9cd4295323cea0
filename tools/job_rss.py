"""Which jobs of a benchmark job list raise the process's peak memory, run in one process.

    python3 tools/job_rss.py --tree T --workload certify_eig --seed 1 --passes 3

Loads ``T/perfbench/run.py`` (``tools/dump_reports.py``'s ``load_run_module``), runs
``Run.setup()`` (the seeded job list and its warm-up jobs), then runs every job of the list
``--passes`` times, in the list's order, through ``run_job``.  ``ru_maxrss`` is the peak resident
set size so far, so it only rises.  It is printed after set-up and after each pass; then the
jobs with the largest rises, with the pass, config number, command, kind, M and dimension D of
each, and the modules the job imported first (from ``sys.modules`` before and after it), so
that a lazy import shows as the cause of a rise.  A job whose config has no grid shows ``-`` for
M and D.  As with ``tools/dump_reports.py``, the run works in ``T/.perfbench_work`` and removes
its directory there afterwards; nothing under ``T/perfbench`` is written.

Exits 1 if a job fails.
"""

import argparse
import resource
import sys
from pathlib import Path

from dump_reports import WORKLOADS, load_run_module

TOP = 5


def maxrss_mb():
    """The peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def largest_rises(marks, k=TOP):
    """The k largest rises of ``marks`` (a peak before the first job, then one after each job)
    as (job index, rise), largest first; among equal rises the earlier job comes first."""
    rises = [after - before for before, after in zip(marks, marks[1:])]
    order = sorted(range(len(rises)), key=lambda i: -rises[i])
    return [(i, rises[i]) for i in order[:k]]


def first_imports(before, after):
    """The modules in ``after`` but not in ``before`` (collections of module names) whose parent
    package is not new too: the roots of what was imported in between, sorted."""
    new = set(after) - set(before)
    return sorted(m for m in new if m.rpartition(".")[0] not in new)


def describe(job):
    """Config number, command, kind, M and dimension D of a job (``-`` where it has none)."""
    from spectralcert.gridops import spinor_size  # the tree's, once its runner is loaded

    doc = job.doc
    kind, n, M = doc.get("kind", "-"), doc.get("n", 3), doc.get("grid", {}).get("M")
    D = "-" if M is None else M ** n * spinor_size(kind, n)
    return (f"config {Path(job.path).stem}  {job.command:7s}  {kind:12s}  "
            f"M={'-' if M is None else M}  D={D}")


def measure(run_mod, workload, seed, passes):
    """ru_maxrss after set-up and after each job; the (pass, job, first imports) of each later
    mark; failures."""
    run = run_mod.Run(workload, seed)
    marks, runs, failed = [], [], 0
    try:
        run.setup()
        marks.append(maxrss_mb())
        print(f"{workload} seed {seed}: {len(run.jobs)} jobs; ru_maxrss after set-up "
              f"{marks[0]:.1f} MB")
        loaded = set(sys.modules)
        for p in range(1, passes + 1):
            for job in run.jobs:
                attempt = run_mod.run_job(run.cli, job, "out/job.json", run.sink)
                if not attempt.ok:
                    failed += 1
                    print(f"FAILED {job.command} {job.path}: {attempt.error.strip()[:500]}")
                marks.append(maxrss_mb())
                before, loaded = loaded, set(sys.modules)
                runs.append((p, job, first_imports(before, loaded)))
            print(f"after pass {p}: {marks[-1]:.1f} MB")
    finally:
        run.cleanup()
    return marks, runs, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, help="repository root whose program and benchmark to run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="job-list seed")
    parser.add_argument("--passes", type=int, default=3, help="passes over the job list (default 3)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    marks, runs, failed = measure(load_run_module(args.tree), args.workload, args.seed, args.passes)
    print(f"largest rises of ru_maxrss over {args.passes} passes:")
    for i, rise in largest_rises(marks):
        p, job, imports = runs[i]
        print(f"  {rise:+6.1f} MB  pass {p}  {describe(job)}  imports: {' '.join(imports) or '-'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
