"""Where a benchmark job list's time goes, by job class, run in one process.

    python3 tools/job_time.py --tree T --workload certify_eig --seed 1 --seed 101 --passes 5

Loads ``T/perfbench/run.py`` (``tools/dump_reports.py``'s ``load_run_module``), runs
``Run.setup()`` (the seeded job list and its warm-up jobs), then runs every job of the list
``--passes`` times, in the list's order, through ``run_job``.  For the run the tool wraps
``scipy.linalg.eig`` to add up the time spent inside it, and restores it afterwards.  Each job
keeps its best (least) time over the passes, and the time inside ``eig`` in that pass.

Jobs are grouped by class: command, kind, M, and whether V is zero (no potential, or coupling
``c = 0``; a potential file counts as nonzero).  Per class it prints the number of jobs, the sum
of their best times, its share of the whole, and the time inside ``eig`` within that sum; the
largest classes first.  A job whose config has no kind or grid shows ``-`` there.  Over the
whole list it prints ``job_p50_s``, ``job_p90_s`` and ``jobs_per_s`` by the runner's own rule
(``timing_metrics`` in ``T/perfbench/run.py``: each distinct job's best time), unscaled by the
runner's host-speed factor.  Each ``--seed`` is one job list, measured and printed in turn.  As with
``tools/dump_reports.py``, the run works in ``T/.perfbench_work`` and removes its directory there
afterwards; nothing under ``T/perfbench`` is written.

Exits 1 if a job fails.
"""

import argparse
import sys
import time

import scipy.linalg

from dump_reports import WORKLOADS, load_run_module


def job_class(command, doc):
    """(command, kind, M, "V=0" or "V!=0") of a job's config."""
    pot = doc.get("potential")
    c = pot.get("c", 1.0) if pot else 0.0
    zero = not pot or ("file" not in pot and not any(c if isinstance(c, list) else [c]))
    return (command, doc.get("kind", "-"), doc.get("grid", {}).get("M", "-"),
            "V=0" if zero else "V!=0")


def by_class(classes, seconds, eig_seconds):
    """Rows (class, jobs, seconds, share, eig seconds) summed over the jobs of each class, from
    per-job lists; the largest sum first, and among equal sums the class seen first."""
    rows = {}
    for cls, t, e in zip(classes, seconds, eig_seconds):
        n, s, se = rows.get(cls, (0, 0.0, 0.0))
        rows[cls] = (n + 1, s + t, se + e)
    total = sum(seconds) or 1.0
    ranked = sorted(rows.items(), key=lambda item: -item[1][1])  # stable: ties keep first-seen order
    return [(cls, n, s, s / total, se) for cls, (n, s, se) in ranked]


def quantile_line(metrics):
    """One line of the runner's timing metrics: job_p50_s and job_p90_s in ms, jobs_per_s."""
    return (f"  job_p50_s {metrics['job_p50_s'] * 1e3:.2f} ms, job_p90_s "
            f"{metrics['job_p90_s'] * 1e3:.2f} ms, jobs_per_s {metrics['jobs_per_s']:.1f}")


def measure(run_mod, workload, seed, passes):
    """Per job of the list: its class, best time over the passes and the eig time of that pass;
    every attempt; the number of failed attempts."""
    real_eig, inside = scipy.linalg.eig, [0.0]

    def timed_eig(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_eig(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - t0

    run = run_mod.Run(workload, seed)
    best, attempts, failed = {}, [], 0
    try:
        run.setup()
        scipy.linalg.eig = timed_eig
        for _ in range(passes):
            for i, job in enumerate(run.jobs):
                inside[0] = 0.0
                attempt = run_mod.run_job(run.cli, job, "out/job.json", run.sink)
                attempts.append(attempt)
                if not attempt.ok:
                    failed += 1
                    print(f"FAILED {job.command} {job.path}: {attempt.error.strip()[:500]}")
                if i not in best or attempt.seconds < best[i][0]:
                    best[i] = (attempt.seconds, inside[0])
    finally:
        scipy.linalg.eig = real_eig
        run.cleanup()
    classes = [job_class(job.command, job.doc) for job in run.jobs]
    return classes, [best[i][0] for i in range(len(classes))], \
        [best[i][1] for i in range(len(classes))], attempts, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, help="repository root whose program and benchmark to run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="job-list seed; repeat for several lists")
    parser.add_argument("--passes", type=int, default=5, help="passes over the job list (default 5)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    run_mod, failed = load_run_module(args.tree), 0
    for seed in args.seed:
        classes, seconds, eig_seconds, attempts, bad = measure(run_mod, args.workload, seed,
                                                               args.passes)
        failed += bad
        print(f"{args.workload} seed {seed}: {len(classes)} jobs, best of {args.passes} passes, "
              f"sum {sum(seconds) * 1e3:.1f} ms, inside scipy.linalg.eig {sum(eig_seconds) * 1e3:.1f} ms")
        print(quantile_line(run_mod.timing_metrics(attempts, 1.0)))
        print(f"  {'command':8s} {'kind':12s} {'M':>3s} {'V':5s} {'jobs':>5s} {'ms':>9s} {'share':>6s} "
              f"{'eig ms':>8s}")
        for (command, kind, M, V), n, s, share, se in by_class(classes, seconds, eig_seconds):
            print(f"  {command:8s} {kind:12s} {M!s:>3s} {V:5s} {n:5d} {s * 1e3:9.2f} {share:6.1%} "
                  f"{se * 1e3:8.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
