"""Benchmark of the spectralcert command line: seeded workloads, oracles, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each job is one in-process ``spectralcert.cli.main([...])`` call on a config
file written during set-up.  The timed phase runs the seeded list of distinct
jobs (a pass) over and over until ``--seconds`` have passed; each job's time
is the fastest of its repeats, scaled to a reference host speed (see
``HostSpeed``).  Every job's output is then checked against an independent
oracle (see ``oracles.py``), outside the timed phase.  With
``--trace 1`` the run is split into an untraced half and a traced half, and
the per-layer metrics come from the traced half.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process.
"""

import time

_T0 = time.perf_counter()

import os

THREAD_CAP = 1  # BLAS/OpenMP threads; numpy's FFT is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("scan_bench", "certify_eig")
HOLDOUT_SEED = 9001      # never used while developing a change; confirms claims afterwards
SETUP_PROBES = 4         # extra fresh processes that time the set-up, besides this one
REF_SECONDS = 0.001      # HostSpeed's computation on an unslowed core of the 2-vCPU Xeon VM the bounds were set on
SETUP_REF_SAMPLES = 40   # reference samples that scale one set-up time
END_TO_END = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_RUN_UNITS = {"trace.jobs_per_s_untraced": "1/s", "trace.jobs_per_s_traced": "1/s",
                   "trace.overhead_frac": "ratio", "trace.jobs": "count", "input.reuse_frac": "ratio"}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import spectralcert from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "spectralcert" / "cli.py").is_file():
        fail(f"no spectralcert sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import spectralcert.cli
    if Path(spectralcert.cli.__file__).resolve().parent != (src / "spectralcert").resolve():
        fail(f"spectralcert imported from {spectralcert.cli.__file__}, not from {src}")
    return spectralcert.cli


class HostSpeed:
    """A fixed computation that is not spectralcert code, timed between jobs.

    The benchmark's host is shared: other tenants slow its cores by up to 2x,
    for seconds at a time and by 10-30% from one minute to the next.  This
    computation (small numpy FFTs, a small dense eigenproblem, a Python loop:
    the kinds of work the jobs do) slows with them.  ``scale`` is
    REF_SECONDS over the lower quartile of its times, the factor that turns
    a time measured now into a time at the reference speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.field = rng.normal(size=(16, 16, 16)) + 0j
        self.matrix = rng.normal(size=(40, 40))
        self.times = []

    def sample(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(8):
            np.fft.fftn(self.field)
        np.linalg.eigvals(self.matrix)
        s = 0
        for i in range(2000):
            s += i * i
        self.times.append(time.perf_counter() - t0)

    def scale(self):
        return REF_SECONDS / statistics.quantiles(self.times, n=4)[0]


@dataclass
class Attempt:
    job: object
    out: str
    code: int
    seconds: float
    error: str = ""

    @property
    def ok(self):
        return not self.error


def run_job(cli, job, out, sink):
    """One CLI call; returns an Attempt whose error is set if the call failed."""
    sink.seek(0)
    sink.truncate()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            code = cli.main([job.command, "--config", job.path, "--out", out])
    except Exception:
        return Attempt(job, out, None, time.perf_counter() - t0, traceback.format_exc())
    dt = time.perf_counter() - t0
    error = ""
    if code == 2 or code != job.expect:
        error = f"exit {code}, config predicts {job.expect}: {sink.getvalue().strip()}"
    return Attempt(job, out, code, dt, error)


def job_digest(jobs):
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([job.command, job.doc, job.expect], sort_keys=True).encode())
        f = job.doc.get("potential", {}).get("file")
        if f:
            h.update(Path(f).read_bytes())
    return h.hexdigest()[:16]


class Run:
    """One workload in one working directory: set-up, timed phases, verification."""

    def __init__(self, name, seed):
        self.cli = import_program()
        import numpy as np
        import workloads

        self.np = np
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.workload = workloads.WORKLOADS[name]()
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.counter = 0
        self.sink = io.StringIO()

    def setup(self):
        """Generate every config and run the untimed warm-up jobs."""
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "cfg").mkdir(parents=True)
        (self.dir / "out").mkdir()
        os.chdir(self.dir)
        rng = self.np.random.default_rng([self.seed, WORKLOAD_NAMES.index(self.name)])
        jobs = self.workload.make_pass(rng, self.workloads.InputFiles())
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        warm = self.workload.warmup()
        for k, job in enumerate(warm + self.jobs):
            job.path = f"cfg/{k:05d}.json"
            with open(job.path, "w") as fh:
                json.dump(job.doc, fh)
        self.digest = job_digest(self.jobs)
        self.check_rng = self.np.random.default_rng([self.seed, 1000 + WORKLOAD_NAMES.index(self.name)])
        for k, job in enumerate(warm):
            a = run_job(self.cli, job, f"out/warmup{k}.json", self.sink)
            if a.ok:
                self.verify([a], final=False)
            if not a.ok:
                fail(f"warm-up job failed: {a.error}")

    def timed(self, seconds, tracer=None):
        """Repeat the pass until ``seconds`` have passed and every job ran.

        Returns (attempts, wall seconds, HostSpeed sampled after every job).
        """
        attempts, host = [], HostSpeed()
        t0 = time.perf_counter()
        while len(attempts) < len(self.jobs) or time.perf_counter() - t0 < seconds:
            job = self.jobs[self.counter % len(self.jobs)]
            if tracer is not None:
                tracer.job = self.counter
            out = f"out/{self.counter:05d}.json"
            self.counter += 1
            attempts.append(run_job(self.cli, job, out, self.sink))
            host.sample()
        return attempts, time.perf_counter() - t0, host

    def verify(self, attempts, final=True):
        """Oracle checks after the timed phase; a failed check marks the attempt failed."""
        from oracles import OracleError

        for a in attempts:
            if not a.ok:
                continue
            try:
                self.workload.check(a.job, a.out)
            except OracleError as e:
                a.error = f"oracle: {e}"
            except Exception:
                a.error = "oracle could not read the output:\n" + traceback.format_exc()
        final_check = getattr(self.workload, "final_check", None)
        if final and final_check is not None:
            for a, msg in final_check(self.check_rng, attempts):
                a.error = f"oracle: {msg}"

    def cleanup(self):
        os.chdir(ROOT)
        shutil.rmtree(self.dir, ignore_errors=True)


def reuse_share(jobs):
    """Share of the distinct jobs whose sharing key (grid or weight) an earlier job already used."""
    seen, reused = set(), 0
    for job in jobs:
        if job.key is not None:
            reused += job.key in seen
            seen.add(job.key)
    return reused / len(jobs)


def best_times(attempts):
    """Fastest time of each distinct job over its repeats.

    A shared host slows a core by up to 2x for seconds at a time; the fastest
    of several repeats spread over the run is the measure of the job that such
    slow spells disturb least.
    """
    best = {}
    for a in attempts:
        best[a.job.path] = min(a.seconds, best.get(a.job.path, math.inf))
    return best


def timing_metrics(attempts, scale):
    """End-to-end timings from the fastest repeats, at the reference host speed."""
    best = best_times(attempts)
    times = sorted(t * scale for t in best.values())
    failed = {a.job.path for a in attempts if not a.ok}
    return {
        "jobs_per_s": sum(p not in failed for p in best) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
    }


def scaled_setup(seconds):
    """A set-up time at the reference host speed, sampled right after the set-up."""
    host = HostSpeed()
    for _ in range(SETUP_REF_SAMPLES):
        host.sample()
    return seconds * host.scale()


def setup_probe_times(workload, seed):
    """Scaled set-up time of fresh processes (imports, config generation, warm-up jobs)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "thread_cap": THREAD_CAP,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def report_failures(attempts):
    failed = [a for a in attempts if not a.ok]
    for a in failed[:5]:
        print(f"FAILED {a.job.command} {a.job.path}: {a.error.strip()[:1500]}")
    if len(failed) > 5:
        print(f"... and {len(failed) - 5} more failed jobs")
    return len(failed)


def run_workload(args):
    run = Run(args.workload, args.seed)
    try:
        run.setup()
        setup_s = scaled_setup(time.perf_counter() - _T0)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(run, args)
        attempts, wall, host = run.timed(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.verify(attempts)
    finally:
        run.cleanup()

    setups = [setup_s] + setup_probe_times(args.workload, args.seed)
    metrics = timing_metrics(attempts, host.scale())
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = statistics.median(setups)
    failed = report_failures(attempts)
    print_header(run, attempts)
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"host speed: timings scaled by {host.scale():.4f} (reference computation: lower quartile "
          f"{REF_SECONDS / host.scale() * 1e3:.4f} ms over {len(host.times)} samples, reference {REF_SECONDS * 1e3} ms)")
    best = best_times(attempts)
    print(f"timed phase: {wall:.3f} s, {len(attempts)} attempts of {len(best)} distinct jobs "
          f"({len(attempts) / len(best):.2f} passes, {len(attempts) / wall:.4g} attempts/s by the wall clock); "
          f"p90 has {sum(t * host.scale() > metrics['job_p90_s'] for t in best.values())} distinct jobs beyond it")
    print(f"metric fail_frac = {failed / len(attempts):.6g} (failed {failed} of {len(attempts)})")
    for name, unit in END_TO_END.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}}))
    return 0


def print_header(run, attempts):
    print(f"workload {run.name} seed {run.seed}{' (hold-out seed)' if run.seed == HOLDOUT_SEED else ''} "
          f"jobs_sha256 {run.digest}")
    print(f"machine {json.dumps(machine_record(), sort_keys=True)}")
    print(f"input sharing: {reuse_share(run.jobs):.4f} of distinct jobs reuse an already-seen "
          f"key: (kind, m, grid) for scan, bench and eig jobs, the rho weight for certify/disks/norms jobs")


def traced_run(run, args):
    """Untraced half, then traced half; per-layer metrics from the traced half."""
    import tracing

    try:
        plain, wall_plain, host_plain = run.timed(args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, wall_traced, host_traced = run.timed(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        run.verify(plain + traced)
    finally:
        run.cleanup()
    attempts = plain + traced
    failed = report_failures(attempts)
    print_header(run, attempts)

    values, rows = tracing.layer_metrics(tracer, len(traced))
    jps_plain = timing_metrics(plain, host_plain.scale())["jobs_per_s"]
    jps_traced = timing_metrics(traced, host_traced.scale())["jobs_per_s"]
    values["trace.jobs_per_s_untraced"] = jps_plain
    values["trace.jobs_per_s_traced"] = jps_traced
    values["trace.overhead_frac"] = 1.0 - jps_traced / jps_plain if jps_plain else 0.0
    values["trace.jobs"] = len(traced)
    values["input.reuse_frac"] = reuse_share(run.jobs)
    units = dict(tracing.PER_LAYER, **TRACE_RUN_UNITS)

    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"trace-{run.name}-{run.seed}.json"
    tracer.write(span_file)
    print(f"traced {len(traced)} jobs in {wall_traced:.3f} s, untraced {len(plain)} jobs in "
          f"{wall_plain:.3f} s; tracing overhead {values['trace.overhead_frac']:.4f} of jobs_per_s; "
          f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    print(f"{'layer span':28s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["busy_s"]):
        print(f"{name:28s} {row['calls']:10d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    for name in units:
        print(f"metric {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            ok = False
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
