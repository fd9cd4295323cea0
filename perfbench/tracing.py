"""Span tracing of the spectralcert layers, installed from outside the package.

Every traced public function is wrapped once, and the wrapper is placed in
every ``spectralcert`` module namespace that holds the original object, so a
call is seen whichever module makes it (``apply_free_resolvent`` from
``gridops``, ``birman_schwinger`` and ``bench`` alike).  Methods are wrapped
on their class, and ``scipy.linalg.eig`` on the ``scipy.linalg`` module that
``gridops`` calls it through.

Spans are kept in memory as ``[name, start, end, parent, job, nested]`` lists
(``nested``: an enclosing span has the same name) and written out once at the
end.  A span's self time is its duration minus the
durations of its direct children (calls are nested on one thread, so the
children cover disjoint parts of the parent).  Byte counts are computed from
the sizes of the arrays crossing the wrapped boundary, not measured.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg


class Tracer:
    """Collects spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._active = Counter()
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer.counts, args, kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                   tracer._active[name] > 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._active[name] += 1
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._active[name] -= 1
                stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module, attr, name, after=None, before=None):
        """Wrap ``module.attr`` in every spectralcert namespace that imports it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after, before)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "spectralcert" or modname.startswith("spectralcert.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def wrap_attribute(self, owner, attr, name, after=None, before=None):
        """Wrap one attribute in place (a method on its class, or a library function)."""
        self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], after, before))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, busy seconds (outermost spans only) and self seconds."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, _job, _nested in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _parent, _job, nested) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if not nested:
                row["busy_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "nested"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


# -- counters recorded at the wrapped boundaries ---------------------------

def _count_profile_calls(counts, args, kwargs):
    """Wrap the callables handed to dyadic_norm so their evaluations are counted."""

    def counted(fn):
        if fn is None:
            return None

        def profile(x):
            counts["weights.profile_evals"] += 1
            counts["weights.profile_points"] += int(np.size(x))
            return fn(x)

        return profile

    if args and callable(args[0]):
        args = (counted(args[0]),) + tuple(args[1:])
    kwargs = dict(kwargs)
    for key in ("radial_profile", "tail_envelope"):
        if kwargs.get(key) is not None:
            kwargs[key] = counted(kwargs[key])
    return args, kwargs


def _resolvent_bytes(counts, args, kwargs, out):
    f = args[3] if len(args) > 3 else kwargs["f"]
    counts["gridops.resolvent.bytes_computed"] += f.values.nbytes + out.values.nbytes


def _assemble_bytes(counts, args, kwargs, out):
    counts["gridops.assemble.bytes_computed"] += out.nbytes


def _excluded_points(counts, args, kwargs, out):
    counts["bs.excluded_points"] += int(out.excluded.sum())


def _bench_trials(counts, args, kwargs, out):
    counts["bench.trials"] += out.trials
    counts["bench.discarded"] += out.discarded


def _report_bytes(counts, args, kwargs, out):
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    siblings = args[2] if len(args) > 2 else kwargs.get("csv_siblings")
    stem = path[:-5] if path.endswith(".json") else path
    files = [path] + [f"{stem}_{name}.csv" for name in (siblings or {})]
    counts["report.bytes_written"] += sum(os.path.getsize(p) for p in files)


def install(tracer):
    """Wrap the public entry points of every spectralcert layer."""
    from spectralcert import (bench, birman_schwinger, cli, clifford, config, enclosure,
                              gridops, potential, report, weights)

    fn = tracer.wrap_function
    fn(cli, "main", "cli")
    fn(config, "parse_config", "config.parse")
    fn(report, "write_report", "report.write", after=_report_bytes)
    fn(potential, "load_potential_binary", "potential.load")
    fn(potential, "load_potential_text", "potential.load")
    tracer.wrap_attribute(potential.PotentialSpec, "evaluate", "potential.evaluate")
    fn(clifford, "build_clifford", "clifford.build")
    fn(clifford, "dirac_symbol", "clifford.symbol")
    fn(weights, "dyadic_norm", "weights.dyadic_norm", before=_count_profile_calls)
    fn(weights, "grid_dyadic_norm", "weights.grid_norms")
    fn(weights, "morrey_norms", "weights.grid_norms")
    fn(enclosure, "certify", "enclosure.certify")
    fn(enclosure, "enclosure_disks", "enclosure.disks")
    fn(enclosure, "rho_norms", "enclosure.rho_norms")
    fn(gridops, "apply_free_resolvent", "gridops.resolvent", after=_resolvent_bytes)
    fn(gridops, "assemble_perturbed", "gridops.assemble", after=_assemble_bytes)
    fn(gridops, "eigenvalues", "gridops.eigenvalues")
    tracer.wrap_attribute(scipy.linalg, "eig", "lapack.eig")
    fn(birman_schwinger, "factor_on_grid", "bs.factor_on_grid")
    fn(birman_schwinger, "bs_apply", "bs.apply")
    fn(birman_schwinger, "bs_norm", "bs.norm")
    fn(birman_schwinger, "bs_scan", "bs.scan", after=_excluded_points)
    fn(bench, "run_bench", "bench.run", after=_bench_trials)
    tracer.wrap_attribute(bench._Context, "__init__", "bench.context")


# metric name -> unit; "/job" values are totals of the traced phase divided by its job count
PER_LAYER = {
    "bs.norm.calls": "count/job",
    "bs.norm.s": "s/job",
    "bs.apply.calls": "count/job",
    "bs.applies_per_norm": "ratio",
    "bs.excluded_points": "count/job",
    "bs.factor_on_grid.s": "s/job",
    "gridops.resolvent.calls": "count/job",
    "gridops.resolvent.self_s": "s/job",
    "gridops.resolvent.bytes_computed": "B/job",
    "gridops.assemble.s": "s/job",
    "gridops.assemble.bytes_computed": "B/job",
    "gridops.eigenvalues.self_s": "s/job",
    "lapack.eig.s": "s/job",
    "clifford.build.calls": "count/job",
    "clifford.symbol.calls": "count/job",
    "clifford.symbol.s": "s/job",
    "weights.dyadic_norm.calls": "count/job",
    "weights.dyadic_norm.s": "s/job",
    "weights.profile_evals": "count/job",
    "weights.profile_points": "count/job",
    "weights.grid_norms.s": "s/job",
    "enclosure.certify.s": "s/job",
    "enclosure.disks.s": "s/job",
    "enclosure.rho_norms.calls": "count/job",
    "enclosure.rho_norms.s": "s/job",
    "bench.run.s": "s/job",
    "bench.trials": "count/job",
    "bench.discarded_frac": "ratio",
    "bench.context.s": "s/job",
    "potential.evaluate.calls": "count/job",
    "potential.evaluate.s": "s/job",
    "potential.load.s": "s/job",
    "config.parse.s": "s/job",
    "report.write.s": "s/job",
    "report.bytes_written": "B/job",
    "cli.self_s": "s/job",
}


def layer_metrics(tracer, jobs):
    """The PER_LAYER values of one traced phase of ``jobs`` jobs."""
    rows = tracer.summary()
    counts = tracer.counts
    per_job = 1.0 / max(jobs, 1)

    def row(name, key):
        return rows.get(name, {}).get(key, 0)

    values = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = row(span, "calls") * per_job
        elif field == "s":
            values[metric] = row(span, "busy_s") * per_job
        elif field == "self_s":
            values[metric] = row(span, "self_s") * per_job
        else:
            values[metric] = counts.get(metric, 0) * per_job
    norms = row("bs.norm", "calls")
    values["bs.applies_per_norm"] = row("bs.apply", "calls") / norms if norms else 0.0
    trials = counts.get("bench.trials", 0)
    values["bench.discarded_frac"] = counts.get("bench.discarded", 0) / trials if trials else 0.0
    return values, rows
