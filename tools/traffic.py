"""Which statements of the program a benchmark job list never runs.

    python3 tools/traffic.py --tree T --workload scan_bench --seed 1

Loads ``T/perfbench/run.py`` (``tools/dump_reports.py``'s ``load_run_module``), then, under
``sys.settrace``, runs ``Run.setup()`` (the seeded job list and its warm-up jobs, which fill the
caches the jobs then hit) and each distinct job of the list once through ``run_job``, recording
the lines run in the files under ``T/src/spectralcert``; ``--workload all`` does this for both
workloads.  For each module it prints how many of its statements inside functions ran, then the
outermost statements that never ran, each with its line range and first source line.

Module and class bodies run at import, before the trace starts, so only statements inside
function bodies are counted.  A statement ran when any line it spans ran; a compound statement
spans its body, so it ran when its header or anything in its body did.  Statements that compile
to no line of their own (``pass``, ``global``, ``nonlocal``, docstrings and other constant
expressions) are not counted.  As with ``tools/dump_reports.py``, the run works in
``T/.perfbench_work`` and removes its directory there afterwards; nothing under ``T/perfbench``
is written.

Exits 1 if a job fails.
"""

import argparse
import ast
import bisect
import os
import sys
from collections import defaultdict
from pathlib import Path

from dump_reports import WORKLOADS, load_run_module


class LineHits:
    """A ``sys.settrace`` hook, used as a context manager, that records the lines run in the
    files under ``root``: ``lines[path]`` is a set of line numbers, ``path`` a real path."""

    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.lines = defaultdict(set)
        self._paths = {}  # co_filename -> its real path if under root, else None

    def _path(self, filename):
        if filename not in self._paths:
            path = os.path.realpath(filename)
            self._paths[filename] = path if path.startswith(self.root) else None
        return self._paths[filename]

    def __call__(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        lines = self.lines[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _silent(stmt):
    """True for a statement that compiles to no line event of its own."""
    return (isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal))
            or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def statements(source):
    """The (first, last) line of every counted statement inside a function body of
    ``source``, sorted; a decorated definition starts at its first decorator."""
    spans = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and not _silent(child):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                spans.append((first, child.end_lineno))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return sorted(spans)


def never_ran(spans, lines):
    """The spans of ``spans`` that contain no line of ``lines``."""
    hit = sorted(lines)
    return [(first, last) for first, last in spans
            if bisect.bisect_left(hit, first) == bisect.bisect_right(hit, last)]


def outermost(spans):
    """The spans of sorted ``spans`` that lie inside no other span of the list."""
    kept = []
    for first, last in sorted(spans, key=lambda s: (s[0], -s[1])):
        if not kept or last > kept[-1][1]:
            kept.append((first, last))
    return kept


def module_report(path, lines):
    """The statement count of one module and its outermost statements that never ran."""
    source = Path(path).read_text()
    spans = statements(source)
    missed = never_ran(spans, lines)
    text = source.splitlines()
    out = [f"{Path(path).name}: {len(spans) - len(missed)} of {len(spans)} statements "
           f"in functions ran"]
    for first, last in outermost(missed):
        where = f"{first}" if first == last else f"{first}-{last}"
        out.append(f"  {where:>9}  {text[first - 1].strip()}")
    return "\n".join(out)


def run_traced(run_mod, workload, seed, hits):
    """Set the workload up and run each of its distinct jobs once, all under ``hits``; the job
    and failure counts."""
    run = run_mod.Run(workload, seed)
    failed = 0
    try:
        with hits:
            run.setup()
            for job in run.jobs:
                attempt = run_mod.run_job(run.cli, job, "out/job.json", run.sink)
                if not attempt.ok:
                    failed += 1
                    print(f"FAILED {job.command} {job.path}: {attempt.error.strip()[:500]}")
    finally:
        run.cleanup()
    return len(run.jobs), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", required=True, help="repository root whose program and benchmark to run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="job-list seed")
    args = parser.parse_args(argv)
    package = Path(args.tree).resolve() / "src" / "spectralcert"
    run_mod = load_run_module(args.tree)
    hits = LineHits(package)
    any_failed = False
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        jobs, failed = run_traced(run_mod, workload, args.seed, hits)
        any_failed |= failed > 0
        print(f"{workload} seed {args.seed}: {jobs} jobs, {failed} failed")
    for path in sorted(package.glob("*.py")):
        print(module_report(path, hits.lines.get(os.path.realpath(path), set())))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
