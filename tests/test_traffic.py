import importlib.util
import sys
import textwrap
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # traffic imports dump_reports beside it
_spec = importlib.util.spec_from_file_location("traffic", _TOOLS / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

SOURCE = textwrap.dedent('''\
    import functools


    def f(x):
        """Docstring: no line event, not counted."""
        if x > 0:
            y = x
        else:
            y = -x
            y += 1
        return (y
                + 0)


    def g():
        pass


    class C:
        limit = 3

        def m(self):
            global SEEN
            for k in range(self.limit):
                @functools.lru_cache
                def inner(v):
                    return v
                inner(k)
            return 1
    ''')


def _load(tmp_path, name="small"):
    path = tmp_path / f"{name}.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_statements_count_function_bodies_only():
    spans = traffic.statements(SOURCE)
    # f: if (whole block), y = x, y = -x, y += 1, the two-line return; g: pass is not
    # counted; C.m: the loop, the decorated def from its decorator, its return, the call,
    # return 1; global is not counted, nor are the module and class bodies
    assert spans == [(6, 10), (7, 7), (9, 9), (10, 10), (11, 12),
                     (24, 28), (25, 27), (27, 27), (28, 28), (29, 29)]


def test_hits_and_misses_on_a_traced_module(tmp_path):
    path, module = _load(tmp_path)
    with traffic.LineHits(tmp_path) as hits:
        assert module.f(2) == 2
    lines = hits.lines[str(path.resolve())]
    spans = traffic.statements(SOURCE)
    missed = traffic.never_ran(spans, lines)
    # the else branch and all of C.m never ran; a multi-line return ran on whichever line fired
    assert missed == [(9, 9), (10, 10), (24, 28), (25, 27), (27, 27), (28, 28), (29, 29)]
    assert traffic.outermost(missed) == [(9, 9), (10, 10), (24, 28), (29, 29)]
    report = traffic.module_report(path, lines).splitlines()
    assert report[0] == "small.py: 3 of 10 statements in functions ran"
    assert [row.split()[0] for row in report[1:]] == ["9", "10", "24-28", "29"]

    with traffic.LineHits(tmp_path) as more:
        module.f(-1)
        module.C().m()
    assert traffic.never_ran(spans, lines | more.lines[str(path.resolve())]) == []


def test_hits_skip_files_outside_the_root(tmp_path):
    inside, outside = tmp_path / "in", tmp_path / "out"
    inside.mkdir()
    outside.mkdir()
    _, module = _load(outside)
    with traffic.LineHits(inside) as hits:
        module.f(1)
    assert dict(hits.lines) == {}
