"""scripts/check_docs.py: the span table resolves under src/, the option matrix is the constructor."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_of_the_repository_benchmark_resolves():
    assert _check_docs().check_span_table() == []


def test_a_renamed_entry_point_is_reported(monkeypatch):
    check_docs = _check_docs()
    check_docs.check_span_table()  # puts the repository root on sys.path
    import perf.layers

    renamed = ("repro.compile.pipeline.CompiledPipeline.make_entries", "compile.pipeline", "deliver", "factory")
    foreign = ("json.loads", "not.ours", "deliver", "call")
    monkeypatch.setattr(perf.layers, "SPANS", (*perf.layers.SPANS, renamed, foreign))
    problems = check_docs.check_span_table()
    assert len(problems) == 2
    assert "make_entries" in problems[0] and "json.loads" in problems[1]


def test_the_option_matrix_is_checked_in_both_directions():
    import inspect

    from repro.monitor import P2PMSystem

    check_docs = _check_docs()

    def problems_of(rows):
        table = ["| Option | Values | Default | Meaning |", "| --- | --- | --- | --- |", *rows]
        return check_docs.check_option_matrix("\n".join([check_docs.OPTION_MATRIX_HEADING, "", *table]), "doc.md")

    parameters = list(inspect.signature(P2PMSystem.__init__).parameters.values())[1:]
    rows = [f"| `{p.name}` | any | `{p.default!r}` | text |" for p in parameters]
    assert problems_of(rows) == []
    # a documented option the constructor does not take, or with another default
    problems = problems_of([*rows[1:], "| `supervise` | any | `True` | text |", "| `seed` | int | `1` | text |"])
    assert len(problems) == 2 and "`supervise`" in problems[0] and "`seed`" in problems[1]
    # a constructor parameter the matrix does not document
    problems = problems_of(rows[:-1])
    assert len(problems) == 1 and f"`{parameters[-1].name}` has no row" in problems[0]
