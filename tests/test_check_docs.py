"""scripts/check_docs.py: the span table of perf/layers.py must resolve under src/."""

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
