"""An engine's burst skips the item check: the contract that replaces it.

``Stream.emit_many`` checks that every item is an ``Element``; the bursts the
engine makes itself -- a compiled pipeline's boundary write
(``CompiledPipeline._run_batch_from``), an operator's ``emit_batch`` and the
``Stream.push.batch`` relay -- enter through ``Stream.emit_trusted``, which
keeps both ``StreamClosedError`` raises and drops the per-item loop.  Their
items are ones a stream already validated or trusted constructors built, so
this module checks the contract instead of paying for it: every burst that
takes the trusted path holds only ``Element``s, over the three benchmark
decks' subscriptions and every catalog scenario in both failure modes.  The
public entry points still refuse a non-``Element``.
"""

from __future__ import annotations

import random
import sys

import pytest

from perf.harness import PhaseClock, Tally, run_cycle
from perf.workloads import WORKLOADS
from repro.scenarios.catalog import make_scenario, scenario_names
from repro.streams import Stream, StreamClosedError
from repro.xmlmodel.tree import Element


#: the engine's producers of trusted bursts, by the caller of ``emit_trusted``
#: (``Stream.deliver_many`` calls the relay ``Stream.push.batch``)
PRODUCERS = {"CompiledPipeline._run_batch_from", "Operator.emit_batch", "Stream.deliver_many"}


class Bursts(list):
    def __init__(self) -> None:
        super().__init__()
        self.callers: set[str] = set()


@pytest.fixture
def trusted(monkeypatch):
    """Every burst that enters a stream through the trusted path, as it came;
    ``trusted.callers`` names who sent each."""
    bursts = Bursts()
    emit_trusted = Stream.emit_trusted

    def recording(self, batch):
        bursts.append(batch)
        bursts.callers.add(sys._getframe(1).f_code.co_qualname)
        return emit_trusted(self, batch)

    monkeypatch.setattr(Stream, "emit_trusted", recording)
    monkeypatch.setattr(Stream.push, "batch", recording)
    return bursts


def assert_only_elements(bursts: list[list]) -> None:
    assert bursts, "no burst took the trusted path: the check would be vacuous"
    for batch in bursts:
        assert type(batch) is list and all(type(item) is Element for item in batch), batch


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_deck(trusted, name: str):
    workload = WORKLOADS[name]
    plan = workload.deal(random.Random(f"{name}/1/0"), workload.sizes(0.1))
    tally = Tally()
    cycle = run_cycle(workload, plan, PhaseClock(), tally, check_payloads=True)
    cycle.close()
    assert tally.failed == 0, tally.first_error
    assert_only_elements(trusted)


@pytest.mark.parametrize("failure_mode", ["oracle", "detector"])
@pytest.mark.parametrize("name", scenario_names())
def test_catalog_scenario(trusted, name: str, failure_mode: str):
    result = make_scenario(name, seed=0, failure_mode=failure_mode).run()
    assert result.ok, [inv for inv in result.invariants if not inv.ok]
    for batch in trusted:
        assert type(batch) is list and all(type(item) is Element for item in batch), batch


def test_the_scenarios_send_bursts_down_the_trusted_path(trusted):
    for name in scenario_names():
        make_scenario(name, seed=0).run()
    assert_only_elements(trusted)
    assert PRODUCERS <= trusted.callers


def test_the_ingest_deck_reaches_every_producer(trusted):
    workload = WORKLOADS["ingest"]
    plan = workload.deal(random.Random("ingest/1/0"), workload.sizes(0.1))
    run_cycle(workload, plan, PhaseClock(), Tally(), check_payloads=False).close()
    assert PRODUCERS <= trusted.callers


class TestPublicEntryPoints:
    @pytest.mark.parametrize("bad", ["text", None, 3, {"n": "1"}])
    def test_emit_refuses_a_non_element(self, bad):
        stream = Stream("s")
        with pytest.raises(TypeError, match="must be Elements"):
            stream.emit(bad)  # type: ignore[arg-type]
        assert stream.stats.items == 0

    @pytest.mark.parametrize("bad", ["text", None, 3, {"n": "1"}])
    def test_emit_many_refuses_a_non_element_anywhere_in_the_burst(self, bad):
        stream = Stream("s")
        seen: list = []
        stream.subscribe(seen.append)
        with pytest.raises(TypeError, match="must be Elements"):
            stream.emit_many([Element("a"), bad, Element("b")])  # type: ignore[list-item]
        with pytest.raises(TypeError, match="must be Elements"):
            stream.emit_many(iter([bad]))  # type: ignore[list-item]
        assert seen == [] and stream.stats.items == 0

    @pytest.mark.parametrize("emit", ["emit", "emit_many", "emit_trusted", "push"])
    def test_every_path_refuses_a_closed_stream(self, emit):
        stream = Stream("s")
        stream.close()
        item = Element("a")
        with pytest.raises(StreamClosedError, match="is closed"):
            if emit == "emit":
                stream.emit(item)
            elif emit == "push":
                stream.push.batch(stream, [item])  # the relay's batch entry is emit_trusted
            else:
                getattr(stream, emit)([item])

    def test_a_closed_stream_raises_before_the_item_check(self):
        stream = Stream("s")
        stream.close()
        with pytest.raises(StreamClosedError):
            stream.emit_many(["not an element"])  # type: ignore[list-item]

    @pytest.mark.parametrize("emit", ["emit_many", "emit_trusted"])
    def test_a_close_mid_burst_raises_to_the_producer(self, emit):
        stream = Stream("s")
        seen: list = []

        def closing(item) -> None:
            seen.append(item)
            stream.close()

        stream.subscribe(closing)
        with pytest.raises(StreamClosedError, match="closed during batch delivery"):
            getattr(stream, emit)([Element("a"), Element("b")])
        assert [item.tag for item in seen if isinstance(item, Element)] == ["a"]

    @pytest.mark.parametrize("emit", ["emit_many", "emit_trusted"])
    def test_an_empty_burst_is_nothing(self, emit):
        stream = Stream("s")
        getattr(stream, emit)([])
        assert stream.stats.items == 0
