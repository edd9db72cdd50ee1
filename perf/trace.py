"""Spans around the calls into each layer, recorded from outside ``src/``.

``Tracer.install`` replaces the entry points named in ``perf/layers.py`` by
wrappers that record ``[name, start, end, parent]`` in memory; it must run
before the system is built, because peers bind some of them (message
handlers, stream subscribers) when they are constructed.  A span's *self
time* is its duration minus the time its child spans cover; the spans of one
phase are folded into per-name totals when the phase ends, so memory holds
one phase's spans at a time.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable

from perf.layers import FACTORY

#: index of the fields of one span record
NAME, START, END, PARENT = range(4)
NO_PARENT = -1


def self_times(records: list[list]) -> dict[str, list]:
    """``{name: [self seconds, calls]}`` of properly nested span records."""
    child_time = [0.0] * len(records)
    for record in records:
        if record[PARENT] != NO_PARENT:
            child_time[record[PARENT]] += record[END] - record[START]
    totals: dict[str, list] = {}
    for index, record in enumerate(records):
        entry = totals.setdefault(record[NAME], [0.0, 0])
        entry[0] += record[END] - record[START] - child_time[index]
        entry[1] += 1
    return totals


def covered_time(records: list[list]) -> float:
    """Seconds inside any span: the durations of the spans without a parent."""
    return sum(r[END] - r[START] for r in records if r[PARENT] == NO_PARENT)


def _resolve(path: str) -> tuple[object, str]:
    """``(owner, attribute)`` of a dotted path into a module or a class in it."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path!r}")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.records: list[list] = []
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []
        #: phase name -> {"wall", "covered", "ops", "phases", "spans": {name: [self, calls]}}
        self.phases: dict[str, dict] = {}
        #: the spans of the first phase of each name, for perf/out/
        self.samples: dict[str, list[list]] = {}

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, function: Callable) -> Callable:
        records, stack, clock = self.records, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(records))
            records.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _wrap_factory(self, name: str, factory: Callable) -> Callable:
        def traced_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            traced = self.wrap(name, made)
            batch = getattr(made, "batch", None)
            if batch is not None:
                traced.batch = self.wrap(name, batch)  # type: ignore[attr-defined]
            return traced

        return traced_factory

    def install(self, table) -> None:
        for path, name, _plane, how in table:
            owner, attribute = _resolve(path)
            original = getattr(owner, attribute)
            wrap = self._wrap_factory if how == FACTORY else self.wrap
            setattr(owner, attribute, wrap(name, original))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- phases --------------------------------------------------------------

    def begin(self) -> None:
        self.records.clear()

    def end(self, phase: str, wall: float, ops: int) -> None:
        total = self.phases.setdefault(
            phase, {"wall": 0.0, "covered": 0.0, "ops": 0, "phases": 0, "spans": {}}
        )
        total["wall"] += wall
        total["covered"] += covered_time(self.records)
        total["ops"] += ops
        total["phases"] += 1
        for name, (seconds, calls) in self_times(self.records).items():
            entry = total["spans"].setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        if phase not in self.samples:
            start = self.records[0][START] if self.records else 0.0
            self.samples[phase] = [
                [r[NAME], round(r[START] - start, 7), round(r[END] - start, 7), r[PARENT]]
                for r in self.records[:2000]
            ]
        self.records.clear()
