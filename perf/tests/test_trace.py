"""Span self-time arithmetic, and wrapping that nests and unwinds."""

import pytest

from perf import trace
from perf.layers import CALL, DELIVER, FACTORY, SPANS


def test_self_time_is_duration_minus_children():
    #  a: 0..10   b: 1..4 (child of a)   c: 2..3 (child of b)   b: 5..9 (child of a)   d: 20..21
    records = [
        ["a", 0.0, 10.0, trace.NO_PARENT],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 20.0, 21.0, trace.NO_PARENT],
    ]
    assert trace.self_times(records) == {"a": [3.0, 1], "b": [6.0, 2], "c": [1.0, 1], "d": [1.0, 1]}
    assert trace.covered_time(records) == 11.0
    assert sum(seconds for seconds, _ in trace.self_times(records).values()) == trace.covered_time(records)


class Target:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        if n < 0:
            raise ValueError(n)
        return n

    def make(self):
        def deliver(item):
            return self.inner(item)

        deliver.batch = lambda items: [self.inner(item) for item in items]
        return deliver


def test_install_nests_unwinds_and_uninstalls():
    ticks = iter(range(1000))
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))
    table = (
        (f"{__name__}.Target.outer", "outer", DELIVER, CALL),
        (f"{__name__}.Target.inner", "inner", DELIVER, CALL),
        (f"{__name__}.Target.make", "made", DELIVER, FACTORY),
    )
    original = Target.outer
    tracer.install(table)
    try:
        target = Target()
        tracer.begin()
        assert target.outer(2) == 4
        with pytest.raises(ValueError):
            target.outer(-1)
        deliver = target.make()
        assert deliver(3) == 3 and deliver.batch([1, 2]) == [1, 2]
        names = [(r[trace.NAME], r[trace.PARENT]) for r in tracer.records]
        assert names == [
            ("outer", -1), ("inner", 0), ("inner", 0),
            ("outer", -1), ("inner", 3),
            ("made", -1), ("inner", 5), ("made", -1), ("inner", 7), ("inner", 7),
        ]
        assert all(r[trace.END] > r[trace.START] for r in tracer.records)
        tracer.end("p", wall=100.0, ops=4)
    finally:
        tracer.uninstall()
    assert Target.outer is original
    total = tracer.phases["p"]
    assert total["ops"] == 4 and total["spans"]["inner"][1] == 6
    assert total["covered"] == sum(seconds for seconds, _ in total["spans"].values())


def test_every_entry_point_of_the_table_resolves():
    tracer = trace.Tracer()
    tracer.install(SPANS)
    tracer.uninstall()
