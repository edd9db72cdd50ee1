"""A finger-table rebuild costs one ``bisect_left`` per distinct finger.

After a membership change every node rebuilds its table lazily
(``ChordRing._fingers_of``).  Consecutive fingers are each farther from the
node than the last, so the rebuild indexes the sorted positions once per
distinct finger (none when the start point lies past the last position: the
first node is the finger) and enters no Python frame of its own.  The table
it builds is held to the m-entry definition elsewhere
(``tests/test_chord_routing.py``); here its cost is counted, with
``sys.setprofile`` and the collector off.
"""

from __future__ import annotations

import gc
import sys

from repro.dht import ChordRing


def _events(call, *arguments) -> tuple[list[str], list[str]]:
    """Names of the Python frames entered and of the C functions called
    while ``call(*arguments)`` runs."""
    python: list[str] = []
    builtin: list[str] = []
    here = sys._getframe()

    def count(frame, event, argument) -> None:
        if frame is here:  # `sys.setprofile(None)`
            return
        if event == "call":
            python.append(frame.f_code.co_name)
        elif event == "c_call":
            builtin.append(argument.__name__)

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        call(*arguments)
    finally:
        sys.setprofile(None)
        gc.enable()
    return python, builtin


def _rebuild_all(ring: ChordRing) -> None:
    for node in ring._sorted:
        ring._fingers_of(node)


def test_rebuilding_every_table_of_1024_nodes_costs_one_bisect_per_distinct_finger():
    ring = ChordRing()
    for i in range(1024):
        ring.join(f"peer{i}")
    python, builtin = _events(_rebuild_all, ring)
    distinct = sum(len({id(finger) for finger in node.fingers}) for node in ring._sorted)
    assert python == ["_rebuild_all"] + ["_fingers_of"] * 1024
    assert set(builtin) == {"bisect_left"}
    assert distinct - 1024 <= len(builtin) <= distinct  # at most one start point per table wraps
    # a rebuilt table is served until the next membership change
    assert _events(_rebuild_all, ring) == (["_rebuild_all"] + ["_fingers_of"] * 1024, [])


def test_routes_are_the_distinct_other_fingers_farthest_first():
    ring = ChordRing()
    for i in range(64):
        ring.join(f"peer{i}")
    ring.fail("peer7")
    for node in ring.nodes():
        fingers = ring._fingers_of(node)
        assert len(fingers) == ring.bits
        expected = [finger for finger in dict.fromkeys(reversed(fingers)) if finger is not node]
        assert node.routes == expected
    alone = ChordRing()
    node = alone.join("solo")
    assert alone._fingers_of(node) == [node] * alone.bits and node.routes == []
