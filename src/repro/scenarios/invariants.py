"""Invariant checks evaluated over a finished chaos-scenario run.

Each invariant is a named predicate over the :class:`ScenarioResult`; a
scenario declares which invariants apply to it (exactly-once only makes
sense when the fault model loses nothing, for example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.chaos import ScenarioResult


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str


InvariantCheck = Callable[["ScenarioResult"], tuple[bool, str]]


def _no_duplicates(result: "ScenarioResult") -> tuple[bool, str]:
    """No alert identity is ever delivered twice (exactly-once dedup works)."""
    duplicates = len(result.received) - len(set(result.received))
    return duplicates == 0, f"{duplicates} duplicate deliveries"


def _exactly_once(result: "ScenarioResult") -> tuple[bool, str]:
    """Every emitted alert is delivered exactly once (loss-free scenarios).

    Partitions hold messages rather than dropping them, so a scenario whose
    faults are only partitions (plus clean failures between drained ticks)
    must deliver the emitted set exactly.
    """
    emitted = set(result.emitted)
    received = set(result.received)
    missing = emitted - received
    unexpected = received - emitted
    duplicates = len(result.received) - len(received)
    ok = not missing and not unexpected and duplicates == 0
    return ok, (
        f"{len(missing)} missing, {len(unexpected)} unexpected, "
        f"{duplicates} duplicates of {len(emitted)} emitted"
    )


def _recovers(result: "ScenarioResult") -> tuple[bool, str]:
    """The subscription went through RECOVERING and is deployed again at the end."""
    entered = any(event.outcome == "recovering" for event in result.recovery_events)
    redeployed = result.final_status == "deployed"
    return (
        entered and redeployed,
        f"entered-recovering={entered} final-status={result.final_status}",
    )


def _drain_delivered(result: "ScenarioResult") -> tuple[bool, str]:
    """Alerts emitted after every fault healed (the drain phase) all arrive."""
    expected = {pair for pair in result.emitted if pair[1] >= result.drain_start}
    missing = expected - set(result.received)
    return not missing, f"{len(missing)} of {len(expected)} drain-phase alerts missing"


def _fail_windows(
    result: "ScenarioResult",
) -> list[tuple[int, str, int]]:
    """Each ``fail`` disruption as ``(fail_tick, peer, down_until)``.

    ``down_until`` is the tick of the peer's next scheduled revive, or the
    drain start (where every peer is revived) when none is scheduled.
    """
    revives = [
        (tick, peer)
        for tick, action, peer in result.disruptions
        if action == "revive"
    ]
    windows = []
    for tick, action, peer in result.disruptions:
        if action != "fail":
            continue
        down_until = min(
            (t for t, p in revives if p == peer and t > tick),
            default=result.drain_start,
        )
        windows.append((tick, peer, down_until))
    return windows


def _detects_within(result: "ScenarioResult", bound: int) -> tuple[bool, str]:
    """Every silent kill is confirmed by the detector within ``bound`` ticks.

    A fail whose peer revives before the deadline needs no detection (the
    suspicion debounce is *supposed* to absorb it); any detection not
    attributable to a fail is a false positive.  Vacuously true in oracle
    mode, where there is no detector to measure.
    """
    if result.failure_mode != "detector":
        return True, "oracle mode: no detector to measure"
    unmatched = list(result.detections)
    violations: list[str] = []
    latencies: list[int] = []
    fails = _fail_windows(result)
    for fail_tick, peer, down_until in fails:
        match = next(
            (
                entry
                for entry in unmatched
                if entry[1] == peer and fail_tick < entry[0] <= fail_tick + bound
            ),
            None,
        )
        if match is not None:
            unmatched.remove(match)
            latencies.append(match[0] - fail_tick)
            continue
        if down_until <= fail_tick + bound:
            continue  # revived before the deadline: nothing to detect
        violations.append(f"{peer} failed at {fail_tick}, undetected by {fail_tick + bound}")
    for tick, peer in unmatched:
        if not any(p == peer and t < tick for t, p, _ in fails):
            violations.append(f"false-positive detection of {peer} at tick {tick}")
    detail = (
        f"{len(latencies)} detections, max latency "
        f"{max(latencies) if latencies else 0} ticks (bound {bound})"
    )
    if violations:
        detail += "; " + "; ".join(violations)
    return not violations, detail


def _recovers_within(result: "ScenarioResult", bound: int) -> tuple[bool, str]:
    """Every sustained failure triggers recovery within ``bound`` ticks.

    For each fail whose peer stays down past ``fail_tick + bound`` there
    must be a failure-triggered recovery event for that peer no later than
    the deadline (in detector mode this includes the detection latency; in
    oracle mode recovery is synchronous with the fail).
    """
    violations: list[str] = []
    latencies: list[int] = []
    for fail_tick, peer, down_until in _fail_windows(result):
        if down_until <= fail_tick + bound:
            continue  # revived before the deadline: recovery may never trigger
        hit = next(
            (
                tick
                for tick, trigger, p, _outcome in result.recovery_timeline
                if trigger == "failure" and p == peer
                and fail_tick <= tick <= fail_tick + bound
            ),
            None,
        )
        if hit is None:
            violations.append(
                f"{peer} failed at {fail_tick}: no recovery by {fail_tick + bound}"
            )
        else:
            latencies.append(hit - fail_tick)
    detail = (
        f"{len(latencies)} recoveries, max latency "
        f"{max(latencies) if latencies else 0} ticks (bound {bound})"
    )
    if violations:
        detail += "; " + "; ".join(violations)
    return not violations, detail


#: Registry of invariant checks, by the name scenarios refer to them with.
INVARIANTS: dict[str, InvariantCheck] = {
    "no-duplicates": _no_duplicates,
    "exactly-once": _exactly_once,
    "recovers": _recovers,
    "drain-delivered": _drain_delivered,
}

#: Parametric invariants: referred to as ``<name>:<bound>``, e.g.
#: ``detects-within:4``.
PARAMETRIC_INVARIANTS: dict[str, Callable[["ScenarioResult", int], tuple[bool, str]]] = {
    "detects-within": _detects_within,
    "recovers-within": _recovers_within,
}


def check(name: str, result: "ScenarioResult") -> InvariantResult:
    """Evaluate one named invariant against a scenario result."""
    if ":" in name:
        base, _, argument = name.partition(":")
        parametric = PARAMETRIC_INVARIANTS.get(base)
        if parametric is not None:
            ok, detail = parametric(result, int(argument))
            return InvariantResult(name, ok, detail)
    try:
        checker = INVARIANTS[name]
    except KeyError as exc:
        known = sorted(INVARIANTS) + [f"{n}:<D>" for n in sorted(PARAMETRIC_INVARIANTS)]
        raise ValueError(
            f"unknown invariant {name!r} (known: {', '.join(known)})"
        ) from exc
    ok, detail = checker(result)
    return InvariantResult(name, ok, detail)
