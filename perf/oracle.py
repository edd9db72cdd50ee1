"""What must be delivered, computed in plain Python from the generated specs.

Nothing here goes through ``repro``: the expected result of a subscription on
an alert is worked out from the fields of the two specs, and rendered as the
XML text the RETURN template of ``decks.*Sub.text()`` produces.  The harness
compares delivered counts with :class:`Expectation` after every round and
delivered payloads on the first cycle's warm-up burst.
"""

from __future__ import annotations

from collections import Counter

from perf.decks import Call, EdosSub, FanoutSub, FilterSub, MeteoSub, Numbered, METEO_SERVER, SOURCE


def _filter_result(sub: FilterSub, call: Call) -> str | None:
    if call.method != sub.method:
        return None
    if sub.callee is not None and call.callee != sub.callee:
        return None
    if sub.min_duration is not None and not call.duration > sub.min_duration:
        return None
    if sub.path == "param" and call.city is None:
        return None
    if sub.path == "error" and not call.fault:
        return None
    return f"<hit><id>{call.call_id}</id></hit>"


def _fanout_result(sub: FanoutSub, alert: Numbered) -> str | None:
    if alert.n < sub.threshold:
        return None
    return f"<seen><src>{SOURCE}</src><n>{alert.n}</n></seen>"


def _meteo_result(sub: MeteoSub, call: Call) -> str | None:
    # the join pairs the caller's outCOM alert with the server's inCOM alert
    # of the same call: one result per matching call
    if call.callee != METEO_SERVER or call.method != "GetTemperature":
        return None
    if not call.duration > sub.threshold:
        return None
    return (
        f'<incident type="slowAnswer"><client>{call.caller}</client>'
        f"<tstamp>{call.start:.3f}</tstamp></incident>"
    )


def _edos_result(sub: EdosSub, call: Call) -> str | None:
    if call.caller != sub.mirror or call.method != sub.method or call.fault:
        return None
    return f'<hit method="{sub.method}"><peer>{call.callee}</peer></hit>'


_RESULT = {
    (FilterSub, Call): _filter_result,
    (FanoutSub, Numbered): _fanout_result,
    (MeteoSub, Call): _meteo_result,
    (EdosSub, Call): _edos_result,
}


def result(sub, alert) -> str | None:
    """The payload ``sub`` must receive for ``alert``, or None when it must not."""
    return _RESULT[type(sub), type(alert)](sub, alert)


class Expectation:
    """Running expected delivery count of every live subscription of a cycle.

    Subscriptions repeat a few dozen specs and alerts a few dozen kinds, so
    matches are computed once per (spec, kind) pair and the check costs
    little next to the cycle it guards.
    """

    def __init__(self, subs: list, live: list[int]) -> None:
        self.subs = subs
        self.live = live
        self._live = frozenset(live)
        self.specs = sorted(set(subs[i] for i in live), key=repr)
        self.per_spec: Counter = Counter()
        self._matching: dict = {}

    def _matching_specs(self, alert) -> list:
        kind = alert.kind
        specs = self._matching.get(kind)
        if specs is None:
            specs = self._matching[kind] = [
                spec for spec in self.specs if result(spec, alert) is not None
            ]
        return specs

    def publish(self, alerts) -> None:
        """Account for ``alerts`` having been published."""
        for alert in alerts:
            for spec in self._matching_specs(alert):
                self.per_spec[spec] += 1

    def total(self) -> int:
        copies = Counter(self.subs[i] for i in self.live)
        return sum(self.per_spec[spec] * n for spec, n in copies.items())

    def mismatches(self, counts: list[int], skip: frozenset = frozenset()) -> list[str]:
        """Subscriptions whose delivered count differs (cancelled ones must
        have received nothing since)."""
        problems = []
        for index, got in enumerate(counts):
            if index in skip:
                continue
            want = self.per_spec[self.subs[index]] if index in self._live else 0
            if got != want:
                problems.append(f"subscription {index} ({self.subs[index]}): {got} delivered, {want} expected")
        return problems

    def payload_mismatches(self, alerts, captured: dict[int, list[str]]) -> list[str]:
        """Compare the multiset of payloads each live subscription received
        for ``alerts`` (the only ones published so far) with the expected one."""
        by_spec: dict = {}
        problems = []
        for index in self.live:
            spec = self.subs[index]
            want = by_spec.get(spec)
            if want is None:
                want = by_spec[spec] = Counter(
                    text for text in (result(spec, alert) for alert in alerts) if text is not None
                )
            got = Counter(captured.get(index, ()))
            if got != want:
                extra = list((got - want).elements())[:2]
                missing = list((want - got).elements())[:2]
                problems.append(f"subscription {index} ({spec}): unexpected {extra}, missing {missing}")
        return problems
