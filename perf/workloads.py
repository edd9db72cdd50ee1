"""The three workloads: what is built, how alerts are published, what is checked.

A :class:`Workload` names the deck that deals a cycle's inputs and the *rig*
that builds the system for them.  A rig is the load generator of one cycle:
it owns the system, publishes bursts through ``Stream.emit_many`` (the batched
path) and single alerts through the alerter's own entry point (the unbatched
path), and knows any check beyond delivered counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import repro.workloads.chaos_feed  # noqa: F401 - registers the chaosFeed alerter
from repro.alerters import ws
from repro.monitor import P2PMSystem
from repro.workloads.chaos_feed import CHAOS_FUNCTION
from repro.workloads.soap_traffic import SoapCall
from repro.xmlmodel import Element

from perf import decks
from perf.decks import Call, Plan, Sizes


def soap_call(call: Call) -> SoapCall:
    return SoapCall(
        call_id=call.call_id,
        caller=call.caller,
        callee=call.callee,
        method=call.method,
        call_timestamp=call.start,
        response_timestamp=call.start + call.duration,
        status="fault" if call.fault else "ok",
        parameters={"city": call.city} if call.city is not None else {},
    )


class Rig:
    """One cycle's system and the way alerts enter it."""

    def __init__(self, plan: Plan) -> None:
        # the network's own seed places the peers; it is held fixed so that
        # --seed changes the inputs and nothing about the system
        self.system = P2PMSystem(seed=0)

    def attach(self) -> None:
        """Resolve the alerters, once deployment has created them."""

    def prepare(self, alerts: list) -> list:
        """Turn alert specs into what ``burst``/``single`` take (untimed)."""
        return [soap_call(alert) for alert in alerts]

    def burst(self, prepared: list) -> None:
        raise NotImplementedError

    def single(self, prepared) -> None:
        raise NotImplementedError

    def problems(self, handles: list, plan: Plan) -> list[str]:
        """Checks beyond delivered counts, after the cancel phase."""
        return []


class FilterRig(Rig):
    def __init__(self, plan: Plan) -> None:
        super().__init__(plan)
        self.system.add_peer(decks.HUB)

    def attach(self) -> None:
        self.alerter = self.system.peer(decks.HUB).alerter("outCOM")

    def burst(self, prepared: list) -> None:
        self.alerter.output.emit_many([ws.soap_alert(call, ws.OUT) for call in prepared])

    def single(self, prepared) -> None:
        self.alerter.observe_call(prepared)


class FanoutRig(Rig):
    def __init__(self, plan: Plan) -> None:
        super().__init__(plan)
        source = self.system.add_peer(decks.SOURCE)
        self.alerter = source.get_or_create_alerter(CHAOS_FUNCTION)
        for peer_id, _ in plan.batches:
            self.system.add_peer(peer_id)

    def prepare(self, alerts: list) -> list:
        return [alert.n for alert in alerts]

    def burst(self, prepared: list) -> None:
        self.alerter.output.emit_many(
            [Element("alert", {"kind": "chaos", "source": decks.SOURCE, "n": str(n)}) for n in prepared]
        )

    def single(self, prepared) -> None:
        self.alerter.emit_numbered(prepared)


class IngestRig(Rig):
    def __init__(self, plan: Plan) -> None:
        super().__init__(plan)
        for peer_id in (*decks.METEO_CLIENTS, decks.METEO_SERVER, *decks.MIRRORS, *decks.MONITORS):
            self.system.add_peer(peer_id)

    def attach(self) -> None:
        # an alerter exists once a subscription over it was deployed
        callers = (*decks.METEO_CLIENTS, *decks.MIRRORS)
        self.outgoing = {peer: self.system.peer(peer).alerter("outCOM") for peer in callers}
        self.incoming = self.system.peer(decks.METEO_SERVER).alerter("inCOM")

    def burst(self, prepared: list) -> None:
        for peer, alerter in self.outgoing.items():
            if alerter is not None:
                alerter.output.emit_many(
                    [ws.soap_alert(call, ws.OUT) for call in prepared if call.caller == peer]
                )
        if self.incoming is not None:
            self.incoming.output.emit_many(
                [ws.soap_alert(call, ws.IN) for call in prepared if call.callee == decks.METEO_SERVER]
            )

    def single(self, prepared) -> None:
        alerter = self.outgoing.get(prepared.caller)
        if alerter is not None:
            alerter.observe_call(prepared)
        if self.incoming is not None:
            self.incoming.observe_call(prepared)

    def problems(self, handles: list, plan: Plan) -> list[str]:
        found = []
        for index, handle in enumerate(handles):
            want = "cancelled" if index in plan.cancelled else "deployed"
            if handle is not None and handle.status != want:
                found.append(f"subscription {index} is {handle.status}, expected {want}")
        found.extend(self.system.stream_db.verify_index_coherence())
        return found


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Callable[[float], Sizes]
    deal: Callable[[random.Random, Sizes], Plan]
    rig: type[Rig]
    #: stream reuse (Section 5 of the paper) when subscribing
    reuse: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "filter",
            "2 000 selective subscriptions on one peer, no network: alerter, compiled filters, streams, valve",
            decks.filter_sizes,
            decks.deal_filter,
            FilterRig,
            reuse=False,
        ),
        Workload(
            "fanout",
            "750 subscriber peers reuse 10 operators: channel fan-out, simulated network, proxies, valve",
            decks.fanout_sizes,
            decks.deal_fanout,
            FanoutRig,
            reuse=True,
        ),
        Workload(
            "ingest",
            "1 500 Zipf-dealt subscriptions over 150 variants, then cancels: parse, reuse, KadoP, deploy, teardown",
            decks.ingest_sizes,
            decks.deal_ingest,
            IngestRig,
            reuse=True,
        ),
    )
}
