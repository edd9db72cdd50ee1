"""Synthetic SOAP RPC traffic between peers.

Each generated :class:`SoapCall` is a call/response pair annotated with the
caller, callee, method, timestamps and status -- exactly the information the
paper's WS alerter extracts from Axis handlers.  The generator notifies the
registered WS alerters of every completed call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.alerters.ws import WSAlerter


_SOAP_ENV = "http://schemas.xmlsoap.org/soap/envelope/"
#: the own markup of an envelope's nodes, their values left out
_ENVELOPE = len(f'<Envelope></Envelope> xmlns="{_SOAP_ENV}"<Header></Header>')
_HEADER, _BODY, _PARAM = len("<Header></Header>"), len("<Body></Body>"), len('<param></param> name=""')


@dataclass
class SoapCall:
    """One completed SOAP RPC call."""

    call_id: str
    caller: str
    callee: str
    method: str
    call_timestamp: float
    response_timestamp: float
    status: str = "ok"
    parameters: dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.response_timestamp - self.call_timestamp

    def envelope(self) -> Element:
        """The SOAP envelope shipped inside the alert, each node born weighed."""
        params, weight = [], 2 * len(self.method) + 5  # <method></method>
        for name, value in sorted(self.parameters.items()):
            size = _PARAM + len(f"{name}{value}")
            params.append(Element.fast_new("param", {"name": str(name)}, [], value, size))
            weight += size
        method = Element.fast_new(self.method, {}, params, None, weight)
        body = Element.fast_new("Body", {}, [method], None, _BODY + weight)
        header = Element.fast_new("Header", {}, [], None, _HEADER)
        return Element.fast_new("Envelope", {"xmlns": _SOAP_ENV}, [header, body], None, _ENVELOPE + _BODY + weight)


class SoapTrafficGenerator:
    """Generates SOAP traffic from client peers to server peers.

    Parameters
    ----------
    clients / servers:
        Peer identifiers of callers and callees.
    methods:
        Method names, chosen uniformly unless ``method_weights`` is given.
    mean_response_time:
        Mean service time (same unit as the thresholds used in subscriptions,
        i.e. seconds in the meteo example).
    slow_fraction:
        Fraction of calls whose response time is drawn from the slow regime
        (an order of magnitude above the mean), producing QoS incidents.
    error_rate:
        Fraction of calls that fail (status ``"fault"``).
    """

    def __init__(
        self,
        clients: list[str],
        servers: list[str],
        methods: list[str] | None = None,
        mean_response_time: float = 2.0,
        slow_fraction: float = 0.1,
        error_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not clients or not servers:
            raise ValueError("the traffic generator needs at least one client and one server")
        self.clients = list(clients)
        self.servers = list(servers)
        self.methods = list(methods) if methods else ["GetTemperature"]
        self.mean_response_time = mean_response_time
        self.slow_fraction = slow_fraction
        self.error_rate = error_rate
        self.random = random.Random(seed)
        self.clock = 0.0
        self.calls_generated = 0
        self._alerters: list["WSAlerter"] = []

    # -- alerter wiring ---------------------------------------------------------

    def attach_alerter(self, alerter: "WSAlerter") -> None:
        """Every generated call is offered to the attached alerters."""
        self._alerters.append(alerter)

    # -- generation ----------------------------------------------------------------

    def next_call(self) -> SoapCall:
        """Generate (and dispatch) the next call."""
        self.calls_generated += 1
        self.clock += self.random.expovariate(1.0)  # inter-arrival ~ Exp(1)
        caller = self.random.choice(self.clients)
        callee = self.random.choice(self.servers)
        method = self.random.choice(self.methods)
        if self.random.random() < self.slow_fraction:
            duration = self.mean_response_time * (8.0 + 4.0 * self.random.random())
        else:
            duration = self.random.uniform(0.2, 1.0) * self.mean_response_time
        status = "fault" if self.random.random() < self.error_rate else "ok"
        call = SoapCall(
            call_id=f"call-{self.calls_generated}",
            caller=caller,
            callee=callee,
            method=method,
            call_timestamp=self.clock,
            response_timestamp=self.clock + duration,
            status=status,
            parameters={"city": self.random.choice(["Paris", "Lisbon", "Orsay"])},
        )
        for alerter in self._alerters:
            alerter.observe_call(call)
        return call

    def run(self, n_calls: int) -> list[SoapCall]:
        """Generate ``n_calls`` calls and return them."""
        return [self.next_call() for _ in range(n_calls)]
