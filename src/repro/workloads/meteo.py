"""The meteo QoS scenario of Figure 1 / Figure 4, end to end.

Three monitored peers (a.com and b.com call the GetTemperature service of
meteo.com) plus one monitor peer.  The monitor office subscribes to detect
calls slower than a threshold; the subscription manager compiles, optimises,
places and deploys the distributed plan; the SOAP traffic generator then
drives the WS alerters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.handle import SubscriptionHandle
from repro.monitor.p2pm_peer import P2PMPeer, P2PMSystem
from repro.workloads.soap_traffic import SoapCall, SoapTrafficGenerator
from repro.xmlmodel.tree import Element

#: The subscription of Figure 1 (threshold parameterised).
METEO_SUBSCRIPTION_TEMPLATE = """
for $c1 in outCOM(<p>a.com</p> <p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where
    $duration > {threshold} and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type="slowAnswer">
        <client>{{$c1.caller}}</client>
        <tstamp>{{$c2.callTimestamp}}</tstamp>
    </incident>
by publish as channel "alertQoS";
"""


@dataclass
class MeteoScenario:
    """A ready-to-run deployment of the meteo monitoring example."""

    threshold: float = 10.0
    slow_fraction: float = 0.15
    seed: int = 7
    system: P2PMSystem = field(init=False)
    monitor: P2PMPeer = field(init=False)
    clients: list[str] = field(default_factory=lambda: ["a.com", "b.com"])
    server: str = "meteo.com"
    traffic: SoapTrafficGenerator = field(init=False)
    task: SubscriptionHandle | None = field(init=False, default=None)
    calls: list[SoapCall] = field(init=False, default_factory=list)
    #: result-buffer bound passed to subscribe() (results are opt-in + bounded)
    max_results: int = 10_000

    def __post_init__(self) -> None:
        self.system = P2PMSystem(seed=self.seed)
        for peer_id in self.clients + [self.server]:
            self.system.add_peer(peer_id)
        self.monitor = self.system.add_peer("monitor.meteo.com")
        self.traffic = SoapTrafficGenerator(
            clients=self.clients,
            servers=[self.server],
            methods=["GetTemperature", "GetHumidity"],
            mean_response_time=2.0,
            slow_fraction=self.slow_fraction,
            seed=self.seed,
        )
        # whenever deployment creates a WS alerter on a monitored peer,
        # attach it to the traffic generator so it observes the calls
        for peer_id in self.clients + [self.server]:
            peer = self.system.peer(peer_id)
            peer.add_alerter_hook(self._attach_ws_alerter)

    def _attach_ws_alerter(self, alerter) -> None:
        if hasattr(alerter, "observe_call"):
            self.traffic.attach_alerter(alerter)

    # -- driving the scenario ---------------------------------------------------------

    def subscription_text(self) -> str:
        return METEO_SUBSCRIPTION_TEMPLATE.format(threshold=self.threshold)

    def deploy(self, **options) -> SubscriptionHandle:
        """Submit the Figure 1 subscription at the monitor peer."""
        options.setdefault("max_results", self.max_results)
        self.task = self.monitor.subscribe(self.subscription_text(), sub_id="meteo-qos", **options)
        self.system.run()
        return self.task

    def run_traffic(self, n_calls: int) -> list[SoapCall]:
        """Generate SOAP calls and deliver all resulting monitoring messages."""
        calls = self.traffic.run(n_calls)
        self.calls.extend(calls)
        self.system.run()
        return calls

    # -- ground truth -------------------------------------------------------------------

    def expected_incidents(self, calls: list[SoapCall]) -> list[SoapCall]:
        """The calls that the subscription should report (reference semantics)."""
        return [
            call
            for call in calls
            if call.method == "GetTemperature"
            and call.callee == self.server
            and call.duration > self.threshold
        ]

    def incidents(self) -> list[Element]:
        """The incident items actually produced by the deployed task."""
        return self.task.results() if self.task is not None else []
