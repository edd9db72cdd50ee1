"""An Edos-like content-sharing network.

"Edos is a P2P distribution system ... the data consists of the Mandriva
Linux distribution, i.e., about 10 000 software packages and the associated
metadata.  The monitoring is primarily used to gather statistics about the
peers (e.g., number, efficiency, reliability) and the usage of the system
(e.g., query rate)." (Section 1)

The simulator models mirror peers serving packages to client peers: queries
(metadata lookups), downloads (with success/failure) and peer churn.  Every
event is reported as a SOAP call to the WS alerters of the involved peers,
so the monitoring stack sees the same streams it would see on the real
system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.alerters.ws import WSAlerter
from repro.workloads.soap_traffic import SoapCall


@dataclass
class EdosEvent:
    """One event of the distribution network (query, download, join, leave)."""

    kind: str
    client: str | None
    mirror: str | None
    package: str | None
    call: SoapCall | None = None


class EdosNetwork:
    """The simulated distribution network."""

    def __init__(
        self,
        n_mirrors: int = 3,
        n_clients: int = 20,
        n_packages: int = 200,
        failure_rate: float = 0.05,
        churn_rate: float = 0.02,
        mean_download_time: float = 4.0,
        seed: int = 0,
    ) -> None:
        self.random = random.Random(seed)
        self.mirrors = [f"mirror{i}.edos.org" for i in range(n_mirrors)]
        self.clients = [f"client{i}.edos.org" for i in range(n_clients)]
        self.packages = [f"pkg-{i:05d}" for i in range(n_packages)]
        self.failure_rate = failure_rate
        self.churn_rate = churn_rate
        self.mean_download_time = mean_download_time
        self.clock = 0.0
        self.call_sequence = 0
        self.online_clients = set(self.clients)
        self.events: list[EdosEvent] = []
        self._alerters: list[WSAlerter] = []

    # -- wiring ---------------------------------------------------------------------

    def attach_alerter(self, alerter: WSAlerter) -> None:
        self._alerters.append(alerter)

    # -- event generation --------------------------------------------------------------

    def _soap_call(self, caller: str, callee: str, method: str, duration: float, status: str, **params) -> SoapCall:
        self.call_sequence += 1
        self.clock += self.random.expovariate(2.0)
        call = SoapCall(
            call_id=f"edos-{self.call_sequence}",
            caller=caller,
            callee=callee,
            method=method,
            call_timestamp=self.clock,
            response_timestamp=self.clock + duration,
            status=status,
            parameters={key: str(value) for key, value in params.items()},
        )
        for alerter in self._alerters:
            alerter.observe_call(call)
        return call

    def step(self) -> EdosEvent:
        """Generate one event and return it."""
        roll = self.random.random()
        if roll < self.churn_rate and self.online_clients:
            client = self.random.choice(sorted(self.online_clients))
            self.online_clients.discard(client)
            event = EdosEvent("leave", client, None, None)
        elif roll < 2 * self.churn_rate and len(self.online_clients) < len(self.clients):
            offline = sorted(set(self.clients) - self.online_clients)
            client = self.random.choice(offline)
            self.online_clients.add(client)
            event = EdosEvent("join", client, None, None)
        elif roll < 0.6 or not self.online_clients:
            client = self.random.choice(sorted(self.online_clients) or self.mirrors)
            mirror = self.random.choice(self.mirrors)
            package = self.random.choice(self.packages)
            call = self._soap_call(
                client, mirror, "QueryPackage", self.random.uniform(0.05, 0.4), "ok",
                package=package,
            )
            event = EdosEvent("query", client, mirror, package, call)
        else:
            client = self.random.choice(sorted(self.online_clients))
            mirror = self.random.choice(self.mirrors)
            package = self.random.choice(self.packages)
            failed = self.random.random() < self.failure_rate
            duration = self.random.expovariate(1.0 / self.mean_download_time)
            call = self._soap_call(
                client, mirror, "DownloadPackage", duration,
                "fault" if failed else "ok", package=package,
            )
            event = EdosEvent("download", client, mirror, package, call)
        self.events.append(event)
        return event

    def run(self, n_events: int) -> list[EdosEvent]:
        return [self.step() for _ in range(n_events)]

    # -- reference statistics (used to validate monitored results) -----------------------

    def reference_statistics(self) -> dict[str, object]:
        """Ground-truth statistics computed directly from the event log."""
        downloads = [event for event in self.events if event.kind == "download"]
        queries = [event for event in self.events if event.kind == "query"]
        failures = [event for event in downloads if event.call and event.call.status != "ok"]
        per_mirror: dict[str, int] = {}
        for event in downloads:
            if event.mirror:
                per_mirror[event.mirror] = per_mirror.get(event.mirror, 0) + 1
        return {
            "downloads": len(downloads),
            "queries": len(queries),
            "failed_downloads": len(failures),
            "downloads_per_mirror": per_mirror,
            "online_clients": len(self.online_clients),
        }
