"""E10 -- monitoring an Edos-like distribution network (Section 1).

The motivating Edos deployment gathers "statistics about the peers (e.g.,
number, efficiency, reliability) and the usage of the system (e.g., query
rate)".  Two P2PML subscriptions monitor the synthetic Edos network: one
counting failed downloads per mirror, one watching the query traffic; the
monitored numbers are checked against the workload's ground truth
(``EdosNetwork.reference_statistics``); nothing is timed.
"""

import pytest

from repro.monitor import P2PMSystem
from repro.workloads import EdosNetwork

N_EVENTS = 600


def build_monitored_edos(n_mirrors=3, n_clients=25, seed=61):
    system = P2PMSystem(seed=seed)
    edos = EdosNetwork(n_mirrors=n_mirrors, n_clients=n_clients, failure_rate=0.15, seed=seed)
    for mirror in edos.mirrors:
        peer = system.add_peer(mirror)
        peer.add_alerter_hook(
            lambda alerter: edos.attach_alerter(alerter)
            if hasattr(alerter, "observe_call")
            else None
        )
    monitor = system.add_peer("monitor.edos.org")
    mirror_args = " ".join(f"<p>{mirror}</p>" for mirror in edos.mirrors)
    failures = monitor.subscribe(
        f"""
        for $c in inCOM({mirror_args})
        where $c.callMethod = "DownloadPackage" and $c.status = "fault"
        return <failure><mirror>{{$c.callee}}</mirror></failure>
        by publish as channel "edosFailures";
        """,
        sub_id="edos-failures",
        max_results=100_000,
    )
    queries = monitor.subscribe(
        f"""
        for $c in inCOM({mirror_args})
        where $c.callMethod = "QueryPackage"
        return <query><client>{{$c.caller}}</client></query>
        by publish as channel "edosQueries";
        """,
        sub_id="edos-queries",
        max_results=100_000,
    )
    system.run()
    return system, edos, failures, queries


def test_edos_statistics_match_ground_truth():
    system, edos, failures, queries = build_monitored_edos()
    edos.run(N_EVENTS)
    system.run()
    reference = edos.reference_statistics()
    assert len(failures.results()) == reference["failed_downloads"] > 0
    assert len(queries.results()) == reference["queries"] > 0
    # the second subscription reads the first one's alerter streams
    assert queries.reuse_report.nodes_reused > 0


@pytest.mark.parametrize("n_clients", [10, 50, 100])
def test_edos_statistics_hold_at_every_client_count(n_clients):
    system, edos, failures, queries = build_monitored_edos(n_clients=n_clients, seed=62)
    edos.run(300)
    system.run()
    reference = edos.reference_statistics()
    assert len(failures.results()) == reference["failed_downloads"]
    assert len(queries.results()) == reference["queries"]
