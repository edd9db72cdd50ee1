"""Seeded inputs of the three workloads: subscriptions, cancel orders, alerts.

Every input is dealt from a fixed-proportion deck that the seed only
*shuffles* -- never from independent draws -- so deliveries per alert, reuse
hit rate and the cancelled share are the same for every seed.  Ten seeds then
measure one workload ten times, not ten workloads, and a ratio that spreads
between seeds spreads because of noise.

The specs here are plain data.  ``text()`` renders a subscription as P2PML
for the system under test; ``perf/oracle.py`` reads the same specs to compute
what must be delivered, without going through ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# -- peers ---------------------------------------------------------------------

HUB = "hub"  # filter: the one peer
SOURCE = "src"  # fanout: the publishing peer
METEO_CLIENTS = ("a.com", "b.com")
METEO_SERVER = "meteo.com"
MIRRORS = tuple(f"mirror{k}.edos.org" for k in range(3))
MONITORS = tuple(f"monitor{k}.example" for k in range(4))
EDOS_CLIENT = "client.edos.org"  # callee of EDOS calls; not a peer of the system

METHODS = ("GetTemperature", "GetHumidity", "GetPressure", "GetWind")
CALLEES = ("meteo.com", "tele.com")
MIN_DURATIONS = (5, 10, 15)
PATHS = {
    "body": "$c/alert/Envelope/Body",  # every SOAP alert has one
    "param": "$c/alert/Envelope//param",  # only calls that carry a parameter
    "error": "$c/alert/error",  # only faults
}
CITIES = ("Paris", "Lisbon")

#: Ingest batches: twelve equal ``subscribe_many`` calls, dealt round-robin
#: to the four monitor peers.
INGEST_BATCHES = 12


# -- alerts --------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One SOAP call; the WS alerters turn it into an ``<alert>`` item."""

    serial: int
    caller: str
    callee: str
    method: str
    #: multiples of 0.5, so ``responseTimestamp - callTimestamp`` is exact
    duration: float
    fault: bool = False
    city: str | None = None

    @property
    def call_id(self) -> str:
        return f"c{self.serial}"

    @property
    def start(self) -> float:
        return 1000.0 + self.serial

    @property
    def kind(self) -> tuple:
        """Everything that decides which subscriptions match (not the identity)."""
        return (self.caller, self.callee, self.method, self.duration, self.fault, self.city)


@dataclass(frozen=True)
class Numbered:
    """One chaos-feed alert of the ``fanout`` workload."""

    n: int

    @property
    def kind(self) -> int:
        return self.n


# -- subscriptions ---------------------------------------------------------------


@dataclass(frozen=True)
class FilterSub:
    method: str
    callee: str | None = None
    min_duration: int | None = None
    path: str | None = None  # key of PATHS

    def text(self) -> str:
        conditions = [f'$c.callMethod = "{self.method}"']
        let = ""
        if self.callee is not None:
            conditions.append(f'$c.callee = "{self.callee}"')
        if self.min_duration is not None:
            let = "let $d := $c.responseTimestamp - $c.callTimestamp "
            conditions.append(f"$d > {self.min_duration}")
        if self.path is not None:
            conditions.append(PATHS[self.path])
        return (
            f"for $c in outCOM(<p>{HUB}</p>) {let}where {' and '.join(conditions)} "
            "return <hit><id>{$c.callId}</id></hit>"
        )


@dataclass(frozen=True)
class FanoutSub:
    threshold: int

    def text(self) -> str:
        return (
            f"for $x in chaosFeed(<p>{SOURCE}</p>) "
            f'where $x.kind = "chaos" and $x.n >= {self.threshold} '
            "return <seen><src>{$x.source}</src><n>{$x.n}</n></seen>"
        )


@dataclass(frozen=True)
class MeteoSub:
    """The Figure-1 QoS subscription of the paper, threshold parameterised."""

    threshold: int

    def text(self) -> str:
        clients = " ".join(f"<p>{peer}</p>" for peer in METEO_CLIENTS)
        return (
            f"for $c1 in outCOM({clients}), $c2 in inCOM(<p>{METEO_SERVER}</p>) "
            "let $duration := $c1.responseTimestamp - $c1.callTimestamp "
            f"where $duration > {self.threshold} "
            'and $c1.callMethod = "GetTemperature" '
            f'and $c1.callee = "{METEO_SERVER}" '
            "and $c1.callId = $c2.callId "
            'return <incident type="slowAnswer"><client>{$c1.caller}</client>'
            "<tstamp>{$c2.callTimestamp}</tstamp></incident> "
            'by publish as channel "alertQoS";'
        )


@dataclass(frozen=True)
class EdosSub:
    mirror: str
    method: str

    def text(self) -> str:
        short = self.mirror.split(".")[0]
        return (
            f"for $c in outCOM(<p>{self.mirror}</p>) "
            f'where $c.callMethod = "{self.method}" and $c.status = "ok" '
            f'return <hit method="{self.method}"><peer>{{$c.callee}}</peer></hit> '
            f'by publish as channel "edos-{short}-{self.method}";'
        )


# -- sizes -------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Subscriptions, rounds per cycle, alerts per burst, single alerts per round."""

    subs: int
    rounds: int
    burst: int
    singles: int

    def counted(self, scale: float) -> "Sizes":
        """The counted cycle: one round whose burst is 50 alerts at full size."""
        return replace(self, rounds=1, burst=_scaled(50, scale))


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def filter_sizes(scale: float = 1.0) -> Sizes:
    return Sizes(40 * _scaled(50, scale), 4, 8 * _scaled(25, scale), _scaled(25, scale))


def fanout_sizes(scale: float = 1.0) -> Sizes:
    return Sizes(30 * _scaled(25, scale), 4, 20 * _scaled(5, scale), _scaled(25, scale))


def ingest_sizes(scale: float = 1.0) -> Sizes:
    return Sizes(INGEST_BATCHES * _scaled(125, scale), 4, 10, 10)


# -- one cycle's inputs ----------------------------------------------------------------


@dataclass
class Plan:
    """Everything one cycle feeds the system, dealt before anything is timed."""

    subs: list  # spec of subscription i
    batches: list[tuple[str, list[int]]]  # (manager peer, subscription indices)
    cancels: list[int]  # subscription indices, in cancel order
    warmup: list
    bursts: list[list]
    singles: list[list]

    def __post_init__(self) -> None:
        self.texts = [sub.text() for sub in self.subs]
        self.cancelled = frozenset(self.cancels)


def _shuffled(rng: random.Random, cards: list) -> list:
    cards = list(cards)
    rng.shuffle(cards)
    return cards


def _deal_alerts(rng: random.Random, sizes: Sizes, deck, singles_deck=None) -> tuple[list, list[list], list[list]]:
    """Warm-up burst, ``rounds`` bursts and ``rounds`` x ``singles`` single alerts.

    ``deck(n, first_serial)`` returns ``n`` cards in fixed proportions.  Every
    round gets a whole deck of each kind, shuffled: all bursts hold the same
    mix of alerts and so do the singles of all rounds, whatever the seed.
    """
    singles_deck = singles_deck or deck
    serial = 0
    warmup = _shuffled(rng, deck(sizes.burst, serial))
    serial += sizes.burst
    bursts, singles = [], []
    for _ in range(sizes.rounds):
        bursts.append(_shuffled(rng, deck(sizes.burst, serial)))
        serial += sizes.burst
        singles.append(_shuffled(rng, singles_deck(sizes.singles, serial)))
        serial += sizes.singles
    return warmup, bursts, singles


# -- filter ----------------------------------------------------------------------------


def filter_sub(k: int) -> FilterSub:
    """Subscription ``k`` of the deck: 4 methods; 70 % name a callee, 30 % a
    duration threshold, 30 % a tree pattern (period 40, variant ``k // 40``)."""
    method = METHODS[k % 4]
    role = (k // 4) % 10
    variant = k // 40
    return FilterSub(
        method=method,
        callee=CALLEES[variant % 2] if role < 7 else None,
        min_duration=MIN_DURATIONS[variant % 3] if role in (0, 3, 7) else None,
        path=tuple(PATHS)[(variant // 2) % 3] if role in (1, 5, 8) else None,
    )


def soap_deck(n: int, first_serial: int) -> list[Call]:
    """``n`` calls from the hub: 8 (method, callee) pairs in turn; of every 5
    per pair 1 is slow, of every 8 one is a fault, of every 3 one has no
    parameter."""
    slow = (7.5, 12.5, 17.5, 22.5, 30.5)
    fast = (0.5, 1.0, 1.5, 2.0)
    calls = []
    for i in range(n):
        pair, j = i % 8, i // 8
        calls.append(
            Call(
                serial=first_serial + i,
                caller=HUB,
                callee=CALLEES[pair // 4],
                method=METHODS[pair % 4],
                duration=slow[(j // 5) % 5] if j % 5 == 0 else fast[j % 4],
                fault=j % 8 == 3,
                city=None if j % 3 == 2 else CITIES[j % 2],
            )
        )
    return calls


def deal_filter(rng: random.Random, sizes: Sizes) -> Plan:
    subs = [filter_sub(k) for k in range(sizes.subs)]
    order = _shuffled(rng, range(sizes.subs))
    # a fifth of the variants is cancelled whole, so the live mix is the same
    # for every seed
    cancels = _shuffled(rng, [k for k in range(sizes.subs) if (k // 40) % 5 == 4])
    warmup, bursts, singles = _deal_alerts(rng, sizes, soap_deck)
    return Plan(subs, [(HUB, order)], cancels, warmup, bursts, singles)


# -- fanout ----------------------------------------------------------------------------


def numbered_deck(n: int, first_serial: int) -> list[Numbered]:
    return [Numbered(i % 20) for i in range(n)]


def numbered_singles(n: int, first_serial: int) -> list[Numbered]:
    """Of every five cards four walk through 0..19 and one is a 9 or a 10.

    With the odd thresholds of :func:`deal_fanout`, 9 and 10 reach the same
    5/10 of the live subscribers: a fat middle level, so that the median
    single alert of a round sits inside it and not on the step between two
    levels, where it would jump from round to round.
    """
    return [
        Numbered((4 * (i // 5) + i % 5) % 20 if i % 5 < 4 else 9 + (i // 5) % 2) for i in range(n)
    ]


def deal_fanout(rng: random.Random, sizes: Sizes) -> Plan:
    """Subscriber ``i`` (peer ``sub<i>``) takes threshold 1, 3, .. 19 in turn.

    Subscribers arrive in index order whatever the seed: the order decides
    which replica each one picks as its provider, so a shuffled order would
    build a different forwarding tree -- a different workload -- per seed.
    The seed shuffles the cancel order and the alerts.  Alert ``n`` reaches
    ``(n + 1) // 2`` tenths of the live subscribers.
    """
    subs = [FanoutSub(2 * (i % 10) + 1) for i in range(sizes.subs)]
    cancels = _shuffled(rng, [i for i in range(sizes.subs) if i % 3 == 2])
    warmup, bursts, singles = _deal_alerts(rng, sizes, numbered_deck, numbered_singles)
    return Plan(subs, [(f"sub{i}", [i]) for i in range(sizes.subs)], cancels, warmup, bursts, singles)


# -- ingest ----------------------------------------------------------------------------


def zipf_counts(variants: int, total: int, exponent: float = 1.1) -> list[int]:
    """``total`` split over ``variants`` ranks in proportion to rank^-exponent,
    every rank at least once (largest remainders take what is left)."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(variants)]
    norm = sum(weights)
    quotas = [total * weight / norm for weight in weights]
    counts = [max(1, int(quota)) for quota in quotas]
    by_remainder = sorted(range(variants), key=lambda r: (int(quotas[r]) - quotas[r], r))
    step = 0
    while sum(counts) < total:
        counts[by_remainder[step % variants]] += 1
        step += 1
    while sum(counts) > total:  # only when the at-least-once floor overshot
        counts[counts.index(max(counts))] -= 1
    return counts


def ingest_variants(n: int) -> list:
    """Rank order: meteo thresholds 1, 2, .. on even ranks, EDOS mirror x
    method filters on odd ranks, so both mixes have popular and rare variants."""
    variants: list = []
    for rank in range(n):
        k = rank // 2
        if rank % 2 == 0:
            variants.append(MeteoSub(k + 1))
        else:
            variants.append(EdosSub(MIRRORS[k % 3], f"Get{k // 3}"))
    return variants


def ingest_deck(n: int, first_serial: int) -> list[Call]:
    """Ten calls in turn: 9 to the meteo service, 1 from an EDOS mirror.

    Sorted by how many subscriptions they reach, the four 10.5 s calls are
    cards 5 to 8 of 10, so the median single alert is always one of them.
    """
    meteo = [
        ("GetHumidity", 80.5),
        ("GetTemperature", 0.5),
        ("GetTemperature", 2.5),
        ("GetTemperature", 10.5),
        ("GetTemperature", 10.5),
        ("GetTemperature", 10.5),
        ("GetTemperature", 10.5),
        ("GetTemperature", 30.5),
        ("GetTemperature", 80.5),
    ]
    calls = []
    for i in range(n):
        card = i % 10
        if card == 9:
            calls.append(Call(first_serial + i, MIRRORS[0], EDOS_CLIENT, "Get0", 0.5, city="Paris"))
        else:
            method, duration = meteo[card]
            calls.append(
                Call(first_serial + i, METEO_CLIENTS[i % 2], METEO_SERVER, method, duration, city="Orsay")
            )
    return calls


def deal_ingest(rng: random.Random, sizes: Sizes) -> Plan:
    n_variants = max(10, sizes.subs // 10)
    variants = ingest_variants(n_variants)
    counts = zipf_counts(n_variants, sizes.subs)
    deck = _shuffled(rng, [rank for rank, count in enumerate(counts) for _ in range(count)])
    subs = [variants[rank] for rank in deck]
    per_batch = sizes.subs // INGEST_BATCHES
    batches = [
        (MONITORS[b % len(MONITORS)], list(range(b * per_batch, (b + 1) * per_batch)))
        for b in range(INGEST_BATCHES)
    ]
    # every other copy of a variant, counted in submission order: the first
    # copy (which deployed the operators) always goes, a variant submitted
    # once is torn down completely, the others only lose references
    seen: dict[int, int] = {}
    cancels = []
    for index, rank in enumerate(deck):
        copy = seen.get(rank, 0)
        seen[rank] = copy + 1
        if copy % 2 == 0:
            cancels.append(index)
    warmup, bursts, singles = _deal_alerts(rng, sizes, ingest_deck)
    return Plan(subs, batches, _shuffled(rng, cancels), warmup, bursts, singles)
