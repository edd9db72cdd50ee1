"""P2PML is parsed once per subscription shape (``repro.monitor.manager._parse``).

A text's shape is the text with its literals lifted: each string whose
contents no context rewrites and each number that is no part of a name.  The
first text of a shape is parsed, then the shape itself with a mark in each
literal; the shape is admitted when every mark lands in the AST and binding
the first text's literals gives its AST.  Every later text of an admitted
shape gets the shape's AST with its own literals bound in.

``frozen_template_for`` is ``SubscriptionManager._template_for`` for a text
as it was before shapes: every distinct text parsed.  It is the reference.  On
every P2PML text of the repository, on generated mutations of them and on
generated texts, and on texts made by swapping literals of the same kind into
an admitted shape, the shape path must give the AST that ``parse_subscription``
gives, or the same ``P2PMLSyntaxError`` (message and position), and the same
plan (``describe()``) and reuse key.
"""

from __future__ import annotations

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_p2pml_lexer_differential import ALPHABET, PIECES, SEEDS, catalog_texts, deck_texts, literal_texts, mutations

from repro.monitor import P2PMSystem, manager
from repro.monitor.manager import _build_template, _parse
from repro.p2pml import P2PMLSyntaxError, parse_subscription
from repro.workloads.meteo import METEO_SUBSCRIPTION_TEMPLATE, MeteoScenario

# -- the reference -----------------------------------------------------------------------


def frozen_template_for(text: str, push_selections: bool):
    """The plan template of ``text`` as every distinct text was given one: parsed afresh."""
    return _build_template(parse_subscription(text), push_selections)


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the AST, or the error's message and position."""
    try:
        return ("ast", parse(text))
    except P2PMLSyntaxError as error:
        return ("error", str(error), error.position)


def plan_of(build):
    """The description and reuse key of the plan ``build()`` makes, or its error."""
    try:
        template = build()
    except Exception as error:  # noqa: BLE001 - the reference must fail alike
        return ("error", type(error).__name__, str(error))
    return template.plan.describe(), template.key


def check(shapes: dict, text: str) -> None:
    expected = outcome(parse_subscription, text)
    got = outcome(lambda source: _parse(shapes, source), text)
    assert got == expected, text
    if got[0] == "ast":
        for push_selections in (True, False):
            frozen = plan_of(lambda: frozen_template_for(text, push_selections))
            assert plan_of(lambda: _build_template(got[1], push_selections)) == frozen, text


def shape_key(text: str) -> tuple:
    parts = manager._LITERALS.split(text)
    del parts[2::5], parts[3::4]
    return tuple(parts)


# -- every P2PML text of the repository ------------------------------------------------------

CORPORA = {
    "decks": deck_texts,
    "catalog": catalog_texts,
    "examples": lambda: literal_texts("examples/*.py"),
    "tests": lambda: literal_texts("tests/*.py", "src/repro/workloads/*.py"),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_every_repository_text_gets_its_own_parse_and_plan(corpus):
    shapes: dict = {}
    texts = sorted(CORPORA[corpus]())
    for text in texts:
        check(shapes, text)
    admitted = sum(shape is not None for shape in shapes.values())
    assert admitted >= {"decks": 15, "catalog": 2, "examples": 4, "tests": 30}[corpus]


def test_the_decks_hold_few_shapes():
    shapes: dict = {}
    for text in deck_texts():
        _parse(shapes, text)
    # 10 fanout texts of one shape, 240 filter variants (84 texts) of 10, 150
    # ingest texts of 4 (a Figure-1 subscription, an EDOS one per mirror)
    assert len(shapes) == 15 and None not in shapes.values()


# -- generated texts -------------------------------------------------------------------------

SEEDED: dict = {}


def seeded() -> dict:
    """A table that holds the shape of every seed text (filled once)."""
    if not SEEDED:
        for text in SEEDS:
            try:
                _parse(SEEDED, text)
            except P2PMLSyntaxError:
                pass
    return dict(SEEDED)


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_mutated_texts_get_their_own_parse_and_plan(text):
    check(seeded(), text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES) | st.sampled_from(ALPHABET), min_size=1, max_size=20))
def test_generated_texts_get_their_own_parse_and_plan(pieces):
    check(seeded(), "".join(pieces))


STRING_CONTENTS = st.from_regex(r"[^\s&<>'\"\\]*", fullmatch=True)  # what the shape lifts
ANY_CONTENTS = st.text(alphabet="a9.&<>\\ \t]'\"-;,)${}%/", max_size=6)
NUMBERS = st.from_regex(r"\d[\d.]*", fullmatch=True)


@st.composite
def swaps(draw, contents) -> str:
    """A seed text of an admitted shape with each string's contents swapped for
    ``contents`` and each number for another."""
    text = draw(st.sampled_from(sorted(text for text in SEEDS if seeded().get(shape_key(text)))))

    def swap(match: re.Match) -> str:
        if match[1] is not None:
            return match[1] + draw(contents) + match[1]
        return match[0] if match[3] is not None else draw(NUMBERS)

    return manager._LITERALS.sub(swap, text)


@settings(max_examples=400, deadline=None)
@given(swaps(STRING_CONTENTS))
def test_literals_swapped_into_an_admitted_shape_bind_to_their_own_parse(text):
    shapes = seeded()
    assert shapes.get(shape_key(text)) is not None  # the same shape: bound, not parsed
    check(shapes, text)


@settings(max_examples=400, deadline=None)
@given(swaps(ANY_CONTENTS))
def test_contents_the_shape_does_not_lift_make_another_shape(text):
    check(seeded(), text)


def test_a_cdata_section_is_no_context_for_a_lifted_string():
    shapes: dict = {}
    for contents in ("x", "x]]>", "y"):
        check(shapes, f'for $x in rss(<p>s</p>) return <a><![CDATA["{contents}"]]></a>')
    assert len(shapes) == 2


def test_a_run_of_digits_like_a_mark_refuses_the_shape():
    shapes: dict = {}
    # "909" is the mark of the one string: seen in the variable's name too
    first = 'for $x909 in rss(<p>s</p>) where $x909.a = "909" return $x909'
    check(shapes, first)
    assert list(shapes.values()) == [None]
    check(shapes, first.replace('"909"', '"abc"'))


def test_a_parse_that_rewrites_a_literal_refuses_the_shape(monkeypatch):
    real_parse = manager.parse_subscription

    def shouting(text):  # a parse whose string operands depend on their contents
        subscription = real_parse(text)
        for condition in subscription.conditions:
            if condition.right is not None and condition.right.kind == "literal":
                condition.right.value = condition.right.value.upper()
        return subscription

    monkeypatch.setattr(manager, "parse_subscription", shouting)
    shapes: dict = {}
    texts = [f'for $x in rss(<p>s</p>) where $x.a = "{method}" return $x' for method in ("get", "put")]
    assert _parse(shapes, texts[0]) == shouting(texts[0])
    assert list(shapes.values()) == [None]
    assert _parse(shapes, texts[1]).conditions[0].right.value == "PUT"


# -- the table ---------------------------------------------------------------------------------


def subscription(method: str, comment: str = "") -> str:
    return (
        f"for $c in outCOM(<p>p0.example</p>) {comment}where $c.callMethod = \"{method}\" "
        "return <hit>{$c.caller}</hit>"
    )


def test_shapes_are_per_system_bounded_and_a_refused_shape_parses_each_text(monkeypatch):
    parsed = []
    real_parse = manager.parse_subscription
    monkeypatch.setattr(manager, "parse_subscription", lambda text: parsed.append(text) or real_parse(text))
    systems = [P2PMSystem(seed=5) for _ in range(2)]
    monitors = []
    for system in systems:
        system.add_peer("p0.example")
        monitors.append(system.add_peer("m.example"))
    # per system: each parses the shape's first text and the shape once
    monitors[0].subscribe_many([subscription("A"), subscription("B")])
    monitors[1].subscribe(subscription("C"))
    assert parsed[0::2] == [subscription("A"), subscription("C")]
    assert parsed[1] == parsed[3] != subscription("A")
    assert [len(system.plan_shapes) for system in systems] == [1, 1]
    # refused: the mark in a comment lands nowhere, so each text is parsed
    del parsed[:]
    refused = [subscription("R", f"% note {n}\n") for n in range(3)]
    monitors[0].subscribe_many(refused)
    assert systems[0].plan_shapes[shape_key(refused[0])] is None
    assert parsed[0] == refused[0] and parsed[2:] == refused[1:]
    assert "note 0" not in parsed[1]  # the shape, parsed to place its marks
    # bounded: cleared wholesale when full
    monkeypatch.setattr(manager, "TEMPLATE_TABLE_LIMIT", 2)
    monitors[0].subscribe(subscription("D", "% other 1\n"))
    assert list(systems[0].plan_shapes) == [shape_key(subscription("D", "% other 1\n"))]
    assert len(systems[1].plan_shapes) == 1


def test_a_text_that_fails_to_parse_admits_no_shape():
    shapes: dict = {}
    bad = 'for $c in outCOM(<p>p0</p>) where $c.callMethod = "M" return'
    with pytest.raises(P2PMLSyntaxError) as first:
        _parse(shapes, bad)
    assert shapes == {}
    with pytest.raises(P2PMLSyntaxError) as again:
        _parse(shapes, bad.replace('"M"', '"N"'))
    assert (str(again.value), again.value.position) == (str(first.value), first.value.position)


# -- the shape's AST is shared, never changed ------------------------------------------------


def test_deploying_bound_asts_leaves_the_shape_as_it_was():
    thresholds = (10.0, 2.0, 3.5, 4, 6.25, 8)
    texts = [METEO_SUBSCRIPTION_TEMPLATE.format(threshold=threshold) for threshold in thresholds]
    scenario = MeteoScenario(threshold=thresholds[0])
    system, monitor = scenario.system, scenario.monitor
    scenario.deploy()  # the first text: its shape is admitted
    ((shape, holes),) = system.plan_shapes.values()
    snapshot = copy.deepcopy(shape)
    # only the nodes on a literal's path are copied: the FOR clause, which
    # holds none, is the shape's own
    bound = _parse(system.plan_shapes, texts[1])
    assert bound == parse_subscription(texts[1]) and bound.bindings is shape.bindings
    assert bound.conditions is not shape.conditions and bound.conditions[3] is shape.conditions[3]  # the join
    handles = monitor.subscribe_many(texts[1:4], max_results=1000)
    handles += [monitor.subscribe(text, push_selections=False, reuse=False, max_results=1000) for text in texts[4:]]
    assert len(system.plan_shapes) == 1 and len(system.plan_templates) == 6
    system.run()
    calls = scenario.run_traffic(200)
    assert len(scenario.incidents()) == len(scenario.expected_incidents(calls)) > 0
    slow = [call.duration for call in calls if call.method == "GetTemperature" and call.callee == scenario.server]
    for handle, threshold in zip(handles, thresholds[1:]):
        assert len(handle.results()) == sum(duration > threshold for duration in slow)
    assert shape == snapshot and system.plan_shapes[shape_key(texts[5])] == (shape, holes)
    for handle in handles + [scenario.task]:
        handle.cancel()
    assert shape == snapshot
