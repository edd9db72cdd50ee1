"""A SOAP alert is born weighed.

Generated: calls that fail or succeed, with 0-3 parameters, empty values and
a call id that is not a string.  The alert serialises exactly as the
``Element`` builder it replaced (frozen below) built it, and every node's
weight slot holds what an uncached walk of the node computes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alerters.ws import IN, OUT, soap_alert
from repro.workloads.soap_traffic import SoapCall
from repro.xmlmodel import Element
from repro.xmlmodel.serialize import to_xml


def frozen_envelope(call: SoapCall) -> Element:
    body = Element("Body", children=[
        Element(call.method, children=[
            Element("param", {"name": name}, text=value) for name, value in sorted(call.parameters.items())
        ])
    ])
    return Element("Envelope", {"xmlns": "http://schemas.xmlsoap.org/soap/envelope/"}, [Element("Header"), body])


def frozen_alert(call: SoapCall, direction: str) -> Element:
    alert = Element("alert", {
        "direction": direction,
        "callId": call.call_id,
        "caller": call.caller,
        "callee": call.callee,
        "callMethod": call.method,
        "callTimestamp": f"{call.call_timestamp:.3f}",
        "responseTimestamp": f"{call.response_timestamp:.3f}",
        "status": call.status,
    })
    alert.append(frozen_envelope(call))
    if call.status != "ok":
        alert.append(Element("error", {"code": call.status}))
    return alert


def walked(node: Element) -> int:
    """``Element.weight`` computed afresh, no slot read."""
    total = 2 * len(node.tag) + 5 + sum(len(name) + len(value) + 4 for name, value in node.attrib.items())
    return total + len(node.text or "") + sum(walked(child) for child in node.children)


def nodes(node: Element):
    yield node
    for child in node.children:
        yield from nodes(child)


_text = st.text("abz<&\"é ", max_size=6)
_calls = st.builds(
    SoapCall,
    call_id=st.one_of(_text, st.integers(0, 10**6)),
    caller=_text,
    callee=_text,
    method=st.sampled_from(["GetTemperature", "Get0", "m"]),
    call_timestamp=st.floats(0, 1e6),
    response_timestamp=st.floats(0, 1e6),
    status=st.sampled_from(["ok", "fault", ""]),
    parameters=st.dictionaries(st.sampled_from(["city", "unit", "x"]), _text, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(call=_calls, direction=st.sampled_from([IN, OUT]))
def test_a_soap_alert_is_built_as_before_and_born_weighed(call, direction):
    alert = soap_alert(call, direction)
    assert to_xml(alert) == to_xml(frozen_alert(call, direction))
    for node in nodes(alert):
        assert node._weight == walked(node), node.tag
    assert alert.weight() == frozen_alert(call, direction).weight()
