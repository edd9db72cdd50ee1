"""WS Alerter: observes SOAP RPC communications at a peer.

"A WS Alerter intercepts inbound-outbound Web service calls and produces
alerts including SOAP envelopes expanded with annotations such as timestamps
and the identifiers (DNS/IP) for caller/called entities."  In the paper the
interception is done by Axis handlers; here the synthetic SOAP workload
(:mod:`repro.workloads.soap_traffic`) notifies the alerters of every
call/response pair it generates, which exercises exactly the same downstream
code paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerters.base import Alerter
from repro.xmlmodel.tree import Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.soap_traffic import SoapCall

#: Directions a WS alerter can observe.
IN = "in"
OUT = "out"


_NAMES = ("direction", "callId", "caller", "callee", "callMethod", "callTimestamp", "responseTimestamp", "status")
#: the own markup of an alert and of its error, their values left out
_ALERT = len("<alert></alert>") + sum(len(f' {name}=""') for name in _NAMES)
_ERROR = len('<error></error> code=""')


def soap_alert(call: "SoapCall", direction: str) -> Element:
    """Build the alert item for one completed SOAP call, each node born weighed.

    The root attributes carry the annotations used by simple conditions
    (call identifier, caller/callee, method, timestamps, duration); the SOAP
    envelope travels as a sub-element.
    """
    values = (str(direction), str(call.call_id), str(call.caller), str(call.callee), str(call.method),
              f"{call.call_timestamp:.3f}", f"{call.response_timestamp:.3f}", str(call.status))
    children = [call.envelope()]
    weight = _ALERT + len("".join(values)) + (children[0]._weight or children[0].weight())
    if call.status != "ok":
        children.append(Element.fast_new("error", {"code": values[-1]}, [], None, _ERROR + len(values[-1])))
        weight += _ERROR + len(values[-1])
    return Element.fast_new("alert", dict(zip(_NAMES, values)), children, None, weight)


class WSAlerter(Alerter):
    """Alerter for Web-service calls seen at one peer, in one direction."""

    kind = "ws"

    def __init__(self, peer_id: str, direction: str, stream=None) -> None:
        if direction not in (IN, OUT):
            raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
        self.direction = direction
        super().__init__(peer_id, stream)
        self.output.stream_id = f"{'inCOM' if direction == IN else 'outCOM'}"

    @property
    def p2pml_function(self) -> str:
        """The FOR-clause function this alerter implements."""
        return "inCOM" if self.direction == IN else "outCOM"

    def observe_call(self, call: "SoapCall") -> None:
        """Called by the monitored application when a call completes.

        An *out* alerter reports calls issued by its peer; an *in* alerter
        reports calls served by its peer.  Calls not involving the peer are
        ignored, so one traffic generator can notify every alerter.
        """
        if self.direction == OUT and call.caller == self.peer_id:
            self.emit_alert(soap_alert(call, OUT))
        elif self.direction == IN and call.callee == self.peer_id:
            self.emit_alert(soap_alert(call, IN))
