"""ActiveXML documents: service-call (``sc``) elements and lazy materialisation.

An ActiveXML document is an XML document in which some elements denote calls
to Web services (Section 3.2 of the paper).  Evaluating such a call replaces
the ``sc`` element by the call's result.  P2PM exploits this to keep heavy
payloads *intensional*: the Filter only triggers the call when the cheap
simple conditions have already been satisfied (Section 4, "Web service
calls"), which is what :mod:`repro.filtering.filter` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.xmlmodel.tree import Element

#: Tag used for service-call elements, as in the paper's examples.
SC_TAG = "sc"

ServiceFunction = Callable[[Element], list[Element]]


class ServiceNotFoundError(KeyError):
    """Raised when materialisation needs a service that is not registered."""


@dataclass
class ServiceCall:
    """Decoded view of an ``sc`` element."""

    service: str
    address: str
    parameters: Element | None = None

    def key(self) -> str:
        return f"{self.service}@{self.address}"


@dataclass
class ServiceRegistry:
    """Registry of callable services used to materialise active documents.

    The registry also counts how many calls were actually performed, which is
    the quantity the lazy-filtering experiment (E6) measures.
    """

    _services: dict[str, ServiceFunction] = field(default_factory=dict)
    calls_performed: int = 0

    def register(self, service: str, address: str, function: ServiceFunction) -> None:
        """Register ``function`` to answer calls to ``service@address``."""
        self._services[f"{service}@{address}"] = function

    def resolve(self, call: ServiceCall) -> list[Element]:
        """Execute the service call and return the resulting elements."""
        try:
            function = self._services[call.key()]
        except KeyError as exc:
            raise ServiceNotFoundError(
                f"no service registered for {call.key()}"
            ) from exc
        self.calls_performed += 1
        node = call.parameters if call.parameters is not None else Element("parameters")
        result = function(node)
        return [item.copy() for item in result]

    def reset_counters(self) -> None:
        self.calls_performed = 0


def make_service_call(
    service: str, address: str, parameters: Element | None = None
) -> Element:
    """Build an ``sc`` element, e.g. ``<sc service="storage" address="site">``."""
    children = [parameters] if parameters is not None else []
    return Element(SC_TAG, {"service": service, "address": address}, children)


def is_service_call(node: Element) -> bool:
    """True when ``node`` is an ``sc`` element with the required attributes."""
    return node.tag == SC_TAG and "service" in node.attrib and "address" in node.attrib


def decode_service_call(node: Element) -> ServiceCall:
    """Extract the :class:`ServiceCall` described by an ``sc`` element."""
    if not is_service_call(node):
        raise ValueError(f"not a service call element: {node!r}")
    return ServiceCall(
        service=node.attrib["service"],
        address=node.attrib["address"],
        parameters=node.find("parameters"),
    )


def has_service_calls(tree: Element) -> bool:
    """True when the subtree contains at least one unevaluated ``sc`` element."""
    return any(is_service_call(node) for node in tree.iter())


def materialize(tree: Element, registry: ServiceRegistry) -> Element:
    """Return a copy of ``tree`` with every ``sc`` element replaced by its result.

    The original tree is left untouched; the copy is fully extensional
    (contains no remaining service calls, assuming services do not themselves
    return active content -- nested results are materialised recursively).
    """
    copy = tree.copy()
    _materialize_children(copy, registry)
    return copy


def _materialize_children(node: Element, registry: ServiceRegistry) -> None:
    new_children: list[Element] = []
    for child in node.children:
        if is_service_call(child):
            results = registry.resolve(decode_service_call(child))
            for result in results:
                _materialize_children(result, registry)
                new_children.append(result)
        else:
            _materialize_children(child, registry)
            new_children.append(child)
    node.children = new_children
    node.invalidate_caches()
