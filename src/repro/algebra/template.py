"""Variable bindings, value references and RETURN-clause templates.

A subscription may involve several stream variables (``$c1``, ``$c2`` in the
meteo example).  Once streams are joined, each stream item is a *binding
tuple* pairing variable names with the XML trees they are bound to.  Value
references -- the dot notation ``$c1.caller`` (root attribute) or a path
``$c1/alert/...`` -- read values out of a binding, and templates build the
output trees of the RETURN clause by substituting ``{...}`` expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlmodel.tree import Element
from repro.xmlmodel.xpath import XPath

#: Mapping from variable name to the XML tree bound to it.
Binding = dict[str, Element]

TUPLE_TAG = "tuple"
BINDING_TAG = "binding"


def make_tuple_item(binding: Binding) -> Element:
    """Encode a binding as an XML tree so it can travel on a stream; the bound
    trees are shared, not copied (stream items are immutable once emitted)."""
    bound = [Element.fast_new(BINDING_TAG, {"var": name}, [tree]) for name, tree in sorted(binding.items())]
    return Element.fast_new(TUPLE_TAG, {}, bound)


def is_tuple_item(item: Element) -> bool:
    return item.tag == TUPLE_TAG


def get_binding(item: Element, default_var: str | None = None) -> Binding:
    """Decode an item into a binding.

    A non-tuple item is interpreted as binding ``default_var`` (or ``"item"``)
    to the whole tree, so operators work uniformly on raw alerter output and
    on joined tuples.
    """
    if item.tag != TUPLE_TAG:
        return {default_var or "item": item}
    binding: Binding = {}
    for child in item.children:
        if child.tag == BINDING_TAG and child.children:
            binding[child.attrib.get("var", "item")] = child.children[0]
    return binding


def merge_tuple_items(left: Element, right: Element, left_var: str, right_var: str) -> Element:
    """Combine two (possibly already joined) items into one binding tuple;
    two raw items under distinct variables are paired without decoding them."""
    if left.tag != TUPLE_TAG and right.tag != TUPLE_TAG and left_var and right_var and left_var != right_var:
        if right_var < left_var:  # bindings in variable order, as make_tuple_item sorts them
            left, right, left_var, right_var = right, left, right_var, left_var
        first = Element.fast_new(BINDING_TAG, {"var": left_var}, [left])
        return Element.fast_new(TUPLE_TAG, {}, [first, Element.fast_new(BINDING_TAG, {"var": right_var}, [right])])
    binding = get_binding(left, left_var)
    binding.update(get_binding(right, right_var))
    return make_tuple_item(binding)


@dataclass(frozen=True)
class ValueRef:
    """A reference to a value inside a binding.

    ``kind`` is one of:

    * ``"attribute"`` -- the dot notation ``$var.attr`` (root attribute);
    * ``"path"`` -- an XPath evaluated against the tree bound to ``var``;
    * ``"self"`` -- the whole tree bound to ``var``;
    * ``"literal"`` -- a constant value (no variable involved).
    """

    var: str
    kind: str
    detail: str = ""

    @classmethod
    def attribute(cls, var: str, attribute: str) -> "ValueRef":
        return cls(var, "attribute", attribute)

    @classmethod
    def path(cls, var: str, expression: str) -> "ValueRef":
        return cls(var, "path", expression)

    @classmethod
    def whole(cls, var: str) -> "ValueRef":
        return cls(var, "self")

    @classmethod
    def literal(cls, value: str) -> "ValueRef":
        return cls("", "literal", str(value))

    def value(self, binding: Binding) -> str | None:
        """The scalar value of this reference under ``binding`` (or ``None``)."""
        if self.kind == "literal":
            return self.detail
        tree = binding.get(self.var)
        if tree is None:
            return None
        if self.kind == "attribute":
            return tree.attrib.get(self.detail)
        if self.kind == "self":
            return tree.text
        result = XPath.compile(self.detail).select(tree, relative=True)
        if not result:
            return None
        first = result[0]
        return first.text if isinstance(first, Element) else str(first)

    def node(self, binding: Binding) -> Element | None:
        """The element a ``self`` or path reference selects, if any."""
        tree = binding.get(self.var)
        if tree is None or self.kind == "self":
            return tree
        if self.kind != "path":
            return None
        for item in XPath.compile(self.detail).select(tree, relative=True):
            if isinstance(item, Element):
                return item
        return None

    def __str__(self) -> str:
        if self.kind == "literal":
            return repr(self.detail)
        if self.kind == "attribute":
            return f"${self.var}.{self.detail}"
        if self.kind == "self":
            return f"${self.var}"
        return f"${self.var}/{self.detail}"


class RestructureTemplate:
    """Template of the RETURN clause: an XML skeleton with ``{...}`` holes.

    The skeleton is an :class:`Element` tree.  Attribute values and text
    payloads of the form ``{$var.attr}`` / ``{$var/path}`` / ``{$var}`` are
    replaced at runtime by the corresponding value from the binding.  Every
    hole is parsed once, into nested ``(tag, attrs, text, text_ref,
    children, weight)`` tuples whose ``(name, value, ref)`` attributes take
    ``ref``'s value when there is a hole; every node built is born weighed.
    """

    def __init__(self, skeleton: Element) -> None:
        self.skeleton = skeleton
        self._variables: set[str] = set()
        self._compiled = _compile(skeleton, self._variables)

    def instantiate(self, binding: Binding) -> Element:
        """Build the output tree for one binding."""
        return _instantiate(self._compiled, binding)

    def variables(self) -> set[str]:
        """All variables mentioned by the template's holes."""
        return set(self._variables)

    def __repr__(self) -> str:
        return f"RestructureTemplate({self.skeleton.tag!r})"


def _compile(node: Element, found: set[str]) -> tuple:
    """``node`` with its holes parsed; their variables are added to ``found``.
    Its weight is the length of its own markup with the holes left empty."""
    attrs: tuple = ()
    markup = f"<{node.tag}></{node.tag}>"
    for name, raw in node.attrib.items():
        ref = _hole(raw, found)
        attrs += ((name, raw, ref),)
        markup += f' {name}="{raw if ref is None else ""}"'
    text_ref = _hole(node.text, found) if node.text is not None else None
    text = node.text if text_ref is None else None
    children = tuple([_compile(child, found) for child in node.children]) if node.children else ()
    return node.tag, attrs, text, text_ref, children, len(markup + (text or ""))


def _hole(raw: str, found: set[str]) -> ValueRef | None:
    """The reference of ``raw`` when the whole value is a ``{...}`` hole."""
    stripped = raw.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        return None
    ref = parse_value_ref(stripped[1:-1])
    if ref.var:
        found.add(ref.var)
    return ref


def _instantiate(node: tuple, binding: Binding) -> Element:
    """The tree ``node`` builds under ``binding``, each node weighed at birth:
    its static weight, its hole values (concatenated: one ``len``), its children."""
    tag, attrs, text, text_ref, children, weight = node
    attrib, filled = {}, ""
    for name, value, ref in attrs:
        if ref is not None:
            filled += (value := ref.value(binding) or "")
        attrib[name] = value
    built = []
    if text_ref is not None:
        # a whole-variable or path hole embeds a copy of the element it selects
        embedded = text_ref.node(binding) if text_ref.kind in ("self", "path") else None
        if embedded is not None:
            built.append(embedded.copy())  # the copy carries a weighed original's memo
            weight += built[0]._weight or built[0].weight()
        else:
            filled += (text := text_ref.value(binding) or "")
    for child in children:
        built.append(_instantiate(child, binding))
        weight += built[-1]._weight
    return Element.fast_new(tag, attrib, built, text, weight + len(filled) if filled else weight)


def parse_value_ref(expression: str) -> ValueRef:
    """Parse ``$var``, ``$var.attr`` or ``$var/path`` (else a literal)."""
    expression = expression.strip()
    if not expression.startswith("$"):
        return ValueRef.literal(expression.strip("'\""))
    body = expression[1:]
    if "." in body and "/" not in body.split(".", 1)[0]:
        var, attribute = body.split(".", 1)
        return ValueRef.attribute(var, attribute)
    if "/" in body:
        var, path = body.split("/", 1)
        return ValueRef.path(var, path)
    return ValueRef.whole(body)
