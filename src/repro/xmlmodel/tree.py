"""Ordered, attribute-carrying XML tree model.

The model is intentionally small: an :class:`Element` has a tag, a dict of
string attributes, an optional text payload and an ordered list of child
elements.  Stream items in P2PM are instances of this class; the paper's
"attributes of the root" (used by the preFilter) are simply ``root.attrib``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class Element:
    """A node of an XML tree.

    Parameters
    ----------
    tag:
        Element name.  Must be a non-empty string.
    attrib:
        Mapping of attribute name to string value.  Values are coerced to
        ``str`` so callers may pass numbers.
    children:
        Ordered child elements.
    text:
        Optional character data directly under this element.

    A node keeps no link to its parent, so one node may sit in several trees
    -- a stream item under every wrapper, binding tuple and subscriber that
    carries it -- and a tree is acyclic: it is freed by reference count the
    moment the last holder drops it, not by the cyclic collector.
    """

    __slots__ = ("tag", "attrib", "children", "_text", "_weight")

    def __init__(
        self,
        tag: str,
        attrib: Mapping[str, object] | None = None,
        children: Iterable["Element"] | None = None,
        text: str | None = None,
    ) -> None:
        if not isinstance(tag, str) or not tag:
            raise ValueError(f"element tag must be a non-empty string, got {tag!r}")
        self.tag = tag
        self.attrib: dict[str, str] = {
            str(k): str(v) for k, v in (attrib or {}).items()
        }
        self.children: list[Element] = list(children or [])
        for child in self.children:
            if not isinstance(child, Element):
                raise TypeError(f"child must be an Element, got {type(child).__name__}")
        self._weight: int | None = None
        self._text = text

    @classmethod
    def fast_new(
        cls,
        tag: str,
        attrib: dict[str, str],
        children: list["Element"],
        text: str | None = None,
        weight: int | None = None,
    ) -> "Element":
        """Trusted constructor for hot paths (channel fan-out, batch wrappers).

        Skips validation and attribute coercion: ``attrib`` must already map
        ``str`` to ``str`` and be owned by the new element, ``children`` must
        be a list of Elements (which may sit in other trees too), and
        ``weight`` -- when the caller knows it from the parts -- must be what
        :meth:`weight` would compute.
        """
        node = cls.__new__(cls)
        node.tag = tag
        node.attrib = attrib
        node.children = children
        node._weight = weight
        node._text = text
        return node

    # -- measurement caching ------------------------------------------------- #
    #
    # ``weight()`` memoises per node.  A tree is weighed once it is built and
    # nothing mutates it afterwards: a stream item is immutable once emitted,
    # so several trees share it -- a join's binding tuples and the wrappers
    # that carry it across links.  A mutation through the Element API
    # (``append``/``extend``/``set``/assigning ``text``) drops the mutated
    # node's own memo only, never an ancestor's: build a tree bottom-up
    # before weighing it, or mutate a copy.  Code that mutates
    # ``attrib``/``children`` directly must call :meth:`invalidate_caches`
    # on that node afterwards.

    @property
    def text(self) -> str | None:
        """Character data directly under this element."""
        return self._text

    @text.setter
    def text(self, value: str | None) -> None:
        self._text = value
        self._weight = None

    def invalidate_caches(self) -> None:
        """Drop this node's cached weight (not its ancestors': a node has no
        link to the trees it sits in)."""
        self._weight = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def append(self, child: "Element") -> "Element":
        """Append ``child`` and return it (convenient for chaining)."""
        if not isinstance(child, Element):
            raise TypeError(f"child must be an Element, got {type(child).__name__}")
        self.children.append(child)
        self._weight = None
        return child

    def extend(self, children: Iterable["Element"]) -> None:
        for child in children:
            self.append(child)

    def set(self, name: str, value: object) -> None:
        """Set attribute ``name`` to ``str(value)``."""
        self.attrib[str(name)] = str(value)
        self._weight = None

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return attribute ``name`` or ``default``."""
        return self.attrib.get(name, default)

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def find(self, tag: str) -> "Element | None":
        """Return the first direct child with the given tag, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["Element"]:
        """Return all direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def iter(self, tag: str | None = None) -> Iterator["Element"]:
        """Depth-first pre-order iteration over self and all descendants."""
        if tag is None or self.tag == tag:
            yield self
        for child in self.children:
            yield from child.iter(tag)

    def descendants(self) -> Iterator["Element"]:
        """All strict descendants, depth-first pre-order."""
        for child in self.children:
            yield from child.iter()

    def child_text(self, tag: str, default: str | None = None) -> str | None:
        """Text of the first child named ``tag``, or ``default``."""
        child = self.find(tag)
        if child is None:
            return default
        return child.text if child.text is not None else default

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #

    def size(self) -> int:
        """Number of elements in the subtree rooted here."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def weight(self) -> int:
        """Approximate serialised size in bytes (cached).

        Used by the network simulator to account for transferred data
        without re-serialising every message.  The first call walks the
        subtree and memoises at every node; repeated calls -- a 1k-subscriber
        fan-out accounts the same payload once per message -- are one slot
        read.  A mutation through the Element API recomputes the mutated
        node, not its ancestors (see :meth:`invalidate_caches`).
        """
        cached = self._weight
        if cached is not None:
            return cached
        total = 2 * len(self.tag) + 5  # <tag></tag>
        for name, value in self.attrib.items():
            total += len(name) + len(value) + 4
        if self._text:
            total += len(self._text)
        for child in self.children:
            total += child.weight()
        self._weight = total
        return total

    # ------------------------------------------------------------------ #
    # Copying, equality, hashing-ish helpers
    # ------------------------------------------------------------------ #

    def copy(self) -> "Element":
        """Deep copy of the subtree, for a caller that will mutate it.

        The cached weight travels with the copy: a deep copy is structurally
        identical, so it is never re-walked for accounting.  A caller that
        mutates a node below the copy's root must drop the memos above it
        itself (see :meth:`invalidate_caches`).
        """
        node = Element.__new__(Element)
        node.tag = self.tag
        node.attrib = dict(self.attrib)
        node._text = self._text
        node._weight = self._weight
        node.children = [child.copy() for child in self.children]
        return node

    def structural_key(self) -> tuple:
        """A hashable key identifying the subtree up to structural equality.

        Used by Duplicate-removal and by the stream-reuse machinery to
        compare trees cheaply.
        """
        return (
            self.tag,
            tuple(sorted(self.attrib.items())),
            self.text or "",
            tuple(child.structural_key() for child in self.children),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attrib == other.attrib
            and (self.text or "") == (other.text or "")
            and self.children == other.children
        )

    def __hash__(self) -> int:  # pragma: no cover - exercised via sets in tests
        return hash(self.structural_key())

    def __repr__(self) -> str:
        bits = [self.tag]
        if self.attrib:
            bits.append(" " + " ".join(f'{k}="{v}"' for k, v in self.attrib.items()))
        inner = ""
        if self.text:
            inner = self.text if len(self.text) <= 20 else self.text[:17] + "..."
        if self.children:
            inner += f"[{len(self.children)} children]"
        return f"<Element {''.join(bits)}>{inner}"

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self) -> Iterator["Element"]:
        return iter(self.children)

    def __getitem__(self, index: int) -> "Element":
        return self.children[index]


def element(tag: str, /, _text: str | None = None, **attrib: object) -> Element:
    """Terse constructor: ``element("alert", callId="7")``."""
    return Element(tag, attrib, text=_text)


def text_of(node: Element | None) -> str:
    """Concatenated text content of a subtree (empty string for ``None``)."""
    if node is None:
        return ""
    parts: list[str] = []
    for item in node.iter():
        if item.text:
            parts.append(item.text)
    return "".join(parts)
