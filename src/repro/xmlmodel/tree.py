"""Ordered, attribute-carrying XML tree model.

The model is intentionally small: an :class:`Element` has a tag, a dict of
string attributes, an optional text payload and an ordered list of child
elements.  Stream items in P2PM are instances of this class; the paper's
"attributes of the root" (used by the preFilter) are simply ``root.attrib``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping
from weakref import ref


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

    Parent links are weak (one ``weakref.ref`` per non-leaf node, shared by
    its children), so a tree is acyclic: a stream item and the wrappers that
    carry it across links are freed by reference count the moment the last
    hop drops them, not by the cyclic collector.  A node therefore does not
    keep its ancestors alive -- hold the root.
    """

    __slots__ = ("tag", "attrib", "children", "_text", "_parent", "_weight", "__weakref__")

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
        self._parent: ref[Element] | None = None
        self._weight: int | None = None
        if self.children:
            parent = ref(self)
            for child in self.children:
                if not isinstance(child, Element):
                    raise TypeError(f"child must be an Element, got {type(child).__name__}")
                child._parent = parent
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
        be a list of Elements owned by the new element, and ``weight`` -- when
        the caller knows it from the parts -- must be what :meth:`weight`
        would compute.
        """
        node = cls.__new__(cls)
        node.tag = tag
        node.attrib = attrib
        node.children = children
        node._parent = None
        node._weight = weight
        if children:
            parent = ref(node)
            for child in children:
                child._parent = parent
        node._text = text
        return node

    # -- measurement caching ------------------------------------------------- #
    #
    # ``weight()`` memoises per node and is invalidated by every mutation
    # performed through the Element API (``append``/``extend``/``set``/
    # assigning ``text``): the mutated node and its ancestor chain are
    # cleared, child caches stay valid.  A stream item is immutable once
    # emitted, so several trees share it -- a join's binding tuples and the
    # wrappers that carry it across links -- and its parent link, read only
    # by this invalidation, names the last of them.  Mutate a tree before
    # emitting it, or a copy; code that mutates ``attrib``/``children``
    # directly must call :meth:`invalidate_caches` on it afterwards.

    @property
    def text(self) -> str | None:
        """Character data directly under this element."""
        return self._text

    @text.setter
    def text(self, value: str | None) -> None:
        self._text = value
        self.invalidate_caches()

    @property
    def parent(self) -> "Element | None":
        """The element this node is attached under (``None`` at a root, or
        once nothing else references the parent: the link is weak)."""
        parent = self._parent
        return parent() if parent is not None else None

    def invalidate_caches(self) -> None:
        """Drop the cached weight here and along the ancestor chain.

        The walk stops early at the first uncached ancestor: a cached node
        implies its whole subtree is cached, so an uncached node can have no
        cached ancestors.
        """
        node: Element | None = self
        while node is not None and node._weight is not None:
            node._weight = None
            node = node.parent

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def append(self, child: "Element") -> "Element":
        """Append ``child`` and return it (convenient for chaining)."""
        if not isinstance(child, Element):
            raise TypeError(f"child must be an Element, got {type(child).__name__}")
        self.children.append(child)
        child._parent = ref(self)
        self.invalidate_caches()
        return child

    def extend(self, children: Iterable["Element"]) -> None:
        for child in children:
            self.append(child)

    def set(self, name: str, value: object) -> None:
        """Set attribute ``name`` to ``str(value)``."""
        self.attrib[str(name)] = str(value)
        self.invalidate_caches()

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
        read.  Mutation through the Element API recomputes (see
        :meth:`invalidate_caches`).
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
        identical, so it is never re-walked for accounting.  Like every tree
        the copy is acyclic (weak parent links), so it dies with its last
        reference.
        """
        node = Element.__new__(Element)
        node.tag = self.tag
        node.attrib = dict(self.attrib)
        node._text = self._text
        node._parent = None
        node._weight = self._weight
        if self.children:
            parent = ref(node)
            children = node.children = [child.copy() for child in self.children]
            for child in children:
                child._parent = parent
        else:
            node.children = []
        return node

    def __reduce__(self):  # weak parent links cannot be pickled: fast_new rebuilds them
        return Element.fast_new, (self.tag, self.attrib, self.children, self._text)

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
