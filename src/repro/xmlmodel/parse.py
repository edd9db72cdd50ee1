"""A small, dependency-free XML parser producing :class:`Element` trees.

The parser supports the subset of XML used by P2PM streams: elements,
attributes (single or double quoted), character data, comments, processing
instructions, CDATA sections and the five predefined entities.  It does not
implement DTDs or namespaces -- stream items in the paper do not use them.
"""

from __future__ import annotations

import re

from repro.xmlmodel.tree import Element


class XMLParseError(ValueError):
    """Raised when the input text is not well-formed for our subset."""

    def __init__(self, message: str, position: int, source: str) -> None:
        line = source.count("\n", 0, position) + 1
        column = position - (source.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# at most 6 / 7 significant digits, so int() cannot fail
_CHAR_REF = re.compile(r"#[xX]0*([0-9a-fA-F]{1,6})|#0*([0-9]{1,7})")

def _unescape(text: str, pos: int, source: str) -> str:
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XMLParseError("unterminated entity reference", pos + i, source)
        name = text[i + 1 : end]
        if name.startswith("#"):
            ref = _CHAR_REF.fullmatch(name)
            code = -1 if ref is None else int(ref[1], 16) if ref[1] else int(ref[2])
            if not 0 <= code <= 0x10FFFF:
                raise XMLParseError(f"invalid character reference &{name};", pos + i, source)
            out.append(chr(code))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLParseError(f"unknown entity &{name};", pos + i, source)
        i = end + 1
    return "".join(out)


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)

    # -- low level helpers ------------------------------------------------

    def error(self, message: str) -> XMLParseError:
        return XMLParseError(message, self.pos, self.source)

    def peek(self) -> str:
        return self.source[self.pos] if self.pos < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                end = self.source.find("-->", self.pos + 4)
                if end == -1:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.startswith("<?"):
                end = self.source.find("?>", self.pos + 2)
                if end == -1:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.startswith("<!DOCTYPE"):
                end = self.source.find(">", self.pos)
                if end == -1:
                    raise self.error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    def read_name(self) -> str:
        start = self.pos
        while self.pos < self.length:
            ch = self.source[self.pos]
            if ch.isalnum() or ch in "_-.:":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise self.error("expected a name")
        return self.source[start : self.pos]

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> Element:
        self.skip_misc()
        if not self.startswith("<"):
            raise self.error("expected root element")
        root = self.parse_element()
        self.skip_misc()
        if self.pos != self.length:
            raise self.error("trailing content after root element")
        return root

    def parse_element(self) -> Element:
        self.expect("<")
        tag = self.read_name()
        attrib = self.parse_attributes()
        self.skip_whitespace()
        if self.startswith("/>"):
            self.pos += 2
            return Element(tag, attrib)
        self.expect(">")
        children, text = self.parse_content(tag)
        return Element(tag, attrib, children, text)

    def parse_attributes(self) -> dict[str, str]:
        attrib: dict[str, str] = {}
        while True:
            self.skip_whitespace()
            ch = self.peek()
            if ch in ("", ">", "/"):
                return attrib
            name = self.read_name()
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            quote = self.peek()
            if quote not in ("'", '"'):
                raise self.error("attribute value must be quoted")
            self.pos += 1
            end = self.source.find(quote, self.pos)
            if end == -1:
                raise self.error("unterminated attribute value")
            raw = self.source[self.pos : end]
            attrib[name] = _unescape(raw, self.pos, self.source)
            self.pos = end + 1

    def parse_content(self, tag: str) -> tuple[list[Element], str | None]:
        children: list[Element] = []
        text_parts: list[str] = []
        while True:
            if self.pos >= self.length:
                raise self.error(f"unterminated element <{tag}>")
            if self.startswith("</"):
                self.pos += 2
                closing = self.read_name()
                if closing != tag:
                    raise self.error(
                        f"mismatched closing tag </{closing}> for <{tag}>"
                    )
                self.skip_whitespace()
                self.expect(">")
                text = "".join(text_parts).strip()
                return children, (text or None)
            if self.startswith("<!--"):
                end = self.source.find("-->", self.pos + 4)
                if end == -1:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.startswith("<![CDATA["):
                end = self.source.find("]]>", self.pos + 9)
                if end == -1:
                    raise self.error("unterminated CDATA section")
                text_parts.append(self.source[self.pos + 9 : end])
                self.pos = end + 3
            elif self.startswith("<?"):
                end = self.source.find("?>", self.pos + 2)
                if end == -1:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.startswith("<"):
                children.append(self.parse_element())
            else:
                start = self.pos
                next_tag = self.source.find("<", self.pos)
                if next_tag == -1:
                    raise self.error(f"unterminated element <{tag}>")
                raw = self.source[start:next_tag]
                text_parts.append(_unescape(raw, start, self.source))
                self.pos = next_tag


def parse_xml(source: str) -> Element:
    """Parse an XML document and return its root :class:`Element`.

    Raises :class:`XMLParseError` with line/column information when the
    document is not well-formed.
    """
    if not isinstance(source, str):
        raise TypeError("parse_xml expects a string")
    return _Parser(source).parse_document()
