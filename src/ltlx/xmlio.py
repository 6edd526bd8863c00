"""Parsing XML text into nodes and serializing nodes back to text.

The parser is a thin tree builder over the stdlib expat bindings, which
gives exact error positions, ordered attributes, duplicate-attribute
detection, and CDATA folding for free.  The serializer is hand-written so
that parse(serialize(n)) == n holds exactly: every character that expat
would normalize on the way back (raw '>', carriage returns, whitespace in
attribute values) is emitted as a reference.
"""

from __future__ import annotations

import xml.parsers.expat as _expat

from .errors import ParseDiagnostic, ParseError
from .nodes import Attribute, Comment, Element, Node, PI, Text

__all__ = ["ParseDiagnostic", "ParseError", "XML_DECLARATION", "parse", "serialize"]

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


def parse(xml_text: str | bytes) -> Element:
    """Parse XML text into its root element.

    Bytes are decoded as their XML declaration says, UTF-8 by default.
    Elements, attributes, character data, comments, and processing
    instructions are preserved; CDATA sections fold into plain text; the
    five predefined entities and numeric character references are
    resolved.  The XML declaration, DOCTYPE, and prolog/epilog comments
    or processing instructions are discarded.  Raises ParseError with a
    1-based position for anything that is not well-formed.
    """
    builder = _TreeBuilder()
    parser = _expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    parser.ProcessingInstructionHandler = builder.pi
    parser.CommentHandler = builder.comment
    try:
        parser.Parse(xml_text, True)
    except _expat.ExpatError as exc:
        message = _expat.ErrorString(exc.code) or "not well-formed"
        if exc.code == _expat.errors.codes[_expat.errors.XML_ERROR_NO_ELEMENTS]:
            message += ": document root has to be an element node"
        raise ParseError(
            ParseDiagnostic(line=exc.lineno, column=exc.offset + 1, message=message)
        ) from None
    assert builder.root is not None
    return builder.root


class _TreeBuilder:
    """Accumulates expat events into an Element tree."""

    def __init__(self) -> None:
        self.root: Element | None = None
        self._stack: list[tuple[str, tuple[Attribute, ...], list[Node]]] = []

    def start(self, name: str, attrs: list[str]) -> None:
        pairs = tuple(Attribute(attrs[i], attrs[i + 1]) for i in range(0, len(attrs), 2))
        self._stack.append((name, pairs, []))

    def end(self, name: str) -> None:
        name, attrs, children = self._stack.pop()
        node = Element(name, attrs, tuple(children))
        if self._stack:
            self._stack[-1][2].append(node)
        else:
            self.root = node

    def data(self, content: str) -> None:
        if self._stack:
            self._stack[-1][2].append(Text(content))

    def pi(self, target: str, data: str) -> None:
        if self._stack:
            content = f"{target} {data}" if data else target
            self._stack[-1][2].append(PI(content))

    def comment(self, data: str) -> None:
        if self._stack:
            self._stack[-1][2].append(Comment(data))


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\t": "&#9;",
    "\n": "&#10;",
    "\r": "&#13;",
}


def _escape(value: str, table: dict[str, str]) -> str:
    for raw, ref in table.items():
        if raw in value:
            value = value.replace(raw, ref)
    return value


def serialize(node: Node, xml_declaration: bool = False) -> str:
    """Serialize a node to XML text.

    Empty elements collapse to <n/>, attributes are double-quoted in
    stored order, and special characters are escaped so that reparsing
    the output reproduces the node exactly.  A loop writes the tree,
    stacking each element's closing tag, so any depth works.
    """
    parts = [XML_DECLARATION] if xml_declaration else []
    stack: list[Node | str] = [node]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif type(node) is Text:
            parts.append(_escape(node.content, _TEXT_ESCAPES))
        elif type(node) is PI:
            parts.append(f"<?{node.content}?>")
        elif type(node) is Comment:
            parts.append(f"<!--{node.content}-->")
        else:
            parts.append(f"<{node.name}")
            for attr in node.attributes:
                parts.append(f' {attr.name}="{_escape(attr.value, _ATTR_ESCAPES)}"')
            parts.append(">" if node.children else "/>")
            if node.children:
                stack += (f"</{node.name}>", *reversed(node.children))
    return "".join(parts)
