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
from typing import Callable

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
    root: list[Element] = []
    parser = _expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    (
        parser.StartElementHandler,
        parser.EndElementHandler,
        parser.CharacterDataHandler,
        parser.ProcessingInstructionHandler,
        parser.CommentHandler,
    ) = _tree_builder(root)
    try:
        parser.Parse(xml_text, True)
    except _expat.ExpatError as exc:
        message = _expat.ErrorString(exc.code) or "not well-formed"
        if exc.code == _expat.errors.codes[_expat.errors.XML_ERROR_NO_ELEMENTS]:
            message += ": document root has to be an element node"
        raise ParseError(
            ParseDiagnostic(line=exc.lineno, column=exc.offset + 1, message=message)
        ) from None
    return root[0]


def _tree_builder(root: list[Element]) -> tuple[Callable, ...]:
    """The five expat handlers that build the tree and append its root
    element to `root`.  They are closures over the stack of open elements
    and the children list of the innermost one, so an event costs no
    attribute lookups; an element without attributes gets ()."""
    stack: list[tuple[str, tuple[Attribute, ...], list[Node]]] = []
    push, pop = stack.append, stack.pop
    children: list[Node] = root  # type: ignore[assignment]

    def start(name: str, attrs: list[str]) -> None:
        nonlocal children
        push((name, tuple(map(Attribute, attrs[::2], attrs[1::2])) if attrs else (), children))
        children = []

    def end(name: str) -> None:
        nonlocal children
        name, attributes, parent = pop()
        parent.append(Element(name, attributes, tuple(children)))
        children = parent

    def data(content: str) -> None:
        if stack:
            children.append(Text(content))

    def pi(target: str, data: str) -> None:
        if stack:
            children.append(PI(f"{target} {data}" if data else target))

    def comment(data: str) -> None:
        if stack:
            children.append(Comment(data))

    return start, end, data, pi, comment


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
