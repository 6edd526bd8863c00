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
    attribute lookups; an element without attributes gets ().

    Expat may report one run of character data in several pieces (it
    flushes its buffer every 8192 characters), so the pieces are kept in
    `texts` and become one text node when the next other event arrives:
    a text node never has a text sibling, as in the XPath data model.
    """
    stack: list[tuple[str, tuple[Attribute, ...], list[Node]]] = []
    push, pop = stack.append, stack.pop
    children: list[Node] = root  # type: ignore[assignment]
    texts: list[str] = []

    def flush() -> None:
        children.append(Text("".join(texts)))
        texts.clear()

    def start(name: str, attrs: list[str]) -> None:
        nonlocal children
        if texts:
            flush()
        push((name, tuple(map(Attribute, attrs[::2], attrs[1::2])) if attrs else (), children))
        children = []

    def end(name: str) -> None:
        nonlocal children
        if texts:
            flush()
        name, attributes, parent = pop()
        parent.append(Element(name, attributes, tuple(children)))
        children = parent

    def data(content: str) -> None:
        if stack:
            texts.append(content)

    def pi(target: str, data: str) -> None:
        if stack:
            if texts:
                flush()
            children.append(PI(f"{target} {data}" if data else target))

    def comment(data: str) -> None:
        if stack:
            if texts:
                flush()
            children.append(Comment(data))

    return start, end, data, pi, comment


def _escape_text(text: str) -> str:
    """`text` with each character that would not read back as itself as a reference."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def _escape_attribute(value: str) -> str:
    """`value` escaped as text, and its quotes, tabs and newlines as references too."""
    value = _escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    if "\t" in value:
        value = value.replace("\t", "&#9;")
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    return value


def serialize(node: Node, xml_declaration: bool = False) -> str:
    """Serialize a node to XML text.

    Empty elements collapse to <n/>, attributes are double-quoted in
    stored order, and special characters are escaped so that reparsing
    the output reproduces the node exactly.  A loop writes the tree,
    stacking each element's closing tag, so any depth works; an element
    whose only child is a text is written in one piece.
    """
    parts = [XML_DECLARATION] if xml_declaration else []
    write = parts.append
    stack: list[Node | str] = [node]
    pop = stack.pop
    while stack:
        node = pop()
        kind = type(node)
        if kind is str:
            write(node)
        elif kind is Element:
            name, kids = node.name, node.children
            tag = f"<{name}"
            if node.attributes:
                tag += "".join([f' {a.name}="{_escape_attribute(a.value)}"' for a in node.attributes])
            if not kids:
                write(tag + "/>")
            elif len(kids) == 1 and type(kids[0]) is Text:
                write(f"{tag}>{_escape_text(kids[0].content)}</{name}>")
            else:
                write(tag + ">")
                stack.append(f"</{name}>")
                stack.extend(reversed(kids))
        elif kind is Text:
            write(_escape_text(node.content))
        elif kind is PI:
            write(f"<?{node.content}?>")
        else:
            write(f"<!--{node.content}-->")
    return "".join(parts)
