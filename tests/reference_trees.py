"""The recursive document rewrites, kept as a reference for the rebuild loop.

These are `canonicalize`, `encode_core`, `decode_core`,
`split_sentinel_text` and `serialize` as they stood before each became a
callback over `ltlx.nodes.rebuild` or an explicit-stack loop.  The
function bodies below are verbatim, with the helpers they call
(`_check_clean`, `_encode`, `_as_attribute_wrapper`, `_write`) and the
escape tables and `_escape` that `serialize` used then; only the imports
are local.  tests/test_rebuild.py runs them and the current
functions on the same trees and requires the same output, or the same
exception type and message, apart from the differences that file pins.
They recurse once per level, so keep their inputs shallow.
"""

from __future__ import annotations

import re

from ltlx.encoding import DEFAULT_SENTINELS, SentinelConfig
from ltlx.errors import DecodeError, DuplicateAttributeError, SentinelCollisionError
from ltlx.nodes import Attribute, Comment, Element, Node, PI, Text
from ltlx.xmlio import XML_DECLARATION

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


def canonicalize(node: Node) -> Node:
    """Sort every element's attributes ascending by name, recursively.

    Comparison is by Unicode code point; child order is untouched and the
    operation is idempotent.  An element carrying two attributes with the
    same name has no canonical form and raises DuplicateAttributeError.
    """
    if not isinstance(node, Element):
        return node
    seen: set[str] = set()
    for attr in node.attributes:
        if attr.name in seen:
            raise DuplicateAttributeError(node.name, attr.name)
        seen.add(attr.name)
    return Element(
        node.name,
        tuple(sorted(node.attributes, key=lambda a: a.name)),
        tuple(canonicalize(c) for c in node.children),
    )


def _check_clean(content: str, config: SentinelConfig, location: str) -> None:
    for mark in config.marks:
        if mark in content:
            raise SentinelCollisionError(mark, location)


def encode_core(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Rewrite `node` into an equivalent document of elements and text only.

    pi(t) becomes text(pi_mark + t), comment(t) becomes
    text(comment_mark + t), and every attribute name="v" becomes a child
    element(name, [], [text(attr_mark + v)]) inserted before the original
    children, in attribute order.  Raises SentinelCollisionError if any
    text or attribute value already contains a sentinel.
    """
    return _encode(node, config, "/")


def _encode(node: Node, config: SentinelConfig, location: str) -> Node:
    if isinstance(node, Text):
        _check_clean(node.content, config, f"text at {location}")
        return node
    if isinstance(node, PI):
        _check_clean(node.content, config, f"pi at {location}")
        return Text(config.pi_mark + node.content)
    if isinstance(node, Comment):
        _check_clean(node.content, config, f"comment at {location}")
        return Text(config.comment_mark + node.content)
    wrapped = []
    for attr in node.attributes:
        _check_clean(attr.value, config, f"attribute {attr.name} at {location}")
        wrapped.append(Element(attr.name, (), (Text(config.attr_mark + attr.value),)))
    encoded = [
        _encode(child, config, f"{location}{node.name}[{i + 1}]/")
        for i, child in enumerate(node.children)
    ]
    return Element(node.name, (), tuple(wrapped) + tuple(encoded))


def _as_attribute_wrapper(node: Node, config: SentinelConfig) -> tuple[str, str] | None:
    """Return (name, value) when `node` is an encoded attribute, else None."""
    if (
        isinstance(node, Element)
        and not node.attributes
        and len(node.children) == 1
        and isinstance(node.children[0], Text)
        and node.children[0].content.startswith(config.attr_mark)
    ):
        return node.name, node.children[0].content[1:]
    return None


def decode_core(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Invert encode_core: decode_core(encode_core(x), s) == x.

    Only defined on images of encode_core; anything else (raw attributes,
    surviving pi/comment variants, stray attribute-marked text, attribute
    wrappers positioned after real children) raises DecodeError.
    """
    if isinstance(node, Text):
        content = node.content
        if content.startswith(config.pi_mark):
            return PI(content[1:])
        if content.startswith(config.comment_mark):
            return Comment(content[1:])
        if content.startswith(config.attr_mark):
            raise DecodeError("attribute-marked text outside an attribute wrapper")
        return node
    if not isinstance(node, Element):
        raise DecodeError(f"{type(node).__name__.lower()} node cannot appear in an encoded document")
    if node.attributes:
        raise DecodeError(f"element {node.name!r} still carries raw attributes")
    attrs: list[Attribute] = []
    rest = list(node.children)
    while rest:
        pair = _as_attribute_wrapper(rest[0], config)
        if pair is None:
            break
        attrs.append(Attribute(*pair))
        rest.pop(0)
    children = []
    for child in rest:
        if _as_attribute_wrapper(child, config) is not None:
            raise DecodeError(
                f"attribute wrapper after real children of element {node.name!r}"
            )
        children.append(decode_core(child, config))
    return Element(node.name, tuple(attrs), tuple(children))


def split_sentinel_text(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Re-split text nodes at sentinel boundaries after an XML round trip.

    Writing an encoded document out as XML merges adjacent text node
    siblings, losing the boundaries of the marked texts.  Since original
    content never contains a sentinel, every sentinel occurrence inside a
    merged run necessarily started its own marked node, so splitting
    there restores the encoding.  One case is unrecoverable from the
    textual form: plain text that immediately followed a marked node has
    been absorbed into it and stays there.
    """
    parts = re.compile(f"(?s).[^{re.escape(''.join(config.marks))}]*").findall

    def split(node: Node) -> Node:
        if not isinstance(node, Element):
            return node
        children: list[Node] = []
        for child in node.children:
            if isinstance(child, Text):
                children.extend(Text(part) for part in parts(child.content) or [""])
            else:
                children.append(split(child))
        return Element(node.name, node.attributes, tuple(children))

    return split(node)


def serialize(node: Node, xml_declaration: bool = False) -> str:
    """Serialize a node to XML text.

    Empty elements collapse to <n/>, attributes are double-quoted in
    stored order, and special characters are escaped so that reparsing
    the output reproduces the node exactly.
    """
    parts: list[str] = []
    if xml_declaration:
        parts.append(XML_DECLARATION)
    _write(node, parts)
    return "".join(parts)


def _write(node: Node, parts: list[str]) -> None:
    if isinstance(node, Text):
        parts.append(_escape(node.content, _TEXT_ESCAPES))
    elif isinstance(node, PI):
        parts.append(f"<?{node.content}?>")
    elif isinstance(node, Comment):
        parts.append(f"<!--{node.content}-->")
    else:
        parts.append(f"<{node.name}")
        for attr in node.attributes:
            parts.append(f' {attr.name}="{_escape(attr.value, _ATTR_ESCAPES)}"')
        if not node.children:
            parts.append("/>")
            return
        parts.append(">")
        for child in node.children:
            _write(child, parts)
        parts.append(f"</{node.name}>")
