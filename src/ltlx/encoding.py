"""Injective rewriting of documents into element/text-only form.

Processing instructions and comments become text nodes whose content is
prefixed by a reserved sentinel character; each attribute becomes a
leading child element wrapping a sentinel-marked text node.  Inputs that
already contain a sentinel are rejected rather than escaped, which keeps
the encoding injective and the decoder unambiguous.

Default sentinels live in the Unicode private-use area so that ordinary
text (including Greek letters) never collides with them.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Sequence

from .errors import DecodeError, SentinelCollisionError
from .nodes import Attribute, Comment, Element, Node, PI, Text, document_order, rebuild
from .values import Value


class SentinelConfig(Value):
    """The three marker characters: PI prefix, comment prefix, attribute prefix."""

    __slots__ = ("pi_mark", "comment_mark", "attr_mark")

    def __init__(self, pi_mark: str = "", comment_mark: str = "", attr_mark: str = "") -> None:
        marks = (pi_mark, comment_mark, attr_mark)
        if any(len(m) != 1 for m in marks):
            raise ValueError("sentinels must be single characters")
        if len(set(marks)) != 3:
            raise ValueError("sentinels must be pairwise distinct")
        super().__init__(*marks)

    @property
    def marks(self) -> tuple[str, str, str]:
        return (self.pi_mark, self.comment_mark, self.attr_mark)


DEFAULT_SENTINELS = SentinelConfig()


def encode_core(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Rewrite `node` into an equivalent document of elements and text only.

    pi(t) becomes text(pi_mark + t), comment(t) becomes
    text(comment_mark + t), and every attribute name="v" becomes a child
    element(name, [], [text(attr_mark + v)]) inserted before the original
    children, in attribute order.  Raises SentinelCollisionError if any
    text or attribute value already contains a sentinel.  Runs on an
    explicit stack through `rebuild`.

    Equal attributes share one wrapper element, so the result holds one
    wrapper per distinct attribute; `is` says nothing about where a
    wrapper sits, so compare with `==`.  The table lives only as long as
    the call.
    """
    pi_mark, comment_mark, attr_mark = config.marks

    @cache
    def wrapper(a: Attribute) -> Element:
        if pi_mark in a.value or comment_mark in a.value or attr_mark in a.value:
            _raise_first_collision(node, config)
        return Element(a.name, (), (Text(attr_mark + a.value),))

    def leaf(n: Node) -> Node:
        content = n.content
        if pi_mark in content or comment_mark in content or attr_mark in content:
            _raise_first_collision(node, config)
        return n if type(n) is Text else Text((pi_mark if type(n) is PI else comment_mark) + content)

    def element(e: Element, children: Sequence[Node]) -> Node:
        if not e.attributes:
            return e if children is e.children else Element(e.name, (), tuple(children))
        return Element(e.name, (), (*map(wrapper, e.attributes), *children))

    return rebuild(node, element, leaf)


def _raise_first_collision(root: Node, config: SentinelConfig) -> None:
    """Raise SentinelCollisionError for the first sentinel in document order,
    an element's attributes before its children.  `steps` is the path to the
    node at hand, so only the location reported is spelled out."""
    steps: list[str] = []
    stack = [(root, 0, "")]
    while stack:
        node, depth, step = stack.pop()
        steps[depth:] = [step]
        if isinstance(node, Element):
            found = [(a.value, f"attribute {a.name}") for a in node.attributes]
            children = reversed(tuple(enumerate(node.children, 1)))
            stack.extend((child, depth + 1, f"{node.name}[{i}]/") for i, child in children)
        else:
            found = [(node.content, type(node).__name__.lower())]
        for content, what in found:
            for mark in (m for m in config.marks if m in content):
                raise SentinelCollisionError(mark, f"{what} at /{''.join(steps)}")


def decode_core(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Invert encode_core: decode_core(encode_core(x), s) == x.

    Only defined on images of encode_core; anything else (raw attributes,
    surviving pi/comment variants, stray attribute-marked text, attribute
    wrappers positioned after real children) raises DecodeError.  Runs on
    an explicit stack through `rebuild`, so of several faults the first
    one closed in post-order is reported.

    Equal decoded values and attributes are shared: one per distinct
    marked text and one Attribute per distinct name and value, so compare
    with `==`, not `is`.  The tables live only as long as the call.
    """
    # An attribute-marked text decodes to its value, a str, which the
    # wrapper around it reads.  So `children is e.children` means that
    # nothing under `e` decoded to anything else, and `e` stands for itself.
    decoded = {config.pi_mark: PI, config.comment_mark: Comment, config.attr_mark: str}
    attribute = cache(Attribute)

    @cache
    def value(content: str) -> Node | str:
        return decoded[content[0]](content[1:])

    def leaf(n: Node) -> Node | str:
        if type(n) is not Text:
            raise DecodeError(f"{type(n).__name__.lower()} node cannot appear in an encoded document")
        return value(n.content) if n.content[:1] in decoded else n

    def element(e: Element, children: Sequence[Node | Attribute | str]) -> Node | Attribute:
        if e.attributes:
            raise DecodeError(f"element {e.name!r} still carries raw attributes")
        if children is e.children:
            return e
        if len(children) == 1 and type(children[0]) is str:
            return attribute(e.name, children[0])  # a wrapper, read by its parent
        n = 0  # the leading children that decoded to attributes
        while n < len(children) and type(children[n]) is Attribute:
            n += 1
        for child in children[n:] if n else children:
            if type(child) is Attribute:
                raise DecodeError(f"attribute wrapper after real children of element {e.name!r}")
            if type(child) is str:
                raise DecodeError("attribute-marked text outside an attribute wrapper")
        return Element(e.name, tuple(children[:n]), tuple(children[n:]))

    result = rebuild(node, element, leaf)
    if type(result) is Attribute or type(result) is str:
        raise DecodeError("attribute-marked text outside an attribute wrapper")
    return result


def is_core(node: Node) -> bool:
    """True when the subtree contains only element and text variants."""
    return all(
        isinstance(n, Text) or (isinstance(n, Element) and not n.attributes)
        for n in document_order(node)
    )


def split_sentinel_text(node: Node, config: SentinelConfig = DEFAULT_SENTINELS) -> Node:
    """Re-split text nodes at sentinel boundaries after an XML round trip.

    Writing an encoded document out as XML merges adjacent text node
    siblings, losing the boundaries of the marked texts.  Since original
    content never contains a sentinel, every sentinel occurrence inside a
    merged run necessarily started its own marked node, so splitting
    there restores the encoding.  One case is unrecoverable from the
    textual form: plain text that immediately followed a marked node has
    been absorbed into it and stays there.  Runs on an explicit stack
    through `rebuild`.
    """
    if type(node) is not Element:
        return node
    pi_mark, comment_mark, attr_mark = config.marks
    parts = re.compile(f"(?s).[^{re.escape(''.join(config.marks))}]*").findall

    def leaf(n: Node) -> Node | tuple[Text, ...]:
        """A text that holds two marked runs or more, as the tuple of its parts."""
        if type(n) is not Text:
            return n
        content = n.content
        if pi_mark in content or comment_mark in content or attr_mark in content:
            texts = parts(content)
            if len(texts) > 1:
                return tuple(map(Text, texts))
        return n

    def element(e: Element, children: Sequence[Node | tuple[Text, ...]]) -> Node:
        if children is e.children:
            return e
        split: list[Node] = []
        for child in children:
            if type(child) is tuple:
                split.extend(child)
            else:
                split.append(child)
        return Element(e.name, e.attributes, tuple(split))

    return rebuild(node, element, leaf)
