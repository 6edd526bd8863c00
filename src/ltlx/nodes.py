"""XML documents as immutable trees.

A document is a tree of four node variants: elements (with named
attributes and an ordered hedge of children), text, processing
instructions, and comments.  Values are frozen after construction and
compare structurally at any depth (an element's hash looks one level
deep), so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import DuplicateAttributeError


def quoted(text: str) -> str:
    """`text` as a string literal of the rule syntax, which parses back to it."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


@dataclass(frozen=True)
class Attribute:
    name: str
    value: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")

    def __repr__(self) -> str:
        return f"{self.name}={quoted(self.value)}"


@dataclass(frozen=True, eq=False)
class Element:
    name: str
    attributes: tuple[Attribute, ...] = ()
    children: tuple["Node", ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("element name must be non-empty")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "children", tuple(self.children))

    def __eq__(self, other: object) -> bool:
        return node_equal(self, other) if isinstance(other, Element) else NotImplemented

    def __hash__(self) -> int:
        # Equal elements agree one level deep, so this is consistent with ==.
        return hash((self.name, self.attributes, len(self.children)))

    def __repr__(self) -> str:
        attrs = ",".join(repr(a) for a in self.attributes)
        kids = ",".join(repr(c) for c in self.children)
        return f"element({self.name},[{attrs}],[{kids}])"


@dataclass(frozen=True)
class Text:
    content: str

    def __repr__(self) -> str:
        return f"text({quoted(self.content)})"


@dataclass(frozen=True)
class PI:
    content: str

    def __repr__(self) -> str:
        return f"pi({quoted(self.content)})"


@dataclass(frozen=True)
class Comment:
    content: str

    def __repr__(self) -> str:
        return f"comment({quoted(self.content)})"


Node = Union[Element, Text, PI, Comment]
Hedge = tuple[Node, ...]


def element(
    name: str,
    attributes: Iterable[Attribute | tuple[str, str]] = (),
    children: Iterable[Node] = (),
) -> Element:
    """Build an Element, accepting (name, value) pairs for attributes."""
    attrs = tuple(
        a if isinstance(a, Attribute) else Attribute(a[0], a[1]) for a in attributes
    )
    return Element(name, attrs, tuple(children))


def text(content: str) -> Text:
    return Text(content)


def pi(content: str) -> PI:
    return PI(content)


def comment(content: str) -> Comment:
    return Comment(content)


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


def node_equal(a: Node, b: Node) -> bool:
    """Structural equality: same variant, name, attribute sequence and children.

    Attribute order matters; canonicalize both sides first for
    order-insensitive comparison.  Runs on an explicit stack, so deep
    trees compare without recursion, and a shared subtree compares equal
    to itself without being walked.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is Element:
            if (
                a.name != b.name
                or a.attributes != b.attributes
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        elif a.content != b.content:
            return False
    return True


def document_order(node: Node) -> Iterator[Node]:
    """Pre-order enumeration of the subtree rooted at `node`, starting with it.

    Runs on an explicit stack, so any depth works and each node costs the
    same however deep it sits.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(reversed(node.children))


def node_count(node: Node) -> int:
    """Total number of nodes in the subtree rooted at `node`."""
    return sum(1 for _ in document_order(node))
