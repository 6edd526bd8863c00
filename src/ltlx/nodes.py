"""XML documents as immutable trees.

A document is a tree of four node variants: elements (with named
attributes and an ordered hedge of children), text, processing
instructions, and comments.  Values are frozen after construction and
compare structurally at any depth (an element's hash looks one level
deep), so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence, Union

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
        """The rule-syntax term, written by a loop that stacks each closing "])"."""
        parts: list[str] = []
        stack: list[Node | str] = [self]
        while stack:
            node = stack.pop()
            if type(node) is not Element:
                parts.append(node if type(node) is str else repr(node))
                continue
            parts.append(f"element({node.name},[{','.join(map(repr, node.attributes))}],[")
            stack.append("])")
            for i, child in enumerate(reversed(node.children)):
                stack.extend((",", child) if i else (child,))
        return "".join(parts)


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


# The leaf constructors under their rule-syntax names.
text, pi, comment = Text, PI, Comment


def rebuild(
    node: Node,
    element: Callable[[Element, Sequence[Node]], Node],
    leaf: Callable[[Node], Node] | None = None,
) -> Node:
    """Rebuild the tree rooted at `node` bottom-up, on an explicit stack.

    `leaf(n)` rebuilds each non-element (the identity when omitted), in
    document order.  `element(e, children)` rebuilds each element once
    `children` holds what its children rebuilt to; that is `e.children`
    itself when every child rebuilt to itself, so `e` can be returned.
    Returns what `node` rebuilds to.  Any depth works.
    """
    if type(node) is not Element:
        return leaf(node) if leaf else node
    stack = [(node, iter(node.children), [])]
    while True:
        e, pending, done = stack[-1]
        for child in pending:
            if type(child) is Element:
                stack.append((child, iter(child.children), []))
                break
            done.append(leaf(child) if leaf else child)
        else:
            stack.pop()
            result = element(e, e.children if all(map(is_, done, e.children)) else done)
            if not stack:
                return result
            stack[-1][2].append(result)


def canonicalize(node: Node) -> Node:
    """Sort every element's attributes ascending by name, at every depth.

    Comparison is by Unicode code point; child order is untouched and the
    operation is idempotent.  An element carrying two attributes with the
    same name has no canonical form and raises DuplicateAttributeError.
    Runs on an explicit stack through `rebuild`.
    """
    return rebuild(node, _sort_attributes)


def _sort_attributes(e: Element, children: Sequence[Node]) -> Element:
    names = [a.name for a in e.attributes]
    if len(set(names)) < len(names):
        raise DuplicateAttributeError(e.name, next(n for i, n in enumerate(names) if n in names[:i]))
    attributes = tuple(sorted(e.attributes, key=lambda a: a.name))
    if children is e.children and attributes == e.attributes:
        return e
    return Element(e.name, attributes, tuple(children))


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
