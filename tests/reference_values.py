"""The node and term classes as frozen dataclasses, kept as an oracle.

These are the definitions `ltlx.nodes` and `ltlx.terms` used before the
value classes were written out by hand with `__slots__`, copied verbatim
together with the `node_equal` they compare elements with.
`test_values.py` checks that the hand-written classes give the same
`==`, `hash` and `repr` on every value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ltlx.nodes import quoted


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


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Anonymous:
    """One occurrence of the "_" wildcard; every occurrence is distinct."""

    id: int

    def __repr__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Atom:
    text: str

    def __repr__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Str:
    text: str

    def __repr__(self) -> str:
        return quoted(self.text)


@dataclass(frozen=True)
class Int:
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.functor:
            raise ValueError("compound functor must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        if self.functor == "=" and len(self.args) == 2:
            return f"{self.args[0]!r}={self.args[1]!r}"
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


@dataclass(frozen=True)
class Seq:
    """A bracketed sequence, modelling hedges and attribute lists."""

    items: tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        return "[" + ",".join(repr(i) for i in self.items) + "]"
