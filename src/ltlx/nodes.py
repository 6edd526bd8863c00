"""XML documents as immutable trees.

A document is a tree of four node variants: elements (with named
attributes and an ordered hedge of children), text, processing
instructions, and comments.  Values are frozen after construction: each
class keeps its fields in `__slots__`, and assigning to one raises
AttributeError (see `values`).  They compare structurally at any depth
(an element's hash looks one level deep), so they can be shared freely,
and copy and pickle as the values they are, at any depth.
"""

from __future__ import annotations

from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DuplicateAttributeError
from .values import Value, slot_setters


def quoted(text: str) -> str:
    """`text` as a string literal of the rule syntax, which parses back to it."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


class Attribute(Value):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        if not name:
            raise ValueError("attribute name must be non-empty")
        _set_attribute_name(self, name)
        _set_attribute_value(self, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Attribute:
            return NotImplemented
        return self.name == other.name and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.name, self.value))

    def __reduce__(self):
        return Attribute, (self.name, self.value)

    def __repr__(self) -> str:
        return f"{self.name}={quoted(self.value)}"


_set_attribute_name, _set_attribute_value = slot_setters(Attribute)


class Element(Value):
    __slots__ = ("name", "attributes", "children")

    def __init__(
        self, name: str, attributes: tuple[Attribute, ...] = (), children: tuple[Node, ...] = ()
    ) -> None:
        if not name:
            raise ValueError("element name must be non-empty")
        _set_element_name(self, name)
        _set_element_attributes(self, attributes if type(attributes) is tuple else tuple(attributes))
        _set_element_children(self, children if type(children) is tuple else tuple(children))

    def __eq__(self, other: object) -> bool:
        return node_equal(self, other) if type(other) is Element else NotImplemented

    def __hash__(self) -> int:
        # Equal elements agree one level deep, so this is consistent with ==.
        return hash((self.name, self.attributes, len(self.children)))

    def __reduce__(self):
        # A flat post-order encoding, so that pickle never nests per level.
        return _unflatten, (_flatten(self),)

    def __copy__(self) -> "Element":
        return self  # a value: a shallow copy could not differ from it

    def __deepcopy__(self, memo: dict) -> "Element":
        """Distinct nodes equal to these, rebuilt on `rebuild`'s explicit
        stack.  A node met twice, here or earlier in the same deep copy,
        is copied once, as `memo` records."""

        def copied(node: Node, children: Sequence[Node] = ()) -> Node:
            if id(node) not in memo:
                memo[id(node)] = (
                    Element(node.name, node.attributes, tuple(children))
                    if type(node) is Element
                    else type(node)(node.content)
                )
            return memo[id(node)]

        return rebuild(self, copied, copied)

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


_set_element_name, _set_element_attributes, _set_element_children = slot_setters(Element)


class _Leaf(Value):
    """A text, processing-instruction or comment node: its content string."""

    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        _set_content(self, content)

    def __eq__(self, other: object) -> bool:
        return self.content == other.content if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.content,))

    def __reduce__(self):
        return type(self), (self.content,)


(_set_content,) = slot_setters(_Leaf)


class Text(_Leaf):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"text({quoted(self.content)})"


class PI(_Leaf):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"pi({quoted(self.content)})"


class Comment(_Leaf):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"comment({quoted(self.content)})"


Node = Union[Element, Text, PI, Comment]
Hedge = tuple[Node, ...]


def _flatten(node: Element) -> tuple:
    """The tree in post-order: each leaf as itself, each element as its
    (name, attributes, child count).  `rebuild` visits them in that order."""
    items: list = []
    rebuild(node, lambda e, children: items.append((e.name, e.attributes, len(children))), items.append)
    return tuple(items)


def _unflatten(items: tuple) -> Element:
    """The tree `_flatten` encoded, rebuilt by one loop."""
    built: list[Node] = []
    for item in items:
        if type(item) is tuple:
            name, attributes, count = item
            children = tuple(built[len(built) - count :])
            del built[len(built) - count :]
            built.append(Element(name, attributes, children))
        else:
            built.append(item)
    return built[0]


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
    What a callback returns for a child only reaches the parent's
    `element` call, so it may be a value other than a node.  A childless
    element is rebuilt as soon as it is met, which is also its place in
    post-order.  Returns what `node` rebuilds to.  Any depth works.
    """
    if type(node) is not Element:
        return leaf(node) if leaf else node
    # The open element, its children, the iterator over them and what they
    # rebuilt to stay in locals; `stack` holds those of its ancestors.
    stack = []
    e, kids = node, node.children
    pending, done = iter(kids), []
    while True:
        for child in pending:
            if type(child) is not Element:
                done.append(leaf(child) if leaf else child)
            elif child.children:
                stack.append((e, kids, pending, done))
                e, kids = child, child.children
                pending, done = iter(kids), []
                break
            else:  # childless: rebuilt at once, in its post-order place
                done.append(element(child, child.children))
        else:
            result = element(e, kids if all(map(is_, done, kids)) else done)
            if not stack:
                return result
            e, kids, pending, done = stack.pop()
            done.append(result)


def canonicalize(node: Node) -> Node:
    """Sort every element's attributes ascending by name, at every depth.

    Comparison is by Unicode code point; child order is untouched and the
    operation is idempotent.  An element carrying two attributes with the
    same name has no canonical form and raises DuplicateAttributeError.
    Runs on an explicit stack through `rebuild`.
    """
    return rebuild(node, _sort_attributes)


def unique_attributes(element: str, attributes: tuple[Attribute, ...]) -> tuple[Attribute, ...]:
    """`attributes` unchanged, or DuplicateAttributeError naming the first repeated name."""
    names = [a.name for a in attributes]
    if len(set(names)) < len(names):
        raise DuplicateAttributeError(element, next(n for i, n in enumerate(names) if n in names[:i]))
    return attributes


_name = attrgetter("name")


def _sort_attributes(e: Element, children: Sequence[Node]) -> Element:
    attributes = e.attributes
    if len(attributes) > 1:
        attributes = tuple(sorted(unique_attributes(e.name, attributes), key=_name))
    elif children is e.children:
        return e  # nothing to sort and nothing changed below
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
    yield node
    if type(node) is not Element:
        return
    stack = [iter(node.children)]
    while stack:
        for child in stack[-1]:
            yield child
            if type(child) is Element and child.children:
                stack.append(iter(child.children))
                break
        else:
            stack.pop()


def node_count(node: Node) -> int:
    """Total number of nodes in the subtree rooted at `node`."""
    return sum(1 for _ in document_order(node))
