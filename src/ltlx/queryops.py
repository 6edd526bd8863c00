"""Query and manipulation operators over document nodes.

Navigation operators (/, //, @, id, #, ?, child, descendant, last,
count, lvl) are exposed both as standalone functions and as path steps
that chain into a path expression; each step class holds its syntax,
census and evaluation (see Step).  Failure of an operator is a normal
outcome: stream operators yield nothing and scalar operators return
None.  So the attribute steps @name and id(v) find nothing on a node
that is not an element, as the attribute axis of XPath 1.0 does.
Errors are reserved for type misuse, such as asking a text node for its
children.
"""

from __future__ import annotations

from itertools import islice
from typing import ClassVar, Iterable, Iterator, Union

from .errors import BadIndexPathError, TypeMismatchError
from .nodes import Comment, Element, Node, PI, Text, document_order, node_equal, quoted
from .values import Value

IndexPath = tuple[int, ...]
Result = Union[Node, str, int, IndexPath]

FIRST_ONLY = "first"
ALL_SOLUTIONS = "all"


# --- path steps -------------------------------------------------------------


class Step(Value):
    """One step of a path expression.

    `symbol` is the step's token in path syntax and its operator in the
    metrics census; `operand` is its census operand, or None.  A step
    that `yields_values` produces strings, integers or index paths
    instead of nodes, so only an Index may follow it.  `apply` returns
    the step's results for one context node; `root` is the document lvl
    computes index paths against.  Index alone selects from the whole
    incoming stream and has no `apply`.
    """

    __slots__ = ()
    symbol: ClassVar[str]
    yields_values: ClassVar[bool] = False
    operand: ClassVar[str | None] = None

    def apply(self, node: Node, coerce_text: bool, root: Node) -> Iterable[Result]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.symbol + (self.operand or "")


def _found(value: Result | None) -> tuple[Result, ...]:
    return () if value is None else (value,)


class ChildNamed(Step):
    __slots__ = ("name",)
    symbol = "/"
    operand = property(lambda self: self.name)

    def apply(self, node, coerce_text, root):
        return child_by_name(node, self.name)


class DescendantOrSelfNamed(Step):
    """Elements named `name` in the subtree including the context; None is the * wildcard."""

    __slots__ = ("name",)
    symbol = "//"
    operand = property(lambda self: self.name or "*")

    def apply(self, node, coerce_text, root):
        return descendant_or_self_by_name(node, self.name)


class AttrValue(Step):
    __slots__ = ("name",)
    symbol = "@"
    yields_values = True
    operand = property(lambda self: self.name)

    def apply(self, node, coerce_text, root):
        return _found(attr_value(node, self.name))


class AttrNameByValue(Step):
    __slots__ = ("value",)
    symbol = "id"
    yields_values = True
    operand = property(lambda self: self.value)

    def apply(self, node, coerce_text, root):
        return attr_name_by_value(node, self.value)

    def __repr__(self) -> str:
        return f"id({quoted(self.value)})"


class TextValue(Step):
    __slots__ = ()
    symbol = "#"
    yields_values = True

    def apply(self, node, coerce_text, root):
        return _coerced_text(node) if coerce_text else _found(text_value(node))


class PIValue(Step):
    __slots__ = ()
    symbol = "?"
    yields_values = True

    def apply(self, node, coerce_text, root):
        return _found(pi_value(node))


class Children(Step):
    __slots__ = ()
    symbol = "child"

    def apply(self, node, coerce_text, root):
        return children(node)


class Descendants(Step):
    __slots__ = ()
    symbol = "descendant"

    def apply(self, node, coerce_text, root):
        return descendants(node)


class LastChild(Step):
    __slots__ = ()
    symbol = "last"

    def apply(self, node, coerce_text, root):
        return _found(last_child(node))


class CountChildren(Step):
    __slots__ = ()
    symbol = "count"
    yields_values = True

    def apply(self, node, coerce_text, root):
        return _found(count_children(node))


class Lvl(Step):
    __slots__ = ()
    symbol = "lvl"
    yields_values = True

    def apply(self, node, coerce_text, root):
        return lvl(root, node)


class Index(Step):
    """Select the k-th item (1-based) of the incoming result stream."""

    __slots__ = ("k",)
    symbol = "#"
    operand = property(lambda self: str(self.k))

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("index selector is 1-based")
        super().__init__(k)


class PathExpr(Value):
    """A chain of steps; `start` names the variable holding the context node
    (None when the context is implicit, as in CLI queries).

    Steps that produce non-node values terminate the path; only an Index
    selector may follow them.  The repr is path syntax that parses back
    to an equal PathExpr.
    """

    __slots__ = ("start", "steps")

    def __init__(self, start: str | None, steps: tuple[Step, ...]) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("path expression needs at least one step")
        for before, after in zip(steps, steps[1:]):
            if before.yields_values and not isinstance(after, Index):
                raise ValueError(
                    f"step {after!r} cannot follow the value-producing step {before!r}"
                )
        super().__init__(start, steps)

    def __repr__(self) -> str:
        text = self.start or ""
        for step in self.steps:
            # A word step needs a space to part it from the token before it.
            text += f" {step!r}" if text and step.symbol.isalpha() else repr(step)
        return text


# --- navigation operators ---------------------------------------------------


def _require_element(node: Node, op: str) -> Element:
    if not isinstance(node, Element):
        raise TypeMismatchError(f"{op} is only defined on elements, got {node!r}")
    return node


def child_by_name(node: Node, name: str) -> Iterator[Element]:
    """Direct child elements named `name`, in child order."""
    e = _require_element(node, "/")
    for child in e.children:
        if isinstance(child, Element) and child.name == name:
            yield child


def descendant_or_self_by_name(node: Node, name: str | None) -> Iterator[Element]:
    """Elements named `name` in the subtree rooted at `node`, itself included,
    in document order; `name=None` matches every element."""
    _require_element(node, "//")
    if name is None or node.name == name:
        yield node
    # One iterator per open element; only elements are ever pushed.
    stack = [iter(node.children)]
    while stack:
        for child in stack[-1]:
            if type(child) is Element:
                if name is None or child.name == name:
                    yield child
                if child.children:
                    stack.append(iter(child.children))
                    break
        else:
            stack.pop()


def attr_value(node: Node, name: str) -> str | None:
    """Value of the attribute named `name`; None (failure) when absent or
    when `node` is not an element."""
    if isinstance(node, Element):
        for attr in node.attributes:
            if attr.name == name:
                return attr.value
    return None


def attr_name_by_value(node: Node, value: str) -> Iterator[str]:
    """Names of all attributes whose value equals `value`, in attribute
    order; none when `node` is not an element."""
    if isinstance(node, Element):
        for attr in node.attributes:
            if attr.value == value:
                yield attr.name


def text_value(node: Node) -> str | None:
    """Content of a text node; None on any other variant."""
    return node.content if isinstance(node, Text) else None


def pi_value(node: Node) -> str | None:
    """Content of a processing instruction; None on any other variant."""
    return node.content if isinstance(node, PI) else None


def children(node: Node) -> Iterator[Node]:
    """All children of every variant kind, in order."""
    e = _require_element(node, "child")
    yield from e.children


def descendants(node: Node) -> Iterator[Node]:
    """All proper descendants, document order; empty for leaves of any kind."""
    return islice(document_order(node), 1, None)


def last_child(node: Node) -> Node | None:
    """The final child; None when childless or not an element."""
    if isinstance(node, Element) and node.children:
        return node.children[-1]
    return None


def count_children(node: Node) -> int | None:
    """Number of children of an element; None on other variants."""
    return len(node.children) if isinstance(node, Element) else None


# --- index paths ------------------------------------------------------------


def follow_index_path(root: Node, path: Iterable[int]) -> Node:
    """Resolve a sequence of 1-based child indices from `root`."""
    node = root
    for i, k in enumerate(path):
        if not isinstance(node, Element):
            raise BadIndexPathError(f"index {k} descends into non-element at position {i}")
        if not 1 <= k <= len(node.children):
            raise BadIndexPathError(f"index {k} out of range at position {i}")
        node = node.children[k - 1]
    return node


def lvl(root: Node, target: Node) -> Iterator[IndexPath]:
    """Every index path leading from `root` to a node equal to `target`,
    in document order of the occurrences; [] when the root itself matches.
    One walk on an explicit stack, building an index path only for a match.

    An element is compared in full only when its name, attributes, child
    count and subtree size are the target's.  Subtrees of one size never
    nest, so those comparisons cover each node at most once and the walk
    stays linear even when the document and the target share their shape.
    """
    _require_element(root, "lvl")
    sizes: dict[int, int] = {}
    name = attributes = count = size = None  # for a leaf target, which no element equals
    if type(target) is Element:
        name, attributes, count = target.name, target.attributes, len(target.children)
        size = _size(target, sizes)
    path = [0]  # path[-1] counts the nodes taken so far from stack[-1]
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            path[-1] += 1
            if type(node) is not Element:
                if name is None and node_equal(node, target):
                    yield tuple(path[1:])
                continue
            if (
                node.name == name
                and node.attributes == attributes
                and len(node.children) == count
                and _size(node, sizes) == size
                and node_equal(node, target)
            ):
                yield tuple(path[1:])
            if node.children:
                stack.append(iter(node.children))
                path.append(0)
                break
        else:
            stack.pop()
            path.pop()


def _size(node: Element, sizes: dict[int, int]) -> int:
    """The number of nodes under `node`, itself included.  Fills `sizes`,
    keyed by id, for every element under it that lacks one; each element
    is counted once however often it is asked about.  Explicit stack."""
    if id(node) in sizes:
        return sizes[id(node)]
    stack = []  # the open ancestors of `e`, each with its iterator and count so far
    e, pending, size = node, iter(node.children), 1
    while True:
        for child in pending:
            if type(child) is not Element:
                size += 1
            elif id(child) in sizes:
                size += sizes[id(child)]
            else:
                stack.append((e, pending, size))
                e, pending, size = child, iter(child.children), 1
                break
        else:
            sizes[id(e)] = size
            if not stack:
                return size
            inner = size
            e, pending, size = stack.pop()
            size += inner


class Up(Value):
    __slots__ = ()

    def __repr__(self) -> str:
        return "up"


class Down(Value):
    __slots__ = ("index",)

    def __repr__(self) -> str:
        return f"down({self.index})"


Move = Union[Up, Down]
UP = Up()


def reachable(root: Node, u_path: Iterable[int], v_path: Iterable[int]) -> list[Move]:
    """A move sequence from the node at `u_path` to the node at `v_path`:
    ascend to the longest common prefix, then descend the remainder of
    `v_path`.  Both paths must be valid in `root`."""
    u = tuple(u_path)
    v = tuple(v_path)
    follow_index_path(root, u)
    follow_index_path(root, v)
    common = 0
    while common < len(u) and common < len(v) and u[common] == v[common]:
        common += 1
    moves: list[Move] = [UP] * (len(u) - common)
    moves.extend(Down(k) for k in v[common:])
    return moves


# --- one-step manipulation --------------------------------------------------


def copy(node: Node) -> Node:
    """The node itself; values are immutable, so identity is a deep copy."""
    return node


def copy_of(node: Node) -> Element:
    """Same name and attributes, children dropped."""
    e = _require_element(node, "copy_of")
    return Element(e.name, e.attributes, ())


def rem_el(node: Node, name: str) -> Element | None:
    """Remove the first child element named `name`; None when there is none."""
    e = _require_element(node, "rem_el")
    for i, child in enumerate(e.children):
        if isinstance(child, Element) and child.name == name:
            return Element(e.name, e.attributes, e.children[:i] + e.children[i + 1 :])
    return None


def rem(node: Node, child: Node) -> Element | None:
    """Remove the first child structurally equal to `child`; None when absent."""
    e = _require_element(node, "rem")
    for i, existing in enumerate(e.children):
        if existing == child:
            return Element(e.name, e.attributes, e.children[:i] + e.children[i + 1 :])
    return None


# --- path evaluation --------------------------------------------------------


def eval_path(
    ctx: Node,
    path: PathExpr,
    mode: str = ALL_SOLUTIONS,
    coerce_text: bool = True,
    root: Node | None = None,
) -> Iterator[Result]:
    """Apply the steps of `path` left to right, starting from `ctx`.

    Each step maps over the current result stream in order; Index(k)
    selects the k-th item of the incoming stream.  FIRST_ONLY truncates
    the final stream to its head, committing to the first alternative;
    ALL_SOLUTIONS yields every result.  An empty intermediate stream
    makes the whole path fail with an empty result.

    With `coerce_text` on (the default), the # step applied to an
    element drills into its direct text children instead of failing;
    with it off, # only accepts text nodes, and elements fall through as
    failures.  `root` is the document the lvl step computes index paths
    against; it defaults to `ctx`.
    """
    base = ctx if root is None else root
    stream: Iterator[Result] = iter((ctx,))
    for position, step in enumerate(path.steps, start=1):
        stream = _apply_step(stream, step, position, coerce_text, base)
    if mode == FIRST_ONLY:
        for item in stream:
            yield item
            return
    else:
        yield from stream


def _coerced_text(node: Node) -> Iterable[str]:
    if type(node) is Element:
        return [child.content for child in node.children if type(child) is Text]
    return _found(text_value(node))


def _apply_step(
    stream: Iterator[Result], step: Step, position: int, coerce_text: bool, root: Node
) -> Iterator[Result]:
    if isinstance(step, Index):
        for i, item in enumerate(stream, start=1):
            if i == step.k:
                yield item
                return
        return
    for item in stream:
        try:
            if not isinstance(item, (Element, Text, PI, Comment)):
                raise TypeMismatchError(f"needs a node, got {item!r}")
            yield from step.apply(item, coerce_text, root)
        except TypeMismatchError as exc:
            raise TypeMismatchError(f"step {position} ({step!r}): {exc}") from None
