"""A naive path evaluator, kept as a reference for `queryops.eval_path`.

Every step is spelled out below in terms of the node fields alone: a
recursive pre-order walk stands for `//`, `descendant` and `lvl`, and a
recursive comparison for node equality, so nothing here calls the
package's navigation operators, `document_order`, `node_equal` or its
step classes' `apply`.  Only the step classes themselves (the parsed
path) and the error type come from the package.

The stream is lazy item by item, as eval_path's is: a step's results for
one context node are worked out when the stream reaches that node, so
FIRST_ONLY and `#k` stop pulling where eval_path stops, and raise the
same errors.  It recurses once per level and per step, so keep documents
shallow.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from ltlx.errors import TypeMismatchError
from ltlx.nodes import PI, Comment, Element, Node, Text
from ltlx.queryops import (
    ALL_SOLUTIONS,
    FIRST_ONLY,
    AttrNameByValue,
    AttrValue,
    Children,
    ChildNamed,
    CountChildren,
    Descendants,
    DescendantOrSelfNamed,
    Index,
    LastChild,
    Lvl,
    PathExpr,
    PIValue,
    Step,
    TextValue,
)


def preorder(node: Node, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Node]]:
    """(index path from `node`, node) for every node under `node`, itself
    first, in document order."""
    found = [(path, node)]
    if isinstance(node, Element):
        for i, child in enumerate(node.children, start=1):
            found.extend(preorder(child, path + (i,)))
    return found


def same(a: Node, b: Node) -> bool:
    """Structural equality, attribute order included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Element):
        return (
            a.name == b.name
            and [(x.name, x.value) for x in a.attributes] == [(y.name, y.value) for y in b.attributes]
            and len(a.children) == len(b.children)
            and all(same(x, y) for x, y in zip(a.children, b.children))
        )
    return a.content == b.content


def _element(node: Node, op: str) -> Element:
    if not isinstance(node, Element):
        raise TypeMismatchError(f"{op} is only defined on elements, got {node!r}")
    return node


def step_results(step: Step, node: Node, coerce_text: bool, root: Node) -> list:
    """What one step gives for one context node."""
    is_element = isinstance(node, Element)
    if isinstance(step, ChildNamed):
        kids = _element(node, "/").children
        return [c for c in kids if isinstance(c, Element) and c.name == step.name]
    if isinstance(step, DescendantOrSelfNamed):
        subtree = [n for _, n in preorder(_element(node, "//"))]
        return [n for n in subtree if isinstance(n, Element) and step.name in (None, n.name)]
    if isinstance(step, AttrValue):
        values = [a.value for a in node.attributes if a.name == step.name] if is_element else []
        return values[:1]
    if isinstance(step, AttrNameByValue):
        return [a.name for a in node.attributes if a.value == step.value] if is_element else []
    if isinstance(step, TextValue):
        if isinstance(node, Text):
            return [node.content]
        if coerce_text and is_element:
            return [c.content for c in node.children if isinstance(c, Text)]
        return []
    if isinstance(step, PIValue):
        return [node.content] if isinstance(node, PI) else []
    if isinstance(step, Children):
        return list(_element(node, "child").children)
    if isinstance(step, Descendants):
        return [n for _, n in preorder(node)][1:]
    if isinstance(step, LastChild):
        return [node.children[-1]] if is_element and node.children else []
    if isinstance(step, CountChildren):
        return [len(node.children)] if is_element else []
    if isinstance(step, Lvl):
        return [path for path, n in preorder(_element(root, "lvl")) if same(n, node)]
    raise TypeError(f"unknown step {step!r}")


def _each(stream: Iterator, step: Step, position: int, coerce_text: bool, root: Node) -> Iterator:
    for item in stream:
        try:
            if not isinstance(item, (Element, Text, PI, Comment)):
                raise TypeMismatchError(f"needs a node, got {item!r}")
            results = step_results(step, item, coerce_text, root)
        except TypeMismatchError as exc:
            raise TypeMismatchError(f"step {position} ({step!r}): {exc}") from None
        yield from results


def _kth(stream: Iterator, k: int) -> Iterator:
    taken = list(islice(stream, k))
    if len(taken) == k:
        yield taken[-1]


def _run(stream: Iterator, steps: tuple[Step, ...], position: int, coerce_text: bool, root: Node) -> Iterator:
    if not steps:
        return stream
    step = steps[0]
    if isinstance(step, Index):
        stream = _kth(stream, step.k)
    else:
        stream = _each(stream, step, position, coerce_text, root)
    return _run(stream, steps[1:], position + 1, coerce_text, root)


def eval_path(
    ctx: Node,
    path: PathExpr,
    mode: str = ALL_SOLUTIONS,
    coerce_text: bool = True,
    root: Node | None = None,
) -> Iterator:
    """The results of `path` from `ctx`, as queryops.eval_path documents them."""
    stream = _run(iter([ctx]), path.steps, 1, coerce_text, ctx if root is None else root)
    return islice(stream, 1) if mode == FIRST_ONLY else stream
