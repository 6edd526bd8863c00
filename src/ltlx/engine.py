"""Executes rule sets over documents.

Each rule runs as one function compiled from it once per rule set (see
`compiler`), which matches the rule's head, solves its goals and builds
its output; an index offers a node only the rules whose heads can match
it, in source order.  What those functions call as they run lives here:
`_emit` for a template/2 goal and `_path_values` for a path that is not
inlined.

Traversal visits the document pre-order.  At each node, the first rule
whose head matches and whose goals succeed emits its output hedge, and
the node's subtree is not descended any further (the red cut; recursion
happens only through explicit template goals).  When no rule fires on an
element, its children are visited and their outputs concatenated; an
unmatched non-element node emits nothing.  Matching then continues with
the siblings of the matched node.

In the default first-solution mode a transform goal commits to the
first result of its path.  That is the only choice point a goal has, so
a fired rule then has exactly one solution of its goal conjunction.  In
all-solutions mode the first matching rule still wins, but every
solution of its goals is enumerated and their output hedges are
concatenated, with transform goals offering each path result as an
alternative on backtracking.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import TypeMismatchError
from .nodes import Element, Hedge, Node, Text
from .queryops import ALL_SOLUTIONS, PathExpr, Result, _coerced_text, eval_path
from .rules import RuleSet
from .values import Value


def _emit(rs: RuleSet, node: Node, root: Node, out: list[Node]) -> None:
    """Append the output of `node` to `out`: the first rule that fires on
    it, else the default descent.  `root` is the document lvl reads.  The
    descent visits children from a stack of its own, so it costs no
    Python frame per level; only template/2 goals nest calls.  A node
    meets only the rules whose heads can match it (`compiler.index_rules`)."""
    index = rs._compiled[0]
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) is Element:
            compiled = index.get(node.name) or index[Element]
        else:
            compiled = index.get(type(node)) or index[None]
        for _, run in compiled:
            if run(node, rs, root, out):
                break
        else:
            if isinstance(node, Element):
                stack += reversed(node.children)
            elif rs.default_copy_text and isinstance(node, Text):
                out.append(node)


def _values(result: Result) -> Iterable[Result]:
    """What one path result offers a transform goal under text coercion:
    an element stands for its direct text children."""
    return _coerced_text(result) if type(result) is Element else (result,)


def _path_values(node: Node, path: PathExpr, coerce: bool, root: Node) -> Iterator[Result]:
    """The raw values a transform goal whose path is not inlined offers."""
    results = eval_path(node, path, ALL_SOLUTIONS, coerce, root)
    return (value for result in results for value in _values(result)) if coerce else results


def apply_templates(rs: RuleSet, node: Node) -> Hedge:
    """Transform `node` under the rule set, returning the output hedge."""
    if not rs._compiled:  # the rule set's first transform compiles its rules
        from .compiler import index_rules

        rs._compiled.append(index_rules(rs.rules, rs.solution_mode, rs.coerce_text))
    out: list[Node] = []
    _emit(rs, node, node, out)
    return tuple(out)


class TransformResult(Value):
    """Output hedge plus whether it forms a well-formed document on its own."""

    __slots__ = ("nodes", "well_formed")

    @property
    def root(self) -> Node | None:
        return self.nodes[0] if self.well_formed else None


def transform_document(rs: RuleSet, doc: Node) -> TransformResult:
    """Run apply_templates on a parsed root element.

    The result is well-formed exactly when the output hedge is a single
    element; any other hedge (empty, multiple nodes, or a non-element) is
    still returned, flagged as not well-formed.
    """
    if not isinstance(doc, Element):
        raise TypeMismatchError("transformation input must be a root element")
    hedge = apply_templates(rs, doc)
    well_formed = len(hedge) == 1 and isinstance(hedge[0], Element)
    return TransformResult(hedge, well_formed)
