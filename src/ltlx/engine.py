"""Executes rule sets over documents.

Each rule runs as one function compiled from it once per rule set (see
`compiler`), which matches the rule's head, solves its goals and builds
its output; an index offers a node only the rules whose heads can match
it, in source order.  A template/2 goal calls back into `_emit`.

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

from .errors import TypeMismatchError
from .nodes import Element, Hedge, Node, Text
from .rules import RuleSet
from .values import Value


def _emit(rs: RuleSet, node: Node, root: Node, out: list[Node]) -> None:
    """Append the output of `node` to `out`: the first rule that fires on
    it, else the default descent.  `root` is the document lvl reads."""
    for _, run in rs.rules_for(node):
        if run(node, rs, root, out):
            return
    if isinstance(node, Element):
        for child in node.children:
            _emit(rs, child, root, out)
    elif rs.default_copy_text and isinstance(node, Text):
        out.append(node)


def apply_templates(rs: RuleSet, node: Node) -> Hedge:
    """Transform `node` under the rule set, returning the output hedge."""
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
