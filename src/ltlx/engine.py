"""Executes rule sets over documents.

Each rule runs as one function compiled from it once per rule set (see
`compiler`), which matches the rule's head, solves its goals and builds
its output; an index offers a node only the rules whose heads can match
it, in source order.  What those functions call as they run lives here:
`_emit` for a template/2 goal, `_path_values` for a path that is not
inlined, and `_solve` for the goals of a rule that is not specialised.

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

from itertools import islice
from typing import Iterable, Iterator

from .errors import InstantiationError, ShapeError, TypeMismatchError, UnboundOutputError
from .nodes import NODE_TYPES, Element, Hedge, Node, Text
from .queryops import ALL_SOLUTIONS, FIRST_ONLY, PathExpr, Result, _coerced_text, eval_path
from .rules import Not, Rule, RuleSet, Transform, Unify
from .terms import Int, Seq, Str, Term, _resolve, _unify, _walk, is_ground, term_to_node
from .values import Value


def _emit(rs: RuleSet, node: Node, root: Node, out: list[Node]) -> None:
    """Append the output of `node` to `out`: the first rule that fires on
    it, else the default descent.  `root` is the document lvl reads.  The
    descent visits children from a stack of its own, so it costs no
    Python frame per level; only template/2 goals nest calls."""
    stack = [node]
    while stack:
        node = stack.pop()
        for _, run in rs.rules_for(node):
            if run(node, rs, root, out):
                break
        else:
            if isinstance(node, Element):
                stack += reversed(node.children)
            elif rs.default_copy_text and isinstance(node, Text):
                out.append(node)


def _interpret(output: tuple[Term, ...], theta: dict[str, Term], label: str) -> Hedge:
    try:
        return tuple([term_to_node(template, theta) for template in output])
    except UnboundOutputError as exc:
        raise UnboundOutputError(exc.variable, label) from None


def _bound_node(theta: dict[str, Term], term: Term, what: str) -> Node:
    """The node that `term` denotes under `theta`, for a transform start or
    a template/2 node."""
    term = _walk(term, theta)
    if isinstance(term, NODE_TYPES):
        return term
    grounded = _resolve(term, theta)
    if not is_ground(grounded):
        raise InstantiationError(f"{what} is not fully bound: {grounded!r}")
    try:
        return term_to_node(grounded)
    except ShapeError:
        raise TypeMismatchError(f"{what} is not a node: {grounded!r}") from None


def _values(result: Result) -> Iterable[Result]:
    """What one path result offers a transform goal under text coercion:
    an element stands for its direct text children."""
    return _coerced_text(result) if type(result) is Element else (result,)


def _path_values(node: Node, path: PathExpr, coerce: bool, root: Node) -> Iterator[Result]:
    """The raw values a transform goal whose path is not inlined offers."""
    results = eval_path(node, path, ALL_SOLUTIONS, coerce, root)
    return (value for result in results for value in _values(result)) if coerce else results


def _boxed(value: Result) -> Term:
    """The term a raw path value stands for."""
    kind = type(value)
    if kind is str:
        return Str(value)
    if kind is int:
        return Int(value)
    if kind is tuple:
        return Seq(tuple(Int(k) for k in value))
    return value


def _solve(
    rs: RuleSet, rule: Rule, theta: dict[str, Term], root: Node, out: list[Node] | None, goals: tuple = ()
) -> bool:
    """Solve `rule`'s goals, or `goals`, left to right from the bindings
    `theta`, and append the output hedge of each solution to `out`;
    whether there was a solution.  With `out` None, stop at the first.

    This textbook solver, on the term interpreter (`_unify`,
    `term_to_node`), runs every rule the compiler does not specialise.
    The bindings are triangular, as in a Prolog environment: a variable
    may be bound to a term holding variables that are bound too.  Each
    alternative extends its own copy of `theta`.  Every goal that binds
    unifies: an `=` goal its sides, a transform goal its result with each
    value its path offers (in first-solution mode the first only), and a
    template/2 goal its result with the hedge `_emit` makes for its node.
    not(g) succeeds exactly when g has no solution, and keeps none of g's
    bindings.  The stack holds, per goal reached, an iterator over its
    untried alternatives' bindings.  `_emit` is called from this frame,
    so a template/2 chain through a solved rule costs three frames a
    level: `_emit`, `run` and this one.
    """
    goals = goals or rule.goals
    fired, stack = False, [iter((theta,))]
    while stack:
        theta = next(stack[-1], None)
        if theta is None:
            stack.pop()
        elif len(stack) > len(goals):
            if out is None:
                return True
            out += _interpret(rule.output, theta, rule.label)
            fired = True
        else:
            goal = goals[len(stack) - 1]
            if isinstance(goal, Not):
                stack.append(iter(() if _solve(rs, rule, theta, root, None, (goal.inner,)) else (theta,)))
            elif isinstance(goal, Unify):
                stack.append(_extended(theta, goal.lhs, (goal.rhs,)))
            elif isinstance(goal, Transform):
                start = goal.path.start
                if start not in theta:
                    raise InstantiationError(f"transform path start {start or '(implicit)'} is unbound")
                node = _bound_node(theta, theta[start], f"transform path start {start}")
                values = _path_values(node, goal.path, rs.coerce_text, root)
                if rs.solution_mode == FIRST_ONLY:
                    values = islice(values, 1)
                stack.append(_extended(theta, goal.result, map(_boxed, values)))
            else:
                hedge: list[Node] = []
                _emit(rs, _bound_node(theta, goal.node, "template goal node"), root, hedge)
                stack.append(_extended(theta, goal.result, (Seq(hedge),)))
    return fired


def _extended(theta: dict[str, Term], term: Term, values: Iterable) -> Iterator[dict[str, Term]]:
    """A copy of `theta` extended by each of `values` that `term` unifies with."""
    for value in values:
        env = dict(theta)
        if _unify(term, value, env):
            yield env


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
