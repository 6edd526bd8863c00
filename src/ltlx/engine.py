"""Executes rule sets over documents.

Each rule runs as code compiled from it once per rule set (see
`compiler`): a head matcher, an output builder, and an index that offers
a node only the rules whose heads can match it, in source order.  Goals
stay interpreted: `=` goals unify, and the results of transform and
template/2 goals are matched by `_match`.

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

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import InstantiationError, ShapeError, TypeMismatchError, UnboundOutputError
from .nodes import Element, Hedge, Node, Text
from .queryops import ALL_SOLUTIONS, FIRST_ONLY, Result, _coerced_text, eval_path
from .rules import ApplyTemplates, Goal, Not, RuleSet, Transform, Unify
from .terms import Int, Seq, Str, Term, _match, _resolve, _unify, is_ground, term_to_node


def _result_to_term(result: Result) -> Term:
    if isinstance(result, str):
        return Str(result)
    if isinstance(result, int):
        return Int(result)
    if isinstance(result, tuple):
        return Seq(tuple(Int(k) for k in result))
    return result


def _bound_node(theta: dict[str, Term], term: Term, what: str) -> Node:
    grounded = _resolve(term, theta)
    if not is_ground(grounded):
        raise InstantiationError(f"{what} is not fully bound: {grounded!r}")
    try:
        return term_to_node(grounded)
    except ShapeError:
        raise TypeMismatchError(f"{what} is not a node: {grounded!r}") from None


def solve_goals(
    rs: RuleSet, goals: tuple[Goal, ...], theta: dict[str, Term], ctx: Node
) -> Iterator[dict[str, Term]]:
    """Solve a goal conjunction left to right, yielding extended bindings.

    The bindings are triangular, as in a Prolog environment: a variable
    may be bound to a term holding variables that are bound too, and a
    bound variable is looked up, never substituted.  Each alternative
    extends its own copy of theta.  Unification goals unify their two
    sides or fail; transform goals evaluate their path against the node
    bound to the start variable and match each result; template goals
    recurse into apply_templates on the bound node and match the produced
    hedge; not(g) succeeds exactly when g has no solution, discarding any
    bindings g would make.  `ctx` is the document the lvl step resolves
    index paths against.
    """
    if not goals:
        yield theta
        return
    goal, rest = goals[0], goals[1:]
    if isinstance(goal, Unify):
        env = dict(theta)
        if _unify(goal.lhs, goal.rhs, env):
            yield from solve_goals(rs, rest, env, ctx)
    elif isinstance(goal, Transform):
        start = goal.path.start
        if start is None or start not in theta:
            raise InstantiationError(
                f"transform path start {start or '(implicit)'} is unbound"
            )
        node = _bound_node(theta, theta[start], f"transform path start {start}")
        results = eval_path(
            node,
            goal.path,
            mode=ALL_SOLUTIONS,
            coerce_text=rs.coerce_text,
            root=ctx,
        )
        # An element result stands for its direct text children when coercion is on.
        values = (
            value
            for result in results
            for value in (
                _coerced_text(result)
                if rs.coerce_text and isinstance(result, Element)
                else (result,)
            )
        )
        if rs.solution_mode == FIRST_ONLY:
            values = islice(values, 1)
        for value in values:
            env = dict(theta)
            if _match(goal.result, _result_to_term(value), env):
                yield from solve_goals(rs, rest, env, ctx)
    elif isinstance(goal, ApplyTemplates):
        node = _bound_node(theta, goal.node, "template goal node")
        produced = Seq(tuple(_emit(rs, node, ctx)))
        env = dict(theta)
        if _match(goal.result, produced, env):
            yield from solve_goals(rs, rest, env, ctx)
    elif isinstance(goal, Not):
        for _ in solve_goals(rs, (goal.inner,), theta, ctx):
            return
        yield from solve_goals(rs, rest, theta, ctx)
    else:  # pragma: no cover - exhaustive over Goal
        raise TypeError(f"unknown goal {goal!r}")


def _emit(rs: RuleSet, node: Node, root: Node) -> Iterator[Node]:
    for rule, match, build in rs.rules_for(node):
        theta = match(node)
        if theta is None:
            continue
        fired = False
        for solution in solve_goals(rs, rule.goals, theta, root) if rule.goals else (theta,):
            fired = True
            try:
                hedge = build(solution)
            except UnboundOutputError as exc:
                raise UnboundOutputError(exc.variable, rule.label) from None
            yield from hedge
        if fired:
            return
    if isinstance(node, Element):
        for child in node.children:
            yield from _emit(rs, child, root)
    elif rs.default_copy_text and isinstance(node, Text):
        yield node


def apply_templates(rs: RuleSet, node: Node) -> Hedge:
    """Transform `node` under the rule set, returning the output hedge."""
    return tuple(_emit(rs, node, node))


@dataclass(frozen=True)
class TransformResult:
    """Output hedge plus whether it forms a well-formed document on its own."""

    nodes: Hedge
    well_formed: bool

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
