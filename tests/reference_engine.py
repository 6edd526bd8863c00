"""The term-based matcher, kept as a reference for the engine.

This is the matching path as it stood before document nodes became
ground terms: every match converts the node's whole subtree with
node_to_term, renames the head's wildcards to fresh variables, unifies
with the occurs check, and converts every output term back with
term_to_node.  The code below is that path verbatim; only the imports,
the fresh-name counter and `compose` are local.  Paths are evaluated by
the naive evaluator in reference_paths.py, not by the package's
`eval_path`, so a fault in a path step shows here too.  The tests in
tests/test_reference_engine.py run the engine and this oracle on the
same documents and rule sets and require the same output, or the same
exception type.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ltlx.errors import InstantiationError, ShapeError, TypeMismatchError, UnboundOutputError
from ltlx.nodes import Attribute, Comment, Element, Hedge, Node, PI, Text
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY, Result
from ltlx.rules import ApplyTemplates, Goal, Not, Rule, RuleSet, Transform, Unify
from ltlx.terms import (
    Anonymous,
    Atom,
    Compound,
    Int,
    Seq,
    Str,
    Term,
    Var,
    apply_subst,
    is_ground,
)

from reference_paths import eval_path

_anon_ids = itertools.count(1)
_FRESH_PREFIX = "_G"


def _rename_wildcards(term: Term) -> Term:
    """Give every wildcard occurrence a fresh internal variable name."""
    if isinstance(term, Anonymous):
        return Var(f"{_FRESH_PREFIX}{next(_anon_ids)}")
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rename_wildcards(a) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(_rename_wildcards(i) for i in term.items))
    return term


def _walk(term: Term, bindings: dict[str, Term]) -> Term:
    while isinstance(term, Var) and term.name in bindings:
        term = bindings[term.name]
    return term


def _occurs(name: str, term: Term, bindings: dict[str, Term]) -> bool:
    term = _walk(term, bindings)
    if isinstance(term, Var):
        return term.name == name
    if isinstance(term, Compound):
        return any(_occurs(name, a, bindings) for a in term.args)
    if isinstance(term, Seq):
        return any(_occurs(name, i, bindings) for i in term.items)
    return False


def _unify(a: Term, b: Term, bindings: dict[str, Term]) -> bool:
    a = _walk(a, bindings)
    b = _walk(b, bindings)
    if isinstance(a, Var):
        if isinstance(b, Var) and b.name == a.name:
            return True
        if _occurs(a.name, b, bindings):
            return False
        bindings[a.name] = b
        return True
    if isinstance(b, Var):
        if _occurs(b.name, a, bindings):
            return False
        bindings[b.name] = a
        return True
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a.text == b.text
    if isinstance(a, Str) and isinstance(b, Str):
        return a.text == b.text
    if isinstance(a, Int) and isinstance(b, Int):
        return a.value == b.value
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        return all(_unify(x, y, bindings) for x, y in zip(a.args, b.args))
    if isinstance(a, Seq) and isinstance(b, Seq):
        if len(a.items) != len(b.items):
            return False
        return all(_unify(x, y, bindings) for x, y in zip(a.items, b.items))
    return False


def _resolve(term: Term, bindings: dict[str, Term]) -> Term:
    term = _walk(term, bindings)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_resolve(a, bindings) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(_resolve(i, bindings) for i in term.items))
    return term


def unify(a: Term, b: Term) -> dict[str, Term] | None:
    """Most-general unifier of `a` and `b`, or None when none exists.

    Runs with the occurs check on, so unify(X, f(X)) fails.  Sequences
    unify element-wise and only at equal length; there is no splicing of
    partial hedges.  Wildcard occurrences match anything and leave no
    binding in the result.
    """
    bindings: dict[str, Term] = {}
    if not _unify(_rename_wildcards(a), _rename_wildcards(b), bindings):
        return None
    solved = {
        name: _resolve(term, bindings)
        for name, term in bindings.items()
        if not name.startswith(_FRESH_PREFIX)
    }
    return solved


def compose(theta: dict[str, Term], delta: dict[str, Term]) -> dict[str, Term]:
    """The bindings equivalent to applying theta, then delta."""
    merged = {name: apply_subst(delta, term) for name, term in theta.items()}
    for name, term in delta.items():
        merged.setdefault(name, term)
    return merged


def node_to_term(node: Node) -> Term:
    """Embed a document node as a ground term.

    element(n, attrs, children) maps to the compound
    element(n, [name="value", ...], [child terms]); text/pi/comment wrap
    their content in a string literal.
    """
    if isinstance(node, Text):
        return Compound("text", (Str(node.content),))
    if isinstance(node, PI):
        return Compound("pi", (Str(node.content),))
    if isinstance(node, Comment):
        return Compound("comment", (Str(node.content),))
    attrs = Seq(
        tuple(
            Compound("=", (Atom(a.name), Str(a.value))) for a in node.attributes
        )
    )
    children = Seq(tuple(node_to_term(c) for c in node.children))
    return Compound("element", (Atom(node.name), attrs, children))


_LEAF_FUNCTORS = {"text": Text, "pi": PI, "comment": Comment}


def term_to_node(term: Term) -> Node:
    """Convert a ground, node-shaped term back into a node.

    Raises UnboundOutputError naming the variable when the term still
    contains one, and ShapeError when the term is not node-shaped.
    """
    if isinstance(term, Var):
        raise UnboundOutputError(term.name)
    if isinstance(term, Anonymous):
        raise UnboundOutputError("_")
    if not isinstance(term, Compound):
        raise ShapeError(f"not a node term: {term!r}")
    leaf = _LEAF_FUNCTORS.get(term.functor)
    if leaf is not None:
        if len(term.args) != 1:
            raise ShapeError(f"{term.functor} takes one argument: {term!r}")
        arg = term.args[0]
        if isinstance(arg, (Var, Anonymous)):
            raise UnboundOutputError(repr(arg))
        if not isinstance(arg, Str):
            raise ShapeError(f"{term.functor} content must be a string: {term!r}")
        return leaf(arg.text)
    if term.functor != "element" or len(term.args) != 3:
        raise ShapeError(f"not a node term: {term!r}")
    name, attrs, children = term.args
    if isinstance(name, (Var, Anonymous)):
        raise UnboundOutputError(repr(name))
    if not isinstance(name, Atom):
        raise ShapeError(f"element name must be an atom: {term!r}")
    return Element(
        name.text,
        tuple(_term_to_attribute(a) for a in _seq_items(attrs, term)),
        tuple(term_to_node(c) for c in _seq_items(children, term)),
    )


def _seq_items(term: Term, context: Term) -> tuple[Term, ...]:
    if isinstance(term, (Var, Anonymous)):
        raise UnboundOutputError(repr(term))
    if not isinstance(term, Seq):
        raise ShapeError(f"expected a sequence in {context!r}")
    return term.items


def _term_to_attribute(term: Term) -> Attribute:
    if isinstance(term, (Var, Anonymous)):
        raise UnboundOutputError(repr(term))
    if isinstance(term, Compound) and term.functor == "=" and len(term.args) == 2:
        name, value = term.args
        for arg in (name, value):
            if isinstance(arg, (Var, Anonymous)):
                raise UnboundOutputError(repr(arg))
        if isinstance(name, Atom) and isinstance(value, Str):
            return Attribute(name.text, value.text)
    raise ShapeError(f"not an attribute term: {term!r}")


def _result_to_term(result: Result) -> Term:
    if isinstance(result, str):
        return Str(result)
    if isinstance(result, int):
        return Int(result)
    if isinstance(result, tuple):
        return Seq(tuple(Int(k) for k in result))
    return node_to_term(result)


def _coerce_transform_result(result: Result, enabled: bool) -> Iterator[Result]:
    """An element result stands for its direct text children when coercion is on."""
    if enabled and isinstance(result, Element):
        for child in result.children:
            if isinstance(child, Text):
                yield child.content
    else:
        yield result


def _bound_node(theta: dict[str, Term], term: Term, what: str) -> Node:
    grounded = apply_subst(theta, term)
    if not is_ground(grounded):
        raise InstantiationError(f"{what} is not fully bound: {grounded!r}")
    try:
        return term_to_node(grounded)
    except ShapeError:
        raise TypeMismatchError(f"{what} is not a node: {grounded!r}") from None


def solve_goals(
    rs: RuleSet, goals: tuple[Goal, ...], theta: dict[str, Term], ctx: Node
) -> Iterator[dict[str, Term]]:
    """Solve a goal conjunction left to right, yielding extended substitutions.

    Unification goals extend the substitution or fail; transform goals
    evaluate their path against the node bound to the start variable;
    template goals recurse into apply_templates on the bound node and
    unify the produced hedge; not(g) succeeds exactly when g has no
    solution, discarding any bindings g would make.  `ctx` is the
    document the lvl step resolves index paths against.
    """
    if not goals:
        yield theta
        return
    goal, rest = goals[0], goals[1:]
    if isinstance(goal, Unify):
        delta = unify(apply_subst(theta, goal.lhs), apply_subst(theta, goal.rhs))
        if delta is not None:
            yield from solve_goals(rs, rest, compose(theta, delta), ctx)
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
        flattened = (
            value
            for result in results
            for value in _coerce_transform_result(result, rs.coerce_text)
        )
        if rs.solution_mode == FIRST_ONLY:
            first = next(flattened, None)
            if first is None:
                return
            delta = unify(apply_subst(theta, goal.result), _result_to_term(first))
            if delta is not None:
                yield from solve_goals(rs, rest, compose(theta, delta), ctx)
        else:
            for value in flattened:
                delta = unify(apply_subst(theta, goal.result), _result_to_term(value))
                if delta is not None:
                    yield from solve_goals(rs, rest, compose(theta, delta), ctx)
    elif isinstance(goal, ApplyTemplates):
        node = _bound_node(theta, goal.node, "template goal node")
        hedge = tuple(_emit(rs, node, ctx))
        produced = Seq(tuple(node_to_term(n) for n in hedge))
        delta = unify(apply_subst(theta, goal.result), produced)
        if delta is not None:
            yield from solve_goals(rs, rest, compose(theta, delta), ctx)
    elif isinstance(goal, Not):
        for _ in solve_goals(rs, (goal.inner,), theta, ctx):
            return
        yield from solve_goals(rs, rest, theta, ctx)
    else:  # pragma: no cover - exhaustive over Goal
        raise TypeError(f"unknown goal {goal!r}")


def _instantiate_output(rule: Rule, theta: dict[str, Term]) -> Iterator[Node]:
    for template in rule.output:
        term = apply_subst(theta, template)
        try:
            yield term_to_node(term)
        except UnboundOutputError as exc:
            raise UnboundOutputError(exc.variable, rule.label) from None


def _emit(rs: RuleSet, node: Node, root: Node) -> Iterator[Node]:
    node_term = node_to_term(node)
    for rule in rs.rules:
        theta = unify(rule.head, node_term)
        if theta is None:
            continue
        if rs.solution_mode == FIRST_ONLY:
            solution = next(solve_goals(rs, rule.goals, theta, root), None)
            if solution is None:
                continue
            yield from _instantiate_output(rule, solution)
            return
        fired = False
        for solution in solve_goals(rs, rule.goals, theta, root):
            fired = True
            yield from _instantiate_output(rule, solution)
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
