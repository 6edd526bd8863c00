"""Halstead-style size measures for transformation scripts.

The census rule for the rule-file dialect: operators are predicate
functors, path-step symbols, ':-', goal-conjunction commas, '=', 'not',
and the list constructor; operands are variables, atoms, numbers, and
string literals.  Argument-separator commas and the clause terminator
are punctuation and count as neither.  For the stylesheet dialect,
element tag names are the operators and attribute values the operands;
attribute values are deliberately not parsed any further.
"""

from __future__ import annotations

import math
from collections import Counter

from . import xmlio
from .errors import DIALECT_LTL, DIALECT_XSLT
from .nodes import Element, document_order
from .queryops import PathExpr
from .rules import ApplyTemplates, Goal, Not, RuleSet, Transform, Unify, parse_rules
from .terms import Anonymous, Atom, Compound, Int, Seq, Str, Term, Var, subterms
from .values import Value

LIST_OPERATOR = "[|]"

CENSUS_RULE = (
    "operators: functors, path steps, ':-', '=', 'not', conjunction ',', "
    f"list construction {LIST_OPERATOR}; operands: variables, atoms, "
    "numbers, strings (ltl) / tag names vs attribute values (xslt)"
)


class TokenCounts(Value):
    __slots__ = ("eta1", "eta2", "n1_total", "n2_total")

    def __init__(self, eta1: int, eta2: int, n1_total: int, n2_total: int) -> None:
        """`eta1` and `eta2` count the distinct operators and operands."""
        if eta1 > n1_total or eta2 > n2_total:
            raise ValueError("distinct counts cannot exceed totals")
        if min(eta1, eta2, n1_total, n2_total) < 0:
            raise ValueError("counts must be non-negative")
        super().__init__(eta1, eta2, n1_total, n2_total)


class MetricsReport(Value):
    __slots__ = ("counts", "N", "N_T", "eta", "V", "L", "lam", "delta_N")

    counts: TokenCounts
    N: float  # measured program length
    N_T: float  # theoretical length
    eta: int  # vocabulary
    V: float  # volume
    L: float  # intellectual level estimate
    lam: float  # language abstraction niveau
    delta_N: float


def _ld(x: float) -> float:
    return math.log2(x) if x > 0 else 0.0


def compute_metrics(c: TokenCounts) -> MetricsReport:
    """Derive the closed-form measures from raw token counts.

    Uses the convention 0*log2(0) = 0 throughout; the intellectual level
    uses the classic estimate (2/eta1)*(eta2/n2_total), taken as 0 when
    either denominator is 0.
    """
    n = c.n1_total + c.n2_total
    n_t = c.eta1 * _ld(c.eta1) + c.eta2 * _ld(c.eta2)
    eta = c.eta1 + c.eta2
    volume = n * _ld(eta)
    level = (2.0 / c.eta1) * (c.eta2 / c.n2_total) if c.eta1 > 0 and c.n2_total > 0 else 0.0
    return MetricsReport(
        counts=c,
        N=float(n),
        N_T=n_t,
        eta=eta,
        V=volume,
        L=level,
        lam=volume * level,
        delta_N=abs(n_t - n),
    )


class _Census:
    def __init__(self) -> None:
        self.operators: Counter[str] = Counter()
        self.operands: Counter[str] = Counter()

    def operator(self, token: str) -> None:
        self.operators[token] += 1

    def operand(self, token: str) -> None:
        self.operands[token] += 1

    def counts(self) -> TokenCounts:
        return TokenCounts(
            eta1=len(self.operators),
            eta2=len(self.operands),
            n1_total=sum(self.operators.values()),
            n2_total=sum(self.operands.values()),
        )


def _census_term(term: Term, census: _Census) -> None:
    for term in subterms(term):
        if isinstance(term, Var):
            census.operand(term.name)
        elif isinstance(term, Anonymous):
            census.operand("_")
        elif isinstance(term, Atom):
            census.operand(term.text)
        elif isinstance(term, Str):
            census.operand(f'"{term.text}"')
        elif isinstance(term, Int):
            census.operand(str(term.value))
        elif isinstance(term, Compound):
            census.operator(term.functor)
        elif isinstance(term, Seq):
            census.operator(LIST_OPERATOR)


def _census_path(path: PathExpr, census: _Census) -> None:
    if path.start is not None:
        census.operand(path.start)
    for step in path.steps:
        census.operator(step.symbol)
        if step.operand is not None:
            census.operand(step.operand)


def _census_goal(goal: Goal, census: _Census) -> None:
    if isinstance(goal, Unify):
        census.operator("=")
        _census_term(goal.lhs, census)
        _census_term(goal.rhs, census)
    elif isinstance(goal, Transform):
        census.operator("transform")
        _census_path(goal.path, census)
        _census_term(goal.result, census)
    elif isinstance(goal, ApplyTemplates):
        census.operator("template")
        _census_term(goal.node, census)
        _census_term(goal.result, census)
    elif isinstance(goal, Not):
        census.operator("not")
        _census_goal(goal.inner, census)


def _census_ruleset(rs: RuleSet, census: _Census) -> None:
    for rule in rs.rules:
        census.operator("template")
        _census_term(rule.head, census)
        _census_term(Seq(rule.output), census)
        if rule.goals:
            census.operator(":-")
            for _ in range(len(rule.goals) - 1):
                census.operator(",")
            for goal in rule.goals:
                _census_goal(goal, census)
    for fact in rs.facts:
        census.operator(fact.name)
        for value in fact.values:
            _census_term(value, census)


def count_tokens(script: str, dialect: str = DIALECT_LTL) -> TokenCounts:
    """Count distinct and total operators/operands of a script.

    `dialect` is "ltl" for rule files or "xslt" for XML stylesheets; the
    script must parse in the chosen dialect.  The census is insensitive
    to whitespace and comments.
    """
    census = _Census()
    if dialect == DIALECT_LTL:
        _census_ruleset(parse_rules(script), census)
    elif dialect == DIALECT_XSLT:
        root = xmlio.parse(script)
        for node in document_order(root):
            if isinstance(node, Element):
                census.operator(node.name)
                for attr in node.attributes:
                    census.operand(attr.value)
    else:
        raise ValueError(f"unknown dialect {dialect!r}")
    return census.counts()
