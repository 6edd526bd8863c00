"""Codd's six relational operators over in-memory fact tables.

Relations are sets of fixed-arity tuples; duplicates collapse on
construction.  Scalar values only need to be hashable; fact clauses from
rule files supply atoms, integers, and strings.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import ArityError, ColumnError, LtlxError
from .rules import Fact, parse_term_text
from .terms import Atom, Compound, Int, Seq, Str, Term
from .values import Value

Scalar = Hashable


class Relation(Value):
    __slots__ = ("name", "arity", "tuples")

    def __init__(self, name: str, arity: int, tuples: frozenset[tuple[Scalar, ...]]) -> None:
        tuples = frozenset(tuples)
        for row in tuples:
            if len(row) != arity:
                raise ArityError(f"relation {name}/{arity} got a {len(row)}-tuple")
        super().__init__(name, arity, tuples)

    @classmethod
    def from_rows(
        cls, name: str, arity: int, rows: Iterable[Sequence[Scalar]]
    ) -> "Relation":
        return cls(name, arity, frozenset(tuple(r) for r in rows))


def _require_same_arity(r: Relation, s: Relation, op: str) -> None:
    if r.arity != s.arity:
        raise ArityError(f"{op}: arity {r.arity} vs {s.arity}")


def union(r: Relation, s: Relation) -> Relation:
    _require_same_arity(r, s, "union")
    return Relation("t", r.arity, r.tuples | s.tuples)


def difference(r: Relation, s: Relation) -> Relation:
    _require_same_arity(r, s, "difference")
    return Relation("t", r.arity, r.tuples - s.tuples)


def cartesian(r: Relation, s: Relation) -> Relation:
    pairs = frozenset(x + y for x in r.tuples for y in s.tuples)
    return Relation("t", r.arity + s.arity, pairs)


def project(r: Relation, columns: Sequence[int]) -> Relation:
    """Restrict to the 1-based `columns`, in the given order; duplicates collapse."""
    for c in columns:
        if not 1 <= c <= r.arity:
            raise ColumnError(f"column {c} outside 1..{r.arity}")
    rows = frozenset(tuple(row[c - 1] for c in columns) for row in r.tuples)
    return Relation("t", len(columns), rows)


def select(r: Relation, s: Relation) -> Relation:
    """Intersection form: `s` is the characteristic relation of the predicate."""
    _require_same_arity(r, s, "select")
    return Relation("t", r.arity, r.tuples & s.tuples)


def rename(r: Relation, new_name: str) -> Relation:
    return Relation(new_name, r.arity, r.tuples)


def relations_from_facts(facts: Iterable[Fact]) -> dict[str, Relation]:
    """Group fact clauses into relations, checking arity consistency."""
    grouped: dict[str, list[tuple[Scalar, ...]]] = {}
    arities: dict[str, int] = {}
    for fact in facts:
        row = tuple(fact.values)
        known = arities.setdefault(fact.name, len(row))
        if known != len(row):
            raise ArityError(
                f"fact {fact.name} used with arity {len(row)} and {known}"
            )
        grouped.setdefault(fact.name, []).append(row)
    return {
        name: Relation.from_rows(name, arities[name], rows)
        for name, rows in grouped.items()
    }


_BINARY_OPS = {
    "union": union,
    "difference": difference,
    "cartesian": cartesian,
    "select": select,
}


def eval_expr(text: str, relations: dict[str, Relation]) -> Relation:
    """Evaluate an operator expression such as project(union(r,s),[2,1])."""
    return _eval(parse_term_text(text), relations)


def _eval(term: Term, relations: dict[str, Relation]) -> Relation:
    if isinstance(term, Atom):
        if term.text not in relations:
            raise LtlxError(f"unknown relation {term.text!r}")
        return relations[term.text]
    if isinstance(term, Compound):
        op = _BINARY_OPS.get(term.functor)
        if op is not None and len(term.args) == 2:
            return op(_eval(term.args[0], relations), _eval(term.args[1], relations))
        if term.functor == "project" and len(term.args) == 2:
            rel = _eval(term.args[0], relations)
            cols = term.args[1]
            if not isinstance(cols, Seq) or not all(
                isinstance(i, Int) for i in cols.items
            ):
                raise LtlxError("project needs a list of column numbers")
            return project(rel, [i.value for i in cols.items])
        if term.functor == "rename" and len(term.args) == 2:
            rel = _eval(term.args[0], relations)
            target = term.args[1]
            if not isinstance(target, (Atom, Str)):
                raise LtlxError("rename needs an atom or string name")
            return rename(rel, target.text)
    raise LtlxError(f"not a relational expression: {term!r}")
