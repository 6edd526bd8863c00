import random

import pytest

from ltlx import parse_rules
from ltlx.errors import ArityError, ColumnError, LtlxError
from ltlx.relalg import (
    Relation,
    cartesian,
    difference,
    eval_expr,
    project,
    relations_from_facts,
    rename,
    select,
    union,
)
from ltlx.terms import Atom, Int


def rel(name, *rows):
    arity = len(rows[0]) if rows else 1
    return Relation.from_rows(name, arity, rows)


def random_relation(rng, arity, max_tuples=5):
    rows = {
        tuple(rng.randint(0, 3) for _ in range(arity))
        for _ in range(rng.randint(0, max_tuples))
    }
    return Relation.from_rows("r", arity, rows)


class TestExamples:
    def test_union(self):
        assert union(rel("r", (1, 2)), rel("s", (3, 4))).tuples == {(1, 2), (3, 4)}
        r = rel("r", (1,), (2,))
        assert union(r, r).tuples == r.tuples
        assert union(rel("r", (1,)), Relation("s", 1, frozenset())).tuples == {(1,)}

    def test_difference(self):
        assert difference(rel("r", (1,), (2,)), rel("s", (2,))).tuples == {(1,)}
        r = rel("r", (1,), (2,))
        assert difference(r, r).tuples == set()
        assert difference(r, Relation("s", 1, frozenset())).tuples == r.tuples

    def test_cartesian(self):
        assert cartesian(rel("r", (1,)), rel("s", ("a", "b"))).tuples == {(1, "a", "b")}
        assert cartesian(rel("r", (1,)), Relation("s", 2, frozenset())).tuples == set()
        product = cartesian(rel("r", (1,), (2,)), rel("s", ("x",), ("y",)))
        assert len(product.tuples) == 4
        assert product.arity == 2

    def test_project(self):
        assert project(rel("r", (1, "a"), (2, "a")), [2]).tuples == {("a",)}
        r = rel("r", (1, "a"))
        assert project(r, [1, 2]).tuples == r.tuples
        assert project(r, [2, 1]).tuples == {("a", 1)}

    def test_project_repetition_allowed(self):
        assert project(rel("r", (1, 2)), [1, 1]).tuples == {(1, 1)}

    def test_select(self):
        assert select(rel("r", (1,), (2,)), rel("s", (2,), (3,))).tuples == {(2,)}
        r = rel("r", (1,), (2,))
        assert select(r, r).tuples == r.tuples
        assert select(r, Relation("s", 1, frozenset())).tuples == set()

    def test_rename(self):
        r = rel("r", (1, 2))
        assert rename(r, "t").tuples == r.tuples
        assert rename(r, "t").name == "t"
        assert rename(rename(r, "t"), "r").tuples == r.tuples
        assert rename(r, "t").arity == r.arity


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            union(rel("r", (1,)), rel("s", (1, 2)))
        with pytest.raises(ArityError):
            difference(rel("r", (1,)), rel("s", (1, 2)))
        with pytest.raises(ArityError):
            select(rel("r", (1,)), rel("s", (1, 2)))

    def test_column_out_of_range(self):
        with pytest.raises(ColumnError):
            project(rel("r", (1, 2)), [3])
        with pytest.raises(ColumnError):
            project(rel("r", (1, 2)), [0])

    def test_bad_row_length(self):
        with pytest.raises(ArityError):
            Relation("r", 2, frozenset({(1,)}))


class TestOracleEquivalence:
    def test_all_operators_match_set_theory(self):
        rng = random.Random(711)
        for _ in range(200):
            arity = rng.randint(1, 3)
            r = random_relation(rng, arity)
            s = random_relation(rng, arity)
            assert union(r, s).tuples == r.tuples | s.tuples
            assert difference(r, s).tuples == {x for x in r.tuples if x not in s.tuples}
            assert select(r, s).tuples == {x for x in r.tuples if x in s.tuples}
            other = random_relation(rng, rng.randint(1, 3))
            assert cartesian(r, other).tuples == {
                x + y for x in r.tuples for y in other.tuples
            }
            cols = [rng.randint(1, arity) for _ in range(rng.randint(1, arity))]
            assert project(r, cols).tuples == {
                tuple(row[c - 1] for c in cols) for row in r.tuples
            }
            assert rename(r, "z").tuples == r.tuples

    def test_algebraic_laws(self):
        rng = random.Random(712)
        for _ in range(100):
            arity = rng.randint(1, 3)
            r = random_relation(rng, arity)
            s = random_relation(rng, arity)
            t = random_relation(rng, arity)
            assert union(r, s).tuples == union(s, r).tuples
            assert union(union(r, s), t).tuples == union(r, union(s, t)).tuples
            assert difference(r, s).tuples & s.tuples == set()
            assert select(r, s).tuples <= r.tuples
            other = random_relation(rng, rng.randint(1, 3))
            assert cartesian(r, other).arity == r.arity + other.arity


class TestFactsAndExpressions:
    FACTS = "r(1,a).\nr(2,b).\ns(2,b).\ns(3,c).\n"

    def _relations(self):
        return relations_from_facts(parse_rules(self.FACTS).facts)

    def test_facts_load_into_relations(self):
        relations = self._relations()
        assert set(relations) == {"r", "s"}
        assert relations["r"].arity == 2
        assert relations["r"].tuples == {
            (Int(1), Atom("a")),
            (Int(2), Atom("b")),
        }

    def test_atoms_and_strings_stay_distinct(self):
        relations = relations_from_facts(parse_rules('p(a).\np("a").\n').facts)
        assert len(relations["p"].tuples) == 2

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(ArityError):
            relations_from_facts(parse_rules("p(1).\np(1,2).\n").facts)

    def test_expression_evaluation(self):
        relations = self._relations()
        assert eval_expr("union(r,s)", relations).tuples == (
            relations["r"].tuples | relations["s"].tuples
        )
        assert eval_expr("difference(r,s)", relations).tuples == {
            (Int(1), Atom("a"))
        }
        assert eval_expr("project(select(r,s),[2])", relations).tuples == {
            (Atom("b"),)
        }
        assert eval_expr("rename(cartesian(r,s),q)", relations).name == "q"

    def test_expression_errors(self):
        relations = self._relations()
        with pytest.raises(LtlxError):
            eval_expr("union(r,missing)", relations)
        with pytest.raises(LtlxError):
            eval_expr("project(r,[x])", relations)
        with pytest.raises(LtlxError):
            eval_expr("frobnicate(r,s)", relations)
