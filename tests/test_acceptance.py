"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from pathlib import Path

from ltlx import (
    decode_core,
    element,
    encode_core,
    parse,
    parse_rules,
    serialize,
    text,
    transform_document,
)
from ltlx.encoding import is_core
from ltlx.engine import apply_templates
from ltlx.metrics import compute_metrics, TokenCounts
from ltlx.nodes import Comment, Element, PI, document_order, node_count
from ltlx.queryops import descendant_or_self_by_name, reachable, rem, rem_el
from ltlx.relalg import cartesian, difference, project, rename, select, union
from ltlx.terms import apply_subst, unify

from conftest import abstract, random_document, random_ground_term, random_term
from test_queryops import APPENDIX_RULE_CASES, enumerate_index_paths

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

SHARED_CHILD_RULES = """\
template(element(top,_,[A,A]),[text(T)]):-
   A=element(a,_,_),transform(A//p#1,T).
"""


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_example_end_to_end():
    started = time.perf_counter()
    rules = parse_rules(SHARED_CHILD_RULES)
    shared = element("a", [], [element("b", [], [element("p", [], [text("w")])])])
    doc = element("top", [], [shared, shared])
    assert apply_templates(rules, doc) == (text("w"),)

    mutated = element(
        "a", [], [element("b", [], [element("p", [], [text("w")])]), element("c")]
    )
    broken = element("top", [], [shared, mutated])
    assert apply_templates(rules, broken) == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(f"worked-example-end-to-end ({elapsed * 1000:.0f} ms)")


def test_criterion_2_round_trips():
    rng = random.Random(90_001)
    parse_failures = encode_failures = 0
    for _ in range(1000):
        doc = random_document(rng, max_depth=6, max_nodes=40)
        if parse(serialize(doc)) != doc:
            parse_failures += 1
        encoded = encode_core(doc)
        if decode_core(encoded) != doc:
            encode_failures += 1
        assert is_core(encoded)
        for node in document_order(encoded):
            assert not isinstance(node, (PI, Comment))
            if isinstance(node, Element):
                assert node.attributes == ()
    assert parse_failures == 0
    assert encode_failures == 0
    _report("round-trips (1000 documents, zero failures)")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(90_002)
    for _ in range(500):
        doc = random_document(rng)
        for name in ("a", "p", "top"):
            expected = [
                n
                for n in document_order(doc)
                if isinstance(n, Element) and n.name == name
            ]
            assert list(descendant_or_self_by_name(doc, name)) == expected

    def random_relation(arity):
        from ltlx.relalg import Relation

        rows = {
            tuple(rng.randint(0, 3) for _ in range(arity))
            for _ in range(rng.randint(0, 5))
        }
        return Relation.from_rows("r", arity, rows)

    for _ in range(200):
        arity = rng.randint(1, 3)
        r, s = random_relation(arity), random_relation(arity)
        other = random_relation(rng.randint(1, 3))
        assert union(r, s).tuples == r.tuples | s.tuples
        assert difference(r, s).tuples == r.tuples - s.tuples
        assert select(r, s).tuples == r.tuples & s.tuples
        assert cartesian(r, other).tuples == {
            x + y for x in r.tuples for y in other.tuples
        }
        cols = [rng.randint(1, arity) for _ in range(rng.randint(1, arity))]
        assert project(r, cols).tuples == {
            tuple(row[c - 1] for c in cols) for row in r.tuples
        }
        assert rename(r, "z").tuples == r.tuples
    _report("oracle-equivalence (500 documents, 200 relation pairs)")


def test_criterion_4_unification_laws():
    from ltlx.terms import Compound, Var

    rng = random.Random(90_003)
    violations = 0
    successes = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            ground = random_ground_term(rng, depth=4)
            a, b = abstract(rng, ground), ground
        else:
            a, b = random_term(rng, depth=4), random_term(rng, depth=4)
        theta = unify(a, b)
        reverse = unify(b, a)
        if (theta is None) != (reverse is None):
            violations += 1
            continue
        if theta is None:
            continue
        successes += 1
        left, right = apply_subst(theta, a), apply_subst(theta, b)
        if left != right:
            violations += 1
        if apply_subst(theta, left) != left:
            violations += 1
        if apply_subst(reverse, a) != apply_subst(reverse, b):
            violations += 1
    assert violations == 0
    assert successes > 1000
    assert unify(Var("X"), Compound("f", (Var("X"),))) is None
    _report(f"unification-laws (10000 pairs, {successes} unifiable, zero violations)")


def test_criterion_5_appendix_rule_table():
    for name in sorted(APPENDIX_RULE_CASES):
        APPENDIX_RULE_CASES[name]()
    expected_fail_rules = {
        "dos-fail-mismatched-leaf",
        "attr-fail-empty-attributes",
        "id-fail-empty-attributes",
        "descendant-fail-childless",
    }
    assert expected_fail_rules <= set(APPENDIX_RULE_CASES)
    _report(f"appendix-rule-table ({len(APPENDIX_RULE_CASES)} directed rule tests)")


def test_criterion_6_one_step_manipulation():
    rng = random.Random(90_004)
    checked = 0
    while checked < 500:
        doc = random_document(rng, max_depth=3, max_nodes=12)
        names = [c.name for c in doc.children if isinstance(c, Element)]
        for name in set(names):
            index = next(
                i
                for i, c in enumerate(doc.children)
                if isinstance(c, Element) and c.name == name
            )
            got = rem_el(doc, name)
            assert got is not None
            assert len(got.children) == len(doc.children) - 1
            assert got.children == doc.children[:index] + doc.children[index + 1 :]
            checked += 1
        if doc.children:
            target = rng.choice(doc.children)
            index = doc.children.index(target)
            got = rem(doc, target)
            assert got is not None
            assert len(got.children) == len(doc.children) - 1
            assert got.children == doc.children[:index] + doc.children[index + 1 :]
            checked += 1
    _report(f"one-step-manipulation ({checked} cases)")


def test_criterion_7_reachability():
    def all_shapes(n):
        if n == 1:
            return [element("n")]
        results = []

        def build(remaining, collected):
            if remaining == 0:
                results.append(element("n", [], list(collected)))
                return
            for size in range(1, remaining + 1):
                for shape in all_shapes(size):
                    build(remaining - size, collected + [shape])

        build(n - 1, [])
        return results

    from ltlx.queryops import Up, follow_index_path

    corpus = [shape for n in range(1, 6) for shape in all_shapes(n)]
    rng = random.Random(90_005)
    corpus.extend(random_document(rng, max_depth=4, max_nodes=15) for _ in range(50))
    pairs_checked = 0
    for doc in corpus:
        total = node_count(doc)
        assert total <= 15
        pairs = list(enumerate_index_paths(doc))
        for u, _ in pairs:
            for v, v_node in pairs:
                moves = reachable(doc, u, v)
                assert len(moves) <= total - 1 or (u == v and not moves)
                walked = list(u)
                for move in moves:
                    if isinstance(move, Up):
                        walked.pop()
                    else:
                        walked.append(move.index)
                assert follow_index_path(doc, walked) == v_node
                pairs_checked += 1
    _report(
        f"reachability ({len(corpus)} documents, {pairs_checked} ordered pairs)"
    )


def test_criterion_8_metrics_exactness():
    assert compute_metrics(TokenCounts(2, 2, 2, 2)).N_T == 4.0
    four = compute_metrics(TokenCounts(2, 2, 2, 2))
    assert four.N == 4 and four.eta == 4 and four.V == 8.0
    ten_eight = compute_metrics(TokenCounts(10, 8, 20, 13))
    assert abs(ten_eight.N_T - (10 * math.log2(10) + 8 * math.log2(8))) <= 1e-9
    assert abs(ten_eight.N_T - 57.2192809) < 1e-4

    rng = random.Random(90_006)
    for _ in range(100):
        eta1, eta2 = rng.randint(0, 40), rng.randint(0, 40)
        counts = TokenCounts(
            eta1, eta2, eta1 + rng.randint(0, 50), eta2 + rng.randint(0, 50)
        )
        report = compute_metrics(counts)
        n_t = eta1 * (math.log2(eta1) if eta1 else 0.0) + eta2 * (
            math.log2(eta2) if eta2 else 0.0
        )
        assert abs(report.delta_N - abs(n_t - report.N)) <= 1e-9
    _report("metrics-exactness (closed forms exact, 100 random count sets)")


def test_criterion_9_red_cut_determinism():
    never_reached = '\ntemplate(element(zzz_never_used,_,_),[text("x")]).'
    pairs = 0
    for sample_dir in sorted(SAMPLES.iterdir()):
        rules_path = sample_dir / "rules.ltl"
        input_path = sample_dir / "input.xml"
        if not (rules_path.exists() and input_path.exists()):
            continue
        source = rules_path.read_text(encoding="utf-8")
        doc = parse(input_path.read_text(encoding="utf-8"))
        base = transform_document(parse_rules(source), doc)
        extended = transform_document(parse_rules(source + never_reached), doc)
        base_bytes = "".join(serialize(n) for n in base.nodes).encode()
        extended_bytes = "".join(serialize(n) for n in extended.nodes).encode()
        assert base_bytes == extended_bytes
        assert base.well_formed == extended.well_formed
        pairs += 1
    assert pairs >= 3
    _report(f"red-cut-determinism ({pairs} sample transformations byte-identical)")
