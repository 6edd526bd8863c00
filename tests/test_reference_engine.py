"""Differential test: the engine against the term-based reference matcher.

reference_engine.py holds the matching path from before document nodes
became ground terms.  Both run on the same documents and rule sets, in
both solution modes, and must produce equal output hedges or raise the
same exception type.  Inputs are random documents with rule heads
abstracted from their own subtrees, the samples/ rule files, and the
benchmark's catalog and structural rule texts on small generated inputs.

One difference is known and not generated here: the reference binds a
variable unified with a bare `_` to an internal fresh variable, and then
drops every later binding of that fresh variable, so the variable
matches anything from then on.  The engine leaves it unbound, and a
later goal can bind it.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import reference_engine
from conftest import abstract, random_document, rename, wildcards
from reference_engine import node_to_term
from ltlx import parse, parse_path_text, parse_rules
from ltlx.engine import apply_templates
from ltlx.nodes import document_order
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY
from ltlx.rules import ApplyTemplates, Not, Rule, RuleSet, Transform, Unify
from ltlx.terms import Atom, Compound, Seq, Str, Var, anon, variables_of

ROOT = Path(__file__).resolve().parent.parent
MODES = (FIRST_ONLY, ALL_SOLUTIONS)
NODE_FUNCTORS = ("element", "text", "pi", "comment")
# Path steps by the kind of value they yield.
STRING_STEPS = ("/#", "#", "//p#1", "//*#", "@id", "@x")
NODE_STEPS = ("//*", " child", " last", "//a", "/item", " descendant")
OTHER_STEPS = (" count", " lvl", "?")


def outcome(apply, rs, doc):
    """The output hedge, or the type of the exception raised instead."""
    try:
        return apply(rs, doc)
    except Exception as exc:  # the exception type is the behaviour compared
        return type(exc)


def assert_same(rs, doc):
    for mode in MODES:
        moded = rs.with_options(solution_mode=mode)
        expected = outcome(reference_engine.apply_templates, moded, doc)
        assert outcome(apply_templates, moded, doc) == expected, (mode, moded, doc)


# --- random rule sets ---------------------------------------------------------


def _kind(value):
    """What a head variable is bound to when its rule matches its own subtree."""
    if isinstance(value, Compound) and value.functor in NODE_FUNCTORS:
        return "node"
    if isinstance(value, Seq):
        if all(isinstance(i, Compound) and i.functor == "=" for i in value.items):
            return "attrs" if value.items else "hedge"
        return "hedge"
    return "string" if isinstance(value, Str) else "name"


def random_head(rng, subtree):
    """A head that matches `subtree`, and the kind each of its variables binds."""
    ground = node_to_term(subtree)
    head = wildcards(rng, abstract(rng, ground))
    theta = reference_engine.unify(head, ground)
    kinds = {name: _kind(value) for name, value in theta.items()}
    nodes = sorted(n for n, k in kinds.items() if k == "node")
    if len(nodes) >= 2 and rng.random() < 0.3:
        # A repeated variable: the head then needs two equal subtrees.
        keep, drop = rng.sample(nodes, 2)
        head = rename(head, drop, keep)
        del kinds[drop]
    return head, kinds


def random_goal(rng, kinds, head, k):
    """One goal over the head's variables; fresh variables are added to `kinds`."""
    nodes = sorted(n for n, kind in kinds.items() if kind == "node")
    if not nodes:
        return Unify(Var(f"S{k}"), Str("s"))
    v = rng.choice(nodes)
    roll = rng.random()
    if roll < 0.3 and v in variables_of(head) and head != Var(v):
        # A strict subtree of the matched node, so the recursion ends.
        kinds[f"R{k}"] = "hedge"
        return ApplyTemplates(Var(v), Var(f"R{k}"))
    if roll < 0.6:
        kind, steps = rng.choice(
            (("string", STRING_STEPS), ("node", NODE_STEPS), ("other", OTHER_STEPS))
        )
        kinds[f"T{k}"] = kind
        return Transform(parse_path_text(v + rng.choice(steps)), Var(f"T{k}"))
    if roll < 0.8:
        pattern = Compound(
            rng.choice(NODE_FUNCTORS[:2]),
            (Atom(rng.choice(("a", "b", "item"))), anon(), Var(f"C{k}"))
            if rng.random() < 0.5
            else (anon(),),
        )
        if len(pattern.args) == 3:
            kinds[f"C{k}"] = "hedge"
        return Unify(Var(v), pattern)
    other = Var(rng.choice(nodes))
    inner = Unify(Var(v), other) if rng.random() < 0.5 else Unify(Var(v), Compound("text", (anon(),)))
    return Not(inner)


def random_output(rng, kinds):
    """One output item; a few deliberately misuse a variable's kind."""
    if not kinds or rng.random() < 0.1:
        if kinds and rng.random() < 0.5:
            return Var(rng.choice(sorted(kinds)))
        return Compound("element", (Atom("hit"), Seq(()), Seq(())))
    name = rng.choice(sorted(kinds))
    v = Var(name)
    kind = kinds[name]
    if kind == "node":
        return v if rng.random() < 0.5 else Compound("element", (Atom("o"), Seq(()), Seq((v, v))))
    if kind == "hedge":
        return Compound("element", (Atom("h"), Seq(()), v))
    if kind == "attrs":
        return Compound("element", (Atom("at"), v, Seq(())))
    if kind == "name":
        return Compound("element", (v, Seq(()), Seq(())))
    return Compound("text", (v,))


def random_rule_set(rng, doc):
    subtrees = list(document_order(doc))
    rules = []
    for line in range(1, rng.randint(1, 4) + 1):
        head, kinds = random_head(rng, rng.choice(subtrees))
        goals = tuple(random_goal(rng, kinds, head, k) for k in range(rng.randint(0, 2)))
        output = tuple(random_output(rng, kinds) for _ in range(rng.randint(1, 2)))
        rules.append(Rule(head, output, goals, line))
    if rng.random() < 0.5:
        rules.append(parse_rules("template(text(X),[text(X)]).").rules[0])
    return RuleSet(
        tuple(rules),
        coerce_text=rng.random() < 0.8,
        default_copy_text=rng.random() < 0.3,
    )


def test_random_documents_and_rule_sets_agree_with_reference():
    rng = random.Random(901)
    fired = 0
    for _ in range(600):
        doc = random_document(rng, max_depth=4, max_nodes=30)
        rs = random_rule_set(rng, doc)
        assert_same(rs, doc)
        out = outcome(apply_templates, rs, doc)
        fired += isinstance(out, tuple) and bool(out)
    assert fired > 300  # most pairs must produce output, not just agree on errors


# --- fixed rule texts ---------------------------------------------------------

IDENTITY_TEXT = "template(text(X),[text(X)])."
# An `=` goal leaves a binding holding a still-free variable that a later goal binds.
LATE_BINDING_RULES = (
    "template(element(a,_,[C]),[O]):-O=element(b,[],K),template(C,K).\n" + IDENTITY_TEXT,
    "template(A,[text(X)]):-A=element(a,_,_),X=Y,transform(A//p#1,Y).",
    "template(element(a,_,[C]),[O]):-O=element(b,[],K),P=f(K,x),not(P=f([],y)),"
    "template(C,K).\n" + IDENTITY_TEXT,
    'template(A,[text(X)]):-A=element(a,_,_),X=Y,transform(A//p/#,Y),not(X="hi").',
    # Attributes written as name=value in a head and in an output.
    "template(element(a,[id=V],_),[element(row,[k=V],[])]).",
)
LATE_BINDING_DOC = (
    '<r><a id="1"><p>hi</p></a><a><p>hi</p><p>ho</p></a><a><p>ho</p></a><b/></r>'
)


@pytest.mark.parametrize("rules", LATE_BINDING_RULES)
def test_late_bindings_agree_with_reference(rules):
    rs = parse_rules(rules)
    doc = parse(LATE_BINDING_DOC)
    assert apply_templates(rs, doc)  # the rule fires on the fixed document
    assert_same(rs, doc)
    rng = random.Random(911)
    for _ in range(100):
        doc = random_document(rng, max_depth=4, max_nodes=30)
        assert_same(rs.with_options(coerce_text=rng.random() < 0.8), doc)


# --- samples and benchmark rule texts ----------------------------------------


@pytest.mark.parametrize("sample", ["item_list", "shared_child", "text_identity"])
@pytest.mark.parametrize("coerce_text", [True, False])
def test_samples_agree_with_reference(sample, coerce_text):
    rs = parse_rules((ROOT / "samples" / sample / "rules.ltl").read_text(encoding="utf-8"))
    doc = parse((ROOT / "samples" / sample / "input.xml").read_bytes())
    assert_same(rs.with_options(coerce_text=coerce_text), doc)


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_rule_texts_agree_with_reference():
    gen = _bench_gen()
    wide = parse_rules(gen.WIDE_RULES)
    structural = parse_rules(gen.STRUCTURAL_RULES)
    shapes = {"chain": (3, 40, 4), "tree": (1, 4, 4), "pair": (5, 40, 4), "pick": (1, 30, 4)}
    for seed in (1, 2, 3):
        for op in gen.gen_wide(seed, [20, 45]):
            assert_same(wide, parse(op.data["xml"]))
        for op in gen.gen_structural(seed, shapes):
            assert_same(structural, parse(op.data["xml"]))
