"""The value classes: frozen, copyable, and equal to the dataclasses they replaced.

`reference_values` keeps the node and term classes as the frozen
dataclasses they once were.  Generated documents and terms, built once
from each set of classes, must agree on `==`, `hash` and `repr`.  Every
value class of the package must refuse assignment and survive copy,
deepcopy and pickle.
"""

import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_values
from ltlx import nodes, parse, parse_path_text, parse_rules, terms, transform_document
from ltlx.encoding import SentinelConfig
from ltlx.errors import ParseDiagnostic
from ltlx.metrics import TokenCounts, compute_metrics
from ltlx.queryops import (
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    Children,
    CountChildren,
    DescendantOrSelfNamed,
    Descendants,
    Down,
    Index,
    LastChild,
    Lvl,
    PIValue,
    TextValue,
    UP,
)
from ltlx.relalg import Relation
from ltlx.rules import RuleSet, tokenize

CLASS_NAMES = (
    "Attribute", "Element", "Text", "PI", "Comment",
    "Var", "Anonymous", "Atom", "Str", "Int", "Compound", "Seq",
)
NEW = {name: getattr(nodes if hasattr(nodes, name) else terms, name) for name in CLASS_NAMES}
REF = {name: getattr(reference_values, name) for name in CLASS_NAMES}

# Small alphabets, so that equal values, and equal contents in different
# classes such as Str("a") and Atom("a"), come up often.
NAMES = st.sampled_from(("a", "b", "1"))
TEXTS = st.sampled_from(("", "a", "1", 'q"\n'))
ATTRIBUTES = st.tuples(st.just("Attribute"), NAMES, TEXTS)
NODE_LEAVES = st.tuples(st.sampled_from(("Text", "PI", "Comment")), TEXTS)
NODES = st.recursive(
    NODE_LEAVES,
    lambda kids: st.tuples(
        st.just("Element"), NAMES, st.lists(ATTRIBUTES, max_size=2), st.lists(kids, max_size=3)
    ),
    max_leaves=8,
)
TERM_LEAVES = st.one_of(
    st.tuples(st.sampled_from(("Var", "Atom", "Str")), TEXTS),
    st.tuples(st.sampled_from(("Int", "Anonymous")), st.integers(0, 2)),
    ATTRIBUTES,
    NODES,
)
TERMS = st.recursive(
    TERM_LEAVES,
    lambda args: st.one_of(
        st.tuples(st.just("Compound"), NAMES, st.lists(args, max_size=3)),
        st.tuples(st.just("Seq"), st.lists(args, max_size=3)),
    ),
    max_leaves=8,
)


def build(spec, classes):
    """The value `spec` describes, built from `classes` (NEW or REF)."""
    kind, *fields = spec
    cls = classes[kind]
    if kind == "Element":
        name, attributes, children = fields
        return cls(
            name,
            tuple(build(a, classes) for a in attributes),
            tuple(build(c, classes) for c in children),
        )
    if kind == "Compound":
        return cls(fields[0], tuple(build(a, classes) for a in fields[1]))
    if kind == "Seq":
        return cls(tuple(build(i, classes) for i in fields[0]))
    return cls(*fields)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.lists(TERMS, min_size=1, max_size=4))
def test_same_equality_hash_and_repr_as_the_dataclasses(specs):
    specs = specs + specs[:1]  # one value built twice, so one pair is surely equal
    pairs = [(build(s, NEW), build(s, REF)) for s in specs]
    for new, ref in pairs:
        assert repr(new) == repr(ref)
        assert hash(new) == hash(ref)
    for (a, ref_a), (b, ref_b) in product(pairs, repeat=2):
        assert (a == b) == (ref_a == ref_b)
        assert (a != b) == (ref_a != ref_b)
        if a == b:
            assert hash(a) == hash(b)


def test_a_value_refuses_missing_extra_and_misnamed_fields():
    for fields in ((), ("X", "Y")):
        with pytest.raises(TypeError, match="^Var takes the fields name$"):
            NEW["Var"](*fields)
    with pytest.raises(TypeError, match="^Var takes the fields name$"):
        NEW["Var"](nam="X")
    with pytest.raises(ValueError, match="^compound functor must be non-empty$"):
        NEW["Compound"]("", ())


def test_equal_contents_in_different_classes_differ():
    Str, Atom, Int, Text = NEW["Str"], NEW["Atom"], NEW["Int"], NEW["Text"]
    assert Str("a") != Atom("a") and Atom("a") != Str("a")
    assert Int(1) != Str("1") and Text("a") != Str("a")
    assert NEW["PI"]("a") != NEW["Comment"]("a")
    assert Str("a") == Str("a") and Atom("a") != Atom("b")


RULES = """\
template(element(a,_,[X]),[element(b,[],R)]):-
   X=element(_,_,_),transform(X/c#,T),template(X,R),not(T="z").
fact(r,1,"s").
"""


def every_value_class():
    """One value of each of the package's 41 value classes."""
    rules = parse_rules(RULES)
    result = transform_document(rules, parse("<a><p><c>y</c></p></a>"))  # compiles the rules
    rule = rules.rules[0]
    unify, transform, template, negation = rule.goals
    steps = (
        ChildNamed("c"), DescendantOrSelfNamed(None), AttrValue("k"), AttrNameByValue("v"),
        TextValue(), PIValue(), Children(), Descendants(), LastChild(), CountChildren(),
        Lvl(), Index(2),
    )
    node_and_term_values = [build(spec, NEW) for spec in (
        ("Element", "a", [("Attribute", "k", "v")], [("Text", "t"), ("PI", "p"), ("Comment", "c")]),
        ("Compound", "f", [("Var", "X"), ("Anonymous", 1), ("Atom", "a"), ("Str", "s")]),
        ("Seq", [("Int", 3)]),
    )]
    return [
        *node_and_term_values,
        *node_and_term_values[0].attributes,
        *node_and_term_values[0].children,
        *node_and_term_values[1].args,
        *node_and_term_values[2].items,
        *steps,
        parse_path_text("X/c#"),
        UP,
        Down(2),
        unify,
        transform,
        template,
        negation,
        rule,
        rules.facts[0],
        rules,
        tokenize("a")[0],
        result,
        ParseDiagnostic(1, 2, "message"),
        TokenCounts(2, 2, 3, 2),
        compute_metrics(TokenCounts(2, 2, 3, 2)),
        Relation("r", 1, frozenset({(1,)})),
        SentinelConfig(),
    ]


VALUES = every_value_class()


def test_the_samples_cover_41_classes():
    assert len({type(v) for v in VALUES}) == len(VALUES) == 41


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_value_is_frozen(value):
    fields = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_value_copies_and_pickles_to_an_equal_value(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_a_copied_rule_set_compiles_its_own_rules():
    rules = next(v for v in VALUES if type(v) is RuleSet)
    assert rules._compiled
    twin = pickle.loads(pickle.dumps(rules))
    assert twin._compiled == []
    doc = parse("<a><p><c>y</c></p></a>")
    assert transform_document(twin, doc) == transform_document(rules, doc)
