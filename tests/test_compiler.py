"""Compiled rules against the interpreter they replace.

A rule's function inlines a head matcher and an output builder; here
each is generated as a function of its own (`compiled_parts`).  The
head matcher must bind what `terms.match(head, node)` binds, or fail
where it fails; the output builder must build what `term_to_node`
builds from the same bindings, or raise the same exception with the
same message.  A local holds a raw value (a str, a tuple, a leaf node)
where its kind and leaf say so; `compiled_parts` converts between those
and the terms `match` binds.  Heads are abstracted from random
documents (`conftest.abstract`), with repeated variables, `_`,
attribute-list variables and name=V items, and some get a random term
grafted in where no node position can take it.  The other tests pin
the index's source order and red cut, rule text that could break
generated source, the file name that tracebacks show, what the
generated source inlines, and that rules with not/1 goals, compound or
aliasing `=` goals, values whose kind the run tests, or long bodies
compile and agree with the reference engine.
"""

import random
import re
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
from conftest import abstract, random_document, random_term, rename, wildcards
from reference_engine import node_to_term
from ltlx import parse, parse_rules, serialize
from ltlx.compiler import _Binding, _Function, _Output, _Rule, _compile, _unbuilt, index_rules
from ltlx.engine import apply_templates
from ltlx.errors import LtlxError, ShapeError, TypeMismatchError, UnboundOutputError
from ltlx.nodes import NODE_TYPES, Attribute, Element, Text, document_order, element, text
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY
from ltlx.rules import Rule, RuleSet, Unify
from ltlx.terms import Atom, Compound, Seq, Str, Var, anon, match, term_to_node, variables_of

SEEDS = st.integers(0, 2**32 - 1)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# The raw value a local of each kind holds, from the term `match` binds.
# A string that the head found in a leaf is held as that leaf.
RAW = {
    "Atom": lambda t: t.text,
    "Str": lambda t: t.text,
    "attrs": lambda t: t.items,
    "hedge": lambda t: t.items,
}


def goal_kind(value):
    """The kind the compiler knows for a goal's binding to `value`, or None
    when only the run would know it (a chain, a compound, or an attribute
    list that is no element's own)."""
    if isinstance(value, Element):
        return "Element"
    if isinstance(value, NODE_TYPES):
        return "node"
    if isinstance(value, Seq) and all(isinstance(i, NODE_TYPES) for i in value.items):
        return "hedge"
    return {Attribute: "attr", Str: "Str", Atom: "Atom"}.get(type(value))


def compiled_parts(rule, theta=None):
    """The head matcher and the output builder that `rule`'s function
    inlines, generated by the same code as functions of their own: the
    matcher returns the head's bindings as a dict of terms, or None, and
    the builder builds the output from such a dict, or raises what
    `term_to_node` raises.  A variable that the head does not bind has
    the kind `goal_kind` gives its value in `theta`; when it has none, the
    variable stands for that value as a term, as a variable bound to a
    term that holds a variable does in a rule."""
    generated = _Rule(rule, True, True)
    # No rule label, as term_to_node has none.
    generated.src.namespace.update(RAW=RAW, _unbuilt=lambda output, theta, _: _unbuilt(output, theta, ""))
    match = _Function("match", ["n"], False)
    scope = {}
    generated.head(match, scope)
    pairs = "".join(f"({name!r}, {b.local}, {b.term()}), " for name, b in sorted(scope.items()))
    match.emit(f"return {{name: t for name, v, t in ({pairs}) if v is not None}}")
    build = _Function("build", ["theta"], False)
    known = {}
    theta = theta or {}
    for name in sorted(set(theta) | set().union(*map(variables_of, rule.output))):
        head = scope.get(name)
        if head is None and name not in theta:
            continue  # free
        kind, leaf = (head.kind, head.leaf) if head is not None else (goal_kind(theta[name]), None)
        if kind is None:
            known[name] = theta[name]  # a chain, a compound, or an attribute list that is no element's own
            continue
        local = generated.src.local()
        known[name] = _Binding(local, kind, leaf)
        build.emit(f"{local} = theta.get({name!r})")
        if kind in RAW:
            build.emit(f"{local} = RAW[{kind!r}]({local})")
        if leaf is not None:  # the head found the string in a leaf of this class
            build.emit(f"{local} = {leaf.__name__}({local})")
    raises = "_unbuilt(RULE.output, {}, RULE.label)"
    build.emit("out = []", *_Output(generated.src, known, raises).lines(rule.output), "return tuple(out)")
    source = "\n".join(match.lines + build.lines)
    exec(compile(source, f"<ltlx {rule.label}>", "exec"), generated.src.namespace)
    return generated.src.namespace["match"], generated.src.namespace["build"]


def graft(rng, term):
    """`term` with one random subterm replaced by a random term."""
    if rng.random() < 0.3 or not isinstance(term, (Compound, Seq)):
        return random_term(rng, depth=2)
    parts = list(term.args if isinstance(term, Compound) else term.items)
    if not parts:
        return term
    i = rng.randrange(len(parts))
    parts[i] = graft(rng, parts[i])
    return Compound(term.functor, tuple(parts)) if isinstance(term, Compound) else Seq(tuple(parts))


def random_head(rng, doc):
    """A head abstracted from a node of `doc`, and that node."""
    node = rng.choice(list(document_order(doc)))
    head = wildcards(rng, abstract(rng, node_to_term(node)))
    for _ in range(2):  # a variable may repeat, and repeat again
        names = sorted(variables_of(head))
        if len(names) >= 2 and rng.random() < 0.4:
            keep, drop = rng.sample(names, 2)
            head = rename(head, drop, keep)
    if rng.random() < 0.15:
        head = graft(rng, head)
    return head, node


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception and its message are the behaviour compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(SEEDS)
def test_compiled_head_binds_what_match_binds(seed):
    rng = random.Random(seed)
    doc = random_document(rng, max_depth=4, max_nodes=30)
    head, source = random_head(rng, doc)
    matcher = compiled_parts(Rule(head, ()))[0]
    for node in document_order(doc):
        assert matcher(node) == match(head, node), (head, node)


def test_most_compiled_heads_match_their_own_node():
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        head, node = random_head(rng, random_document(rng, max_depth=4, max_nodes=30))
        theta = compiled_parts(Rule(head, ()))[0](node)
        assert theta == match(head, node)
        hits += theta is not None
    assert hits > 200


# A repeated variable compares what `match` compares: a hedge that a
# template/2 goal returns as a list equals the children tuple it came
# from, an element name never equals a text's string, and a string that a
# leaf holds equals another leaf's string or an attribute value.
REPEATED_RULES = (
    (
        "template(element(p,_,C),[element(ok,[],[])]):-C=[X],template(X,C).\n"
        "template(element(q,_,_),[element(q,[],[])]).",
        "<p><q/></p>",
        "<ok/>",
    ),
    ("template(element(N,_,[text(N)]),[element(ok,[],[])]).", "<a>a</a>", ""),
    (
        "template(element(a,_,[pi(X),text(X)]),[element(same,[],[])]).",
        "<r><a><?x?>x</a><a><?x?>y</a></r>",
        "<same/>",
    ),
    (
        "template(element(a,[k=X],[text(X)]),[element(same,[],[])]).",
        '<r><a k="v">v</a><a k="v">w</a></r>',
        "<same/>",
    ),
)


def test_every_repeated_occurrence_is_compared():
    head = parse_rules('template(element(a,[k=V],[X,X,text(V),X]),[]).').rules[0].head
    matcher = compiled_parts(Rule(head, ()))[0]
    b, c = element("b"), element("c")
    for children, hit in (
        ([b, b, text("v"), b], True),
        ([b, c, text("v"), b], False),
        ([b, b, text("w"), b], False),
        ([b, b, text("v"), c], False),
    ):
        node = element("a", [("k", "v")], children)
        assert matcher(node) == match(head, node)
        assert (matcher(node) is not None) is hit
    for text_, xml, expected in REPEATED_RULES:
        rules, doc = parse_rules(text_), parse(xml)
        assert "_solve(" not in _Rule(rules.rules[0], True, True).source()
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            moded = rules.with_options(solution_mode=mode)
            hedge = apply_templates(moded, doc)
            assert "".join(map(serialize, hedge)) == expected
            assert hedge == reference_engine.apply_templates(moded, doc)


# A repeated variable whose two sides are both names, both strings or both
# integers compares their raw values, and builds no term to do so.
SCALAR_REPEATS = (
    REPEATED_RULES[2][:2],
    REPEATED_RULES[3][:2],
    ("template(element(a,[k=V,j=V],_),[element(same,[],[])]).", '<r><a k="v" j="v"/><a k="v" j="w"/></r>'),
    (
        "template(element(a,_,[element(V,_,_),element(V,_,_)]),[element(same,[],[])]).",
        "<r><a><b/><b/></a><a><b/><c/></a></r>",
    ),
    (
        "template(X,[element(same,[],[])]):-X=element(a,_,[A,B]),transform(A count,N),transform(B count,N).",
        "<r><a><b><c/></b><b><d/></b></a><a><b/><b><c/></b></a></r>",
    ),
)


@pytest.mark.parametrize("text_, xml", SCALAR_REPEATS)
def test_repeated_scalars_compare_raw_values(text_, xml):
    rules, doc = parse_rules(text_), parse(xml)
    for first in (True, False):
        for coerce in (True, False):
            run = generated_source(text_, first, coerce).split("\ndef ")[0]
            assert "Str(" not in run and "Atom(" not in run and "Int(" not in run, run
            moded = rules.with_options(solution_mode=FIRST_ONLY if first else ALL_SOLUTIONS, coerce_text=coerce)
            hedge = apply_templates(moded, doc)
            assert hedge == reference_engine.apply_templates(moded, doc)
            assert "".join(map(serialize, hedge)).startswith("<same/>"), hedge


# A string that a leaf holds is a string, which a leaf of another type writes.
LEAF_RULES = (
    ("template(element(a,_,[pi(X)]),[text(X)]).", "<r><a><?t d?></a></r>", "t d"),
    ("template(element(a,_,[text(X)]),[comment(X)]).", "<r><a>x</a></r>", "<!--x-->"),
)


@pytest.mark.parametrize("text_, xml, expected", LEAF_RULES)
def test_a_leaf_string_is_read_as_a_string(text_, xml, expected):
    rules, doc = parse_rules(text_), parse(xml)
    assert "_solve(" not in _Rule(rules.rules[0], True, True).source()
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        moded = rules.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert "".join(map(serialize, hedge)) == expected
        assert hedge == reference_engine.apply_templates(moded, doc)


def test_a_bound_text_is_written_as_the_node_itself():
    rules, doc = parse_rules("template(element(a,_,[text(X)]),[text(X)])."), parse("<r><a>x</a></r>")
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        moded = rules.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert hedge == reference_engine.apply_templates(moded, doc) == (text("x"),)
        assert hedge[0] is doc.children[0].children[0]


def test_a_name_bound_by_the_head_meets_a_literal():
    rules = parse_rules("template(element(N,_,_),[element(o,[],[])]):-N=a.")
    source = _Rule(rules.rules[0], True, True).source()
    assert "_solve(" not in source and "if not (v2 == 'a'):" in source, source
    assert apply_templates(rules, element("a")) == (element("o"),)
    assert apply_templates(rules, element("b")) == ()


def test_an_attribute_binding_meets_a_pattern():
    # Only a rule built in Python reaches this: no rule text binds a
    # variable to one attribute and then writes name=value for it in a goal.
    head = Compound("element", (Atom("a"), Seq((Var("X"),)), anon()))
    goal = Unify(Var("X"), Compound("=", (Atom("k"), Var("V"))))
    rules = RuleSet((Rule(head, (Compound("text", (Var("V"),)),), (goal,), 1),))
    source = _Rule(rules.rules[0], True, True).source()
    assert "_solve(" not in source and ".name == 'k'" in source, source
    for xml in ('<a k="v"/>', '<a j="v"/>', '<a k="v" j="w"/>', '<r><a k="1"/><b/><a k="2"/><a/></r>'):
        doc = parse(xml)
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            moded = rules.with_options(solution_mode=mode)
            assert apply_templates(moded, doc) == reference_engine.apply_templates(moded, doc)
    assert apply_templates(rules, parse('<r><a k="1"/><a j="2"/></r>')) == (text("1"),)


def test_a_head_holding_a_node_or_an_attribute_compares_it():
    # A rule built in Python may hold nodes and attributes in its head.
    b = element("b", [("k", "1")])
    head = Compound("element", (Atom("a"), Seq((Attribute("k", "1"),)), Seq((b, Var("X")))))
    matcher = compiled_parts(Rule(head, ()))[0]
    for node, hit in (
        (element("a", [("k", "1")], [element("b", [("k", "1")]), text("t")]), True),
        (element("a", [("k", "2")], [b, text("t")]), False),
        (element("a", [("k", "1")], [element("b"), text("t")]), False),
    ):
        assert matcher(node) == match(head, node)
        assert (matcher(node) is not None) is hit


# --- output builders ----------------------------------------------------------


def random_value(rng, doc, names):
    """What a goal might bind a variable to: often the wrong kind for its position.

    Variables in the value are drawn from `names`, which holds no variable
    bound to a value that leads back here, so every chain ends.
    """
    nodes = list(document_order(doc))
    choices = (
        lambda: rng.choice(nodes),
        lambda: Str(rng.choice(("s", "", 'q"\\'))),
        lambda: Atom(rng.choice(("e", "f"))),
        lambda: Seq(tuple(rng.sample(nodes, min(2, len(nodes))))),
        lambda: Seq((Attribute("k", "1"), Attribute(rng.choice("kj"), "2"))),
        lambda: Attribute("m", "3"),
        lambda: Compound("=", (Atom("n"), Str("4"))),
        lambda: Compound("element", (Atom("g"), Seq(()), Seq((Var(rng.choice(names)),)))),
        lambda: Var(rng.choice(names)),  # a chain to another variable, perhaps unbound
        lambda: random_term(rng, depth=2),
    )
    return rng.choice(choices)()


FITS = {
    "node": lambda v: isinstance(v, NODE_TYPES),
    "str": lambda v: isinstance(v, Str),
    "atom": lambda v: isinstance(v, Atom),
    "attr": lambda v: isinstance(v, Attribute),
    "attrs": lambda v: isinstance(v, Seq) and all(isinstance(i, Attribute) for i in v.items),
    "hedge": lambda v: isinstance(v, Seq) and all(isinstance(i, NODE_TYPES) for i in v.items),
}
LITERALS = {
    "node": Compound("text", (Str("l"),)),
    "str": Str("l"),
    "atom": Atom("l"),
    "attr": Compound("=", (Atom("l"), Str("l"))),
    "attrs": Seq(()),
    "hedge": Seq(()),
}


def hold_leaf_strings(rng, term, held):
    """`term` with about half the strings its text, PI and comment leaves
    hold made variables.  Adds to `held`, by leaf functor, each variable
    that a leaf of the result holds as its string."""
    if type(term) is Compound and term.functor in ("text", "pi", "comment") and len(term.args) == 1:
        string = term.args[0]
        if type(string) is Str and rng.random() < 0.5:
            string = Var(f"L{sum(map(len, held.values())) + 1}")
        if type(string) is Var:
            held.setdefault(term.functor, []).append(string.name)
        return Compound(term.functor, (string,))
    if type(term) is Compound:
        return Compound(term.functor, tuple(hold_leaf_strings(rng, a, held) for a in term.args))
    if type(term) is Seq:
        return Seq(tuple(hold_leaf_strings(rng, i, held) for i in term.items))
    return term


def random_output(rng, theta, names, held, depth=2):
    """A node-shaped template over `names`.

    Most variables are put where their binding fits, and a literal where
    none does; about one position in ten gets any variable, or a term
    that is not node-shaped there.  When the head holds strings in leaves
    (`held`, see `hold_leaf_strings`), a position in four gets such a
    string in a leaf of the same type, which the builder passes on as the
    bound leaf itself.
    """

    def var(need):
        fitting = [n for n in names if FITS[need](theta.get(n))]
        if rng.random() < 0.1:
            return Var(rng.choice(names))
        return Var(rng.choice(fitting)) if fitting else LITERALS[need]

    def odd():
        return rng.random() < 0.1

    if held and rng.random() < 0.25:
        leaf = rng.choice(sorted(held))
        return Compound(leaf, (Var(rng.choice(held[leaf])),))
    roll = rng.random()
    if roll < 0.25:
        return var("node")
    if odd():
        return rng.choice((Atom("a"), Seq(()), Compound("f", (var("node"),)), anon()))
    if depth == 0 or roll < 0.45:
        content = rng.choice((Str(rng.choice(("t", "", "x'y"))), var("str")))
        if odd():
            content = rng.choice((Atom("a"), anon(), var("node")))
        return Compound(rng.choice(("text", "text", "pi", "comment")), (content,))
    name = rng.choice((Atom("e"), Atom("f"), var("atom")))
    if odd():
        name = rng.choice((Str("s"), Compound("g", ()), var("str")))
    items = []
    for _ in range(rng.randint(0, 3)):
        items.append(rng.choice((
            var("attr"),
            Compound("=", (Atom(rng.choice("kjm")), Str("v"))),
            Compound("=", (var("atom"), var("str"))),
            Compound("=", (Atom(rng.choice("kjm")), var("str"))),
        )))
        if odd():
            items[-1] = rng.choice((Atom("k"), var("node"), Compound("=", (Str("k"), Str("v")))))
    attrs = Seq(tuple(items)) if rng.random() < 0.6 else var("attrs")
    if odd():
        attrs = rng.choice((anon(), var("hedge"), Atom("a")))
    if rng.random() < 0.7:
        children = Seq(tuple(random_output(rng, theta, names, held, depth - 1) for _ in range(rng.randint(0, 3))))
    else:
        children = var("hedge")
    if odd():
        children = rng.choice((anon(), var("attrs"), Atom("a")))
    return Compound("element", (name, attrs, children))


def random_build(rng):
    """A rule's output templates and bindings as its goals might leave them."""
    doc = random_document(rng, max_depth=4, max_nodes=30)
    head, node = random_head(rng, doc)
    held = {}
    head = hold_leaf_strings(rng, head, held)
    theta = match(head, node)
    if theta is None:  # a builder only ever sees the bindings of a matched head
        head, theta, held = Var("H"), {"H": node}, {}
    # Variables a goal binds, and one that stays unbound.
    goal_names = ["G1", "G2", "G3"]
    for i, name in enumerate(goal_names):
        if rng.random() < 0.8:
            theta[name] = random_value(rng, doc, sorted(theta) + goal_names[:i] + ["U1"])
    names = sorted(theta) + goal_names + ["U1"]
    output = tuple(random_output(rng, theta, names, held) for _ in range(rng.randint(1, 3)))
    return Rule(head, output), theta


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(SEEDS)
def test_compiled_output_builds_what_term_to_node_builds(seed):
    rule, theta = random_build(random.Random(seed))
    expected = outcome(lambda: tuple(term_to_node(t, theta) for t in rule.output))
    assert outcome(lambda: compiled_parts(rule, theta)[1](theta)) == expected, (rule, theta)


def test_many_random_outputs_build():
    rng = random.Random(11)
    built = 0
    for _ in range(300):
        rule, theta = random_build(rng)
        try:
            compiled_parts(rule, theta)[1](theta)
        except LtlxError:  # ShapeError, UnboundOutputError or DuplicateAttributeError
            continue
        built += 1
    assert built > 80


def test_builder_shares_bound_subtrees_and_fails_as_term_to_node_does():
    rule = parse_rules(
        'template(element(a,A,[X]),[element(b,A,[X,Y]),text(T)]):-Y=X,T="t".'
    ).rules[0]
    build = lambda theta: compiled_parts(rule, theta)[1](theta)  # noqa: E731
    node = element("a", [("k", "v")], [element("x")])
    theta = match(rule.head, node)
    b, t = build({**theta, "Y": node.children[0], "T": Str("t")})
    assert b.children[0] is b.children[1] is node.children[0]
    assert b.attributes is node.attributes and t == text("t")
    # A goal's binding of another kind than its position reads, or of a
    # kind only the run knows, leaves the output to term_to_node.
    for goals, error, message in (
        ({"Y": Str("s"), "T": Str("t")}, ShapeError, 'not a node term: "s"'),
        ({"Y": node, "T": Atom("s")}, ShapeError, "text content must be a string: text(s)"),
        ({"T": Str("t")}, UnboundOutputError, "unbound variable Y"),
        ({"Y": Var("Z"), "Z": node, "T": Var("W")}, UnboundOutputError, "unbound variable W"),
    ):
        with pytest.raises(error) as err:
            build({**theta, **goals})
        assert str(err.value) == message
    chained = build({**theta, "Y": Var("Z"), "Z": node, "T": Str("t")})
    assert chained == (element("b", [("k", "v")], [element("x"), node]), text("t"))


# --- generated source ---------------------------------------------------------

NASTY = 'q\'uote "dq" back\\slash """triple""" new\nline ) paren'


def test_rule_text_cannot_break_the_generated_source():
    escaped = NASTY.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    rules = parse_rules(
        f'template(element(λόγος,[k="{escaped}",Element=V],[text(Text)]),\n'
        f'   [element(ἔξοδος,[v="{escaped}",w=V],[text(Text),element(l,[],[text("{escaped}")])])]).\n'
        "template(element(r,_,[OUTPUT,K1]),[element(pair,[],[K1,OUTPUT])]).\n"
    )
    doc = element(
        "doc",
        [],
        [element("λόγος", [("k", NASTY), ("ü", "ö")], [text(NASTY)]), element("r", [], [text("a"), text("b")])],
    )
    hedge = apply_templates(rules, doc)
    assert hedge == (
        element("ἔξοδος", [("v", NASTY), ("w", "ö")], [text(NASTY), element("l", [], [text(NASTY)])]),
        element("pair", [], [text("b"), text("a")]),
    )
    assert parse(serialize(hedge[0])) == hedge[0]
    # A literal one character longer than the document's value does not match.
    assert apply_templates(rules, element("λόγος", [("k", NASTY[:-1]), ("ü", "ö")], [text("x")])) == ()


def test_generated_functions_are_named_after_their_rule():
    rules = parse_rules(
        "template(element(a,_,_),[element(b,[],[])]).\n"
        'template(element(c,_,_),[element(d,[],[X])]):-X="s".\n'
    )
    _, run = _compile(rules.rules[1], True, True)
    assert run.__code__.co_filename == "<ltlx rule at line 2>"
    with pytest.raises(ShapeError) as err:
        run(element("c"), rules, element("c"), [])
    assert "<ltlx rule at line 2>" in [frame.filename for frame in traceback.extract_tb(err.tb)]


def test_a_rule_set_compiles_once_for_its_own_options():
    source = "template(element(a,[],[]),[element(b,[],[])])."
    rules = parse_rules(source)
    doc = element("r", [], [element("a")])
    apply_templates(rules, doc)
    (compiled,) = rules._compiled
    apply_templates(rules, doc)
    assert len(rules._compiled) == 1 and rules._compiled[0] is compiled
    copy = rules.with_options(solution_mode=ALL_SOLUTIONS)
    apply_templates(copy, doc)
    (copied,) = copy._compiled
    assert copied is not compiled and copied["a"] is not compiled["a"]
    apply_templates(copy, doc)
    assert len(copy._compiled) == 1 and copy._compiled[0] is copied
    assert rules == parse_rules(source)  # the compiled code is no part of a rule set's value


# --- the index ----------------------------------------------------------------

INDEXED_RULES = """\
template(element(item,_,[text(T)]),[element(first,[],[text(T)])]):-T="a".
template(X,[element(guard,[z=Z],[text(F)])]):-X=element(_,_,_),transform(X@flag,F),transform(X/z,Z).
template(element(item,_,_),[element(second,[],[])]).
template(text(T),[element(t,[],[text(T)])]).
template(element(N,[k=V],_),[element(var,[n=V],[])]).
"""
INDEXED_DOC = (
    '<doc><item>a</item><item flag="f"><z>1</z><z>2</z></item><item flag="g">b</item><item>b</item>'
    '<other k="1"/><unknown k="2"><z/></unknown><box><item>a</item></box>tail</doc>'
)


def test_index_buckets_keep_source_order():
    rs = parse_rules(INDEXED_RULES)
    index = index_rules(rs.rules, FIRST_ONLY, True)
    lines = lambda key: [rule.line for rule, _ in index[key]]  # noqa: E731
    assert lines("item") == [1, 2, 3, 5]
    assert "nowhere" not in index and lines(Element) == [2, 5]  # an element of a name no head writes
    assert lines(Text) == [2, 4]
    assert lines(type(parse("<a><?p x?></a>").children[0])) == [2]
    # The engine looks an element of such a name up in the Element bucket, where both rules fire.
    assert apply_templates(rs, element("nowhere", [("k", "1")])) == (element("var", [("n", "1")]),)
    assert apply_templates(rs, parse('<nowhere flag="f"><z>1</z></nowhere>')) == (
        element("guard", [("z", "1")], [text("f")]),
    )


def test_index_keeps_the_red_cut_and_source_order_in_both_modes():
    rs = parse_rules(INDEXED_RULES)
    doc = parse(INDEXED_DOC)
    first = '<guard z="1">f</guard>'
    rest = '<second/><second/><var n="1"/><var n="2"/><first>a</first><t>tail</t>'
    for mode, guard in ((FIRST_ONLY, first), (ALL_SOLUTIONS, first + '<guard z="2">f</guard>')):
        moded = rs.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert "".join(map(serialize, hedge)) == "<first>a</first>" + guard + rest
        assert hedge == reference_engine.apply_templates(moded, doc)


def test_node_of_an_unknown_type_meets_only_variable_heads():
    class Marker(Text):
        pass

    rs = parse_rules(INDEXED_RULES)
    index = index_rules(rs.rules, FIRST_ONLY, True)
    assert Marker not in index and [rule.line for rule, _ in index[None]] == [2]
    # The engine looks a node of such a type up in the None bucket, where a variable head fires.
    anything = parse_rules("template(text(T),[element(t,[],[])]).\ntemplate(X,[element(any,[],[])]).")
    assert apply_templates(anything, Marker("x")) == (element("any"),)


# --- bodies and paths nested deeper than one function holds ------------------


def test_long_bodies_paths_and_nested_nots_compile_and_agree_with_the_reference():
    # 15 transform goals nest past one function's loops, a path has 14
    # steps, and not/1 nests 31 deep; each agrees with the reference in
    # both modes.
    chain = ",".join(f"transform(X//p{'#1' * bool(i)}#,T{i})" for i in range(15))
    texts = ",".join(f"text(T{i})" for i in (0, 7, 14))
    steps = "/a" * 13 + "#"
    nots = "not(" * 31 + "X=element(zz,_,_)" + ")" * 31
    rules = parse_rules(
        f"template(X,[element(o,[],[{texts}])]):-X=element(r,_,_),{chain}.\n"
        f"template(X,[text(T)]):-X=element(s,_,_),transform(X{steps},T).\n"
        f"template(X,[element(n,[],[])]):-X=element(q,_,_),{nots}.\n"
    )
    deep = "<a>" * 13 + "deep" + "</a>" * 13
    doc = parse(f"<d><r><p>1</p><p>2</p></r><s>{deep}</s><q/></d>")
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        moded = rules.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert hedge == reference_engine.apply_templates(moded, doc)
        assert len(hedge) == (1 if mode == FIRST_ONLY else 2) + 2
    assert apply_templates(rules, doc) == (
        element("o", [], [text("1"), text("1"), text("1")]), text("deep"), element("n")
    )


# --- what the compiler specialises --------------------------------------------

# Rules of the benchmark's catalog rule set, copied.
FLAG_RULE = (
    "template(X,[element(flagged,[],[text(N)])]):-\n"
    '   transform(X@flag,F),F="hot",transform(X/name#,N).'
)
HEADER_RULE = "template(element(header,_,[text(T)]),[element(h1,[],[text(T)])])."
PRICE_RULE = (
    "template(element(item,A,[element(name,_,[text(N)]),element(price,_,[text(P)])]),\n"
    "   [element(row,A,[element(n,[],[text(N)]),element(p,[],[text(P)])])])."
)


# Rules of the benchmark's structural rule set, copied: a repeated head
# variable, and an `=` goal that builds a node from the head's parts.
PAIR_RULE = "template(element(pair,_,[A,A]),[element(same,[],[text(W)])]):-transform(A//w#1/#,W)."
PICK_RULE = (
    "template(element(bag,As,Cs),[element(pick,[],[text(T)])]):-\n"
    "   B=element(bag,As,Cs),transform(B//k#,T)."
)
# Calls into the term layer, which no sample or benchmark rule makes, and the terms only such calls read.
INTERPRETER = ("_solve(", "_unify", "_bound_node", "_unbuilt")
BOXES = ("Str(", "Int(", "Seq(")


def generated_source(text, first=True, coerce=True):
    return _Rule(parse_rules(text).rules[0], first, coerce).source()


def test_benchmark_rules_are_specialised_in_both_modes():
    for text in (FLAG_RULE, HEADER_RULE, PRICE_RULE, PAIR_RULE, PICK_RULE):
        for first in (True, False):
            source = generated_source(text, first)
            assert not [name for name in INTERPRETER + BOXES if name in source], source
            # The options are compiled in: the function reads neither from the rule set.
            assert "rs." not in source and "FIRST" not in source, source
            assert ("if not v3 == v2[1]:" in source) == (text is PAIR_RULE), source  # only the [A,A] compare
    # The pick rule's node is built once, from the bag's own attribute and child tuples.
    assert "Element('bag', v2, v3)" in generated_source(PICK_RULE)


def test_every_sample_rule_is_specialised():
    for path in sorted(SAMPLES.glob("*/rules.ltl")):
        for rule in parse_rules(path.read_text(encoding="utf-8")).rules:
            source = _Rule(rule, True, True).source()
            assert not [name for name in INTERPRETER + BOXES if name in source], (path, source)
            assert ("if not v3 == v2[1]:" in source) == ("[A,A]" in repr(rule.head)), (path, source)


def test_a_tested_start_is_not_tested_again():
    # X@flag tests that X is an element; X/name# then knows it.
    flag = generated_source(FLAG_RULE)
    assert flag.count("if type(n) is not Element:") == 1, flag


def test_a_matched_element_is_not_tested_again():
    # X=element(item,_,_) proves X an element, in run and in the not/1 goal's function,
    # and the attribute scan of not(transform(X@flag,_)) keeps no value.
    for first in (True, False):
        for coerce in (True, False):
            run, negated = generated_source(COMPILED_RESIDUE["not"], first, coerce).split("\ndef ")
            assert len(re.findall(r"type\((v\d+ := )?n\)", run)) == 1, run
            assert "type(" not in negated and ".value" not in negated, negated


def test_the_solution_mode_and_coercion_are_compiled_in():
    first, every = generated_source(FLAG_RULE), generated_source(FLAG_RULE, first=False)
    # Only the attribute scan breaks.  In first-solution mode the rule commits: once X/name# gives
    # its first value the output returns, and the function fails where the path's loops run out.
    assert (first.count("break"), every.count("break")) == (1, 1)
    assert "found" not in first and every.count("found") == 3
    assert first.endswith("            return True\n    return None"), first
    # Without coercion X/name# reads a text node only, so the element's text never matches.
    assert "for " not in generated_source("template(X,[text(N)]):-transform(X#,N).", coerce=False)
    assert "_coerced_text(" in generated_source("template(X,[text(N)]):-transform(X/name,N).")
    assert "_coerced_text(" not in generated_source("template(X,[N]):-transform(X/name,N).", coerce=False)


def test_node_local_paths_and_bound_leaves_are_inlined():
    flag = generated_source(FLAG_RULE)
    assert "_path_values(" not in flag and "eval_path" not in flag
    assert "Str(" not in flag  # F="hot" compares the attribute's str, N is its text node
    for passthrough in (HEADER_RULE, PRICE_RULE):
        source = generated_source(passthrough)
        assert "Str(" not in source and "Text(" not in source and "Seq(" not in source, source
    # The row's attribute list is the item's own tuple, unchecked, and a one-node hedge is appended.
    price = generated_source(PRICE_RULE)
    assert ".items" not in price and "unique_attributes" not in price
    assert "out.append(" in generated_source(HEADER_RULE)


@pytest.mark.parametrize("path", ["X//name#", "X/name#1", "X lvl", 'X id("1")', "X/a/b/c/d#", "X count"])
def test_other_paths_still_run_through_eval_path(path):
    source = generated_source(f"template(X,[element(o,[],[])]):-transform({path},V).")
    assert "_path_values(" in source and "_solve(" not in source  # V is never used


def test_inlined_paths_keep_eval_path_results_in_both_modes():
    rules = parse_rules(FLAG_RULE + "\n" + HEADER_RULE + "\n" + PRICE_RULE)
    doc = parse(
        '<c><header>H</header><item flag="hot"><name>a</name><name>b</name><price>1</price></item>'
        '<item sku="s" flag="cold"><name>c</name><price>2</price></item><item flag="hot"/></c>'
    )
    first = "<h1>H</h1><flagged>a</flagged>"
    row = '<row sku="s" flag="cold"><n>c</n><p>2</p></row>'
    for mode, flagged in ((FIRST_ONLY, ""), (ALL_SOLUTIONS, "<flagged>b</flagged>")):
        moded = rules.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert "".join(map(serialize, hedge)) == first + flagged + row
        assert hedge == reference_engine.apply_templates(moded, doc)
    header = apply_templates(rules, doc)[0]
    assert header.children[0] is doc.children[0].children[0]  # the bound text node itself
    # X/a commits to the first a, which has no k, so only all-solutions mode writes anything.
    rules = parse_rules("template(X,[element(o,[],[text(K)])]):-transform(X/a,A),transform(A@k,K).")
    doc = parse('<r><a/><a k="y"/><a k="z"/></r>')
    for mode, expected in ((FIRST_ONLY, ""), (ALL_SOLUTIONS, "<o>y</o><o>z</o>")):
        moded = rules.with_options(solution_mode=mode, coerce_text=False)
        assert "_solve(" not in _Rule(moded.rules[0], mode == FIRST_ONLY, False).source()
        hedge = apply_templates(moded, doc)
        assert "".join(map(serialize, hedge)) == expected
        assert hedge == reference_engine.apply_templates(moded, doc)


# --- not/1, compound and aliasing =, values of run-time kinds, long bodies ---

# Rules whose code needs more than locals of kinds known at compile time: a not/1 goal,
# a compound or aliasing `=`, a value whose kind the run tests, a body past 16 loops.
CHAIN = ",".join(f"transform(X//p#,T{i})" for i in range(15))  # one loop each, past one function's 16
COMPILED_RESIDUE = {
    "not": "template(X,[element(plain,[],[text(N)])]):-"
    "X=element(item,_,_),not(transform(X@flag,_)),transform(X/name#,N).",
    "compound =": "template(element(item,_,C),[O]):-g(O,K)=g(element(wrap,[],K),C).",
    "count output": "template(X,[element(n,[],[text(N)])]):-X=element(item,_,_),transform(X count,N).",
    "child output": "template(X,[element(k,[],[text(K)])]):-X=element(item,_,_),transform(X child,K).",
    "past 16 loops": f"template(X,[element(o,[],[text(T0),text(T14)])]):-X=element(r,_,_),{CHAIN}.",
    "alias and not": "template(X,[text(T0)]):-Y=X,not(Y=element(q,_,_)),"
    + ",".join(f"transform(Y//p#,T{i})" for i in range(15))
    + ".",
    "fresh alias": "template(X,[element(a,[],[text(A)])]):-X=element(item,_,_),A=B,transform(X/name#,B).",
    "count compared": "template(X,[element(one,[],[])]):-X=element(item,_,_),transform(X count,N),N=1.",
    "lvl output": "template(X,[element(l,[],[text(L)])]):-X=element(p,_,_),transform(X lvl,L).",
    "lvl pattern": "template(X,[element(at,[],[])]):-X=element(E,_,_),transform(X lvl,[3]).",
    "child meets text": "template(X,[element(k,[],[text(C)])]):-X=element(q,_,_),transform(X child,text(C)).",
    "built goal node": "template(X,[element(w,[],R)]):-X=element(q,_,_),template(element(r,[],[text(\"t\")]),R).",
    "occurs": "template(X,[element(o,[],[])]):-X=element(item,_,_),not(Y=f(Y)).",
}
RESIDUE_DOC = (
    '<r><item flag="hot"><name>a</name><name>b</name></item><item><name>c</name></item><p>1</p><q>2</q></r>'
)


@pytest.mark.parametrize("name", sorted(COMPILED_RESIDUE))
def test_residue_forms_compile_and_agree_with_the_reference(name):
    rules = parse_rules(COMPILED_RESIDUE[name])
    doc = parse(RESIDUE_DOC)
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        for coerce_text in (True, False):
            assert "_solve(" not in _Rule(rules.rules[0], mode == FIRST_ONLY, coerce_text).source()
            moded = rules.with_options(solution_mode=mode, coerce_text=coerce_text)
            got = outcome(lambda: "".join(map(serialize, apply_templates(moded, doc))))
            expected = outcome(lambda: "".join(map(serialize, reference_engine.apply_templates(moded, doc))))
            if type(expected) is tuple:  # the same exception type; the reference words its own messages
                expected, got = expected[0], got[0] if type(got) is tuple else got
            assert got == expected, (name, mode, coerce_text)


# --- = goals solved at compile time, and goal nodes the code cannot build -----

# (goal, output, the serialized hedge on UNIFY_DOC).  The first five need no code: a
# wildcard side, or two equal terms.  Two lists split into pairs; a pair of atoms, or
# lists of two lengths, that differ never unify.
UNIFY_GOALS = (
    ("X=_", "element(ok,[],[])", "<ok/>"),
    ("_=a", "element(ok,[],[])", "<ok/>"),
    ("a=a", "element(ok,[],[])", "<ok/>"),
    ('"s"="s"', "element(ok,[],[])", "<ok/>"),
    ("f(X)=f(X)", "element(ok,[],[])", "<ok/>"),
    ("[A,B]=[C,D]", "element(ok,[],[])", "<ok/>"),
    ('[T,x]=["s",x]', "text(T)", "s"),
    ("a=b", "element(ok,[],[])", ""),
    ('[T,x]=["s",y]', "text(T)", ""),
    ("[A]=[B,C]", "element(ok,[],[])", ""),
)
UNIFY_DOC = "<r><a/><b/></r>"


@pytest.mark.parametrize("goal, output, expected", UNIFY_GOALS)
def test_compile_time_unification_agrees_with_the_reference(goal, output, expected):
    rules = parse_rules(f"template(element(a,_,_),[{output}]):-{goal}.")
    doc = parse(UNIFY_DOC)
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        moded = rules.with_options(solution_mode=mode)
        hedge = apply_templates(moded, doc)
        assert hedge == reference_engine.apply_templates(moded, doc), (goal, mode)
        assert "".join(map(serialize, hedge)) == expected, (goal, mode)
    if goal in [g for g, _, _ in UNIFY_GOALS[:5]]:  # no code: the function of the rule without the goal
        for first in (True, False):
            plain = generated_source(f"template(element(a,_,_),[{output}]).", first)
            assert generated_source(f"template(element(a,_,_),[{output}]):-{goal}.", first) == plain


def test_a_goal_node_that_can_only_raise_ends_the_function():
    text_ = "template(element(zz,_,_),[O]):-template(3,O)."
    for first in (True, False):
        for coerce in (True, False):
            run = generated_source(text_, first, coerce)
            assert run.splitlines()[-1].lstrip().startswith("_bound_node("), run
            assert "_emit(" not in run and "_unbuilt(" not in run, run
    rules = parse_rules(text_)
    for engine in (apply_templates, reference_engine.apply_templates):
        with pytest.raises(TypeMismatchError) as err:
            engine(rules, parse("<zz/>"))
        assert str(err.value) == "template goal node is not a node: 3"


def test_a_goal_node_that_may_not_be_a_node_raises_only_then():
    # Under coercion T is a child that is no element, or the string of an element child's
    # text; only a string fails the build.
    rules = parse_rules("template(X,[element(o,[],R)]):-X=element(a,_,_),transform(X child,T),"
                        "template(element(w,[],[T]),R).")
    outcomes = {}
    for xml in ("<a>x<b>y</b></a>", "<a><b>y</b>x</a>"):
        doc = parse(xml)
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            moded = rules.with_options(solution_mode=mode)
            outcomes[xml, mode] = outcome(lambda: apply_templates(moded, doc))
            assert outcomes[xml, mode] == outcome(lambda: reference_engine.apply_templates(moded, doc))
    raised = (TypeMismatchError, 'template goal node is not a node: element(w,[],["y"])')
    assert outcomes["<a>x<b>y</b></a>", FIRST_ONLY] == (element("o"),)
    assert outcomes["<a>x<b>y</b></a>", ALL_SOLUTIONS] == raised
    assert outcomes["<a><b>y</b>x</a>", FIRST_ONLY] == raised
    run = _Rule(rules.rules[0], True, True).source()
    assert re.search(r"if type\((v\d+)\) is str:\n +_bound_node\(.*\n +v\d+ = Element\('w', \(\), \(\1, \)\)", run), run
