"""Compiled rules against the interpreter they replace.

A compiled head matcher must bind what `terms.match(head, node)` binds,
or fail where it fails; a compiled output builder must build what
`term_to_node` builds from the same bindings, or raise the same
exception with the same message.  Heads are abstracted from random
documents (`conftest.abstract`), with repeated variables, `_`,
attribute-list variables and name=V items, and some get a random term
grafted in where no node position can take it.  The other tests pin
the index's source order and red cut, rule text that could break
generated source, and the file name that tracebacks show.
"""

import random
import traceback

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
from conftest import abstract, random_document, random_term, rename, wildcards
from reference_engine import node_to_term
from ltlx import parse, parse_rules, serialize
from ltlx.compiler import _compile
from ltlx.engine import apply_templates
from ltlx.errors import LtlxError, ShapeError, UnboundOutputError
from ltlx.nodes import PI, Attribute, Comment, Element, Text, document_order, element, text
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY
from ltlx.rules import Rule
from ltlx.terms import Atom, Compound, Seq, Str, Var, anon, match, term_to_node, variables_of

SEEDS = st.integers(0, 2**32 - 1)


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
    matcher = _compile(Rule(head, ()))[1]
    for node in document_order(doc):
        assert matcher(node) == match(head, node), (head, node)


def test_most_compiled_heads_match_their_own_node():
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        head, node = random_head(rng, random_document(rng, max_depth=4, max_nodes=30))
        theta = _compile(Rule(head, ()))[1](node)
        assert theta == match(head, node)
        hits += theta is not None
    assert hits > 200


def test_every_repeated_occurrence_is_compared():
    head = parse_rules('template(element(a,[k=V],[X,X,text(V),X]),[]).').rules[0].head
    matcher = _compile(Rule(head, ()))[1]
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


NODE_TYPES = (Element, Text, PI, Comment)
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


def random_output(rng, theta, names, depth=2):
    """A node-shaped template over `names`.

    Most variables are put where their binding fits, and a literal where
    none does; about one position in ten gets any variable, or a term
    that is not node-shaped there.
    """

    def var(need):
        fitting = [n for n in names if FITS[need](theta.get(n))]
        if rng.random() < 0.1:
            return Var(rng.choice(names))
        return Var(rng.choice(fitting)) if fitting else LITERALS[need]

    def odd():
        return rng.random() < 0.1

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
        children = Seq(tuple(random_output(rng, theta, names, depth - 1) for _ in range(rng.randint(0, 3))))
    else:
        children = var("hedge")
    if odd():
        children = rng.choice((anon(), var("attrs"), Atom("a")))
    return Compound("element", (name, attrs, children))


def random_build(rng):
    """A rule's output templates and bindings as its goals might leave them."""
    doc = random_document(rng, max_depth=4, max_nodes=30)
    head, node = random_head(rng, doc)
    theta = match(head, node)
    if theta is None:  # a builder only ever sees the bindings of a matched head
        head, theta = Var("H"), {"H": node}
    # Variables a goal binds, and one that stays unbound.
    goal_names = ["G1", "G2", "G3"]
    for i, name in enumerate(goal_names):
        if rng.random() < 0.8:
            theta[name] = random_value(rng, doc, sorted(theta) + goal_names[:i] + ["U1"])
    names = sorted(theta) + goal_names + ["U1"]
    output = tuple(random_output(rng, theta, names) for _ in range(rng.randint(1, 3)))
    return Rule(head, output), theta


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(SEEDS)
def test_compiled_output_builds_what_term_to_node_builds(seed):
    rule, theta = random_build(random.Random(seed))
    expected = outcome(lambda: tuple(term_to_node(t, theta) for t in rule.output))
    assert outcome(lambda: _compile(rule)[2](theta)) == expected, (rule, theta)


def test_many_random_outputs_build():
    rng = random.Random(11)
    built = 0
    for _ in range(300):
        rule, theta = random_build(rng)
        try:
            _compile(rule)[2](theta)
        except LtlxError:  # ShapeError, UnboundOutputError or DuplicateAttributeError
            continue
        built += 1
    assert built > 80


def test_builder_shares_bound_subtrees_and_fails_as_term_to_node_does():
    rule = parse_rules(
        'template(element(a,A,[X]),[element(b,A,[X,Y]),text(T)]):-Y=X,T="t".'
    ).rules[0]
    build = _compile(rule)[2]
    node = element("a", [("k", "v")], [element("x")])
    theta = match(rule.head, node)
    b, t = build({**theta, "Y": node.children[0], "T": Str("t")})
    assert b.children[0] is b.children[1] is node.children[0]
    assert b.attributes is node.attributes and t == text("t")
    # Bindings a goal made are checked; the head's are known by their position.
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
    _, matcher, builder = _compile(rules.rules[1])
    assert matcher.__code__.co_filename == builder.__code__.co_filename == "<ltlx rule at line 2>"
    with pytest.raises(ShapeError) as err:
        builder({"X": Str("s")})
    assert "<ltlx rule at line 2>" in [frame.filename for frame in traceback.extract_tb(err.tb)]


def test_with_options_copies_share_the_compiled_rules():
    source = "template(element(a,[],[]),[element(b,[],[])])."
    rules = parse_rules(source)
    doc = element("r", [], [element("a")])
    apply_templates(rules, doc)
    copy = rules.with_options(solution_mode=ALL_SOLUTIONS)
    assert copy.rules_for(doc.children[0]) is rules.rules_for(doc.children[0])
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
    lines = lambda node: [rule.line for rule, _, _ in rs.rules_for(node)]  # noqa: E731
    assert lines(element("item")) == [1, 2, 3, 5]
    assert lines(element("nowhere")) == [2, 5]
    assert lines(text("x")) == [2, 4]
    assert lines(parse("<a><?p x?></a>").children[0]) == [2]


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
    assert [rule.line for rule, _, _ in rs.rules_for(Marker("x"))] == [2]
