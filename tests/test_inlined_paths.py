"""Differential test: transform goals with inlined paths against the reference.

A transform goal whose path is a few `/name` or `child` steps, then maybe
`@name` or `#`, runs as loops inside its rule's function instead of
through `eval_path`.  Here the engine and reference_engine.py (whose
paths go through the naive evaluator in reference_paths.py) run such
goals on generated catalogs whose attribute or child is present, absent
or repeated, a text-only or a mixed element, and whose variable heads
also meet text, comment and PI nodes as the path's start.  Both solution
modes and both text-coercion modes must give the same hedge, or raise
the same exception type with the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
from ltlx import eval_path, parse_path_text, parse_rules
from ltlx.compiler import _inlined
from ltlx.engine import apply_templates
from ltlx.nodes import PI, Comment, Text, element
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY
from ltlx.rules import Not, Transform

# Each rule's transform goals have inlined paths.
RULES = (
    'template(X,[element(f,[],[text(F)])]):-transform(X@flag,F).',
    'template(X,[element(f,[],[text(F)])]):-transform(X@flag,F),F="hot".',
    "template(X,[element(n,[],[text(N)])]):-transform(X/name#,N).",
    "template(X,[element(n,[],[N])]):-transform(X/name,N).",
    "template(X,[element(c,[],[C])]):-transform(X child,C).",
    "template(X,[text(T)]):-transform(X#,T).",
    "template(X,[text(T)]):-transform(X child#,T).",
    "template(X,[text(T)]):-transform(X child/name#,T).",
    "template(X,[text(T)]):-transform(X/name/b#,T).",
    "template(X,[element(a,[k=F],[])]):-transform(X child@flag,F).",
    "template(X,[element(b,[],[B])]):-transform(X/name child,B).",
    # The start is an element, as the goal before the transform found.
    "template(X,[element(n,[],[text(N)])]):-X=element(item,_,_),transform(X/name#,N).",
    "template(X,[element(b,[],[text(N)])]):-X=element(item,_,_),transform(X/name/b#,N).",
    # Two goals: the order of their solutions, and a value compared with a bound one.
    "template(X,[element(p,[],[text(N),text(M)])]):-transform(X/name#,N),transform(X child/b#,M).",
    "template(X,[text(N)]):-transform(X/name#,N),transform(X/name#,N).",
    "template(X,[text(F)]):-transform(X@flag,F),transform(X/name#,F).",
    "template(X,[element(u,[],[])]):-not(transform(X@flag,_)),transform(X child,_).",
    # The start is a term that a goal built, not a node the head bound.
    "template(element(item,As,Cs),[text(N)]):-Y=element(w,As,Cs),transform(Y/name#,N).",
    "template(element(item,As,Cs),[text(F)]):-Y=element(w,As,Cs),transform(Y@flag,F).",
    # The result is a pattern, not a variable.
    'template(X,[element(h,[],[])]):-transform(X@flag,"hot").',
    "template(X,[element(t,[],[text(C)])]):-transform(X child,text(C)).",
)

texts = st.sampled_from(("hot", "cold", "a b", ""))
leaves = st.one_of(
    texts.filter(bool).map(Text),
    st.just(Comment("c")),
    st.just(PI("t d")),
)
names = st.one_of(
    texts.filter(bool).map(lambda t: element("name", [], [Text(t)])),  # text-only
    st.just(element("name")),  # empty
    st.just(element("name", [], [Text("x"), element("b", [], [Text("y")]), Text("z")])),  # mixed
    st.just(element("name", [], [element("b")])),
)


@st.composite
def items(draw):
    attributes = [("flag", draw(texts))] if draw(st.booleans()) else []
    if draw(st.booleans()):
        attributes.append(("k", "1"))
    # The name child absent, once, or repeated, among other children.
    children = draw(st.lists(st.one_of(names, names, leaves, st.just(element("b"))), max_size=4))
    return element("item", attributes, children)


# Leaves beside the items make a variable head meet a non-element start.
documents = st.one_of(
    st.lists(items(), min_size=1, max_size=4),
    st.lists(st.one_of(items(), leaves), min_size=1, max_size=4),
).map(lambda children: element("r", [("v", "1")], children))


def outcome(apply, rs, doc):
    """The output hedge, or the exception's type and message."""
    try:
        return apply(rs, doc)
    except Exception as exc:  # the exception is the behaviour compared
        return type(exc), str(exc)


def test_every_goal_path_here_is_inlined():
    for rule in parse_rules("\n".join(RULES)).rules:
        goals = [goal.inner if isinstance(goal, Not) else goal for goal in rule.goals]
        assert all(_inlined(goal.path) for goal in goals if isinstance(goal, Transform)), rule


@pytest.mark.parametrize("rule", RULES)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(doc=documents)
def test_inlined_goals_agree_with_the_reference(rule, doc):
    rs = parse_rules(rule)
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        for coerce_text in (True, False):
            moded = rs.with_options(solution_mode=mode, coerce_text=coerce_text)
            expected = outcome(reference_engine.apply_templates, moded, doc)
            assert outcome(apply_templates, moded, doc) == expected, (mode, coerce_text)


def test_a_child_step_on_a_leaf_finds_nothing_as_eval_path_does():
    # The child axis of a leaf is empty (XPath 1.0), in the inlined loops
    # as in eval_path: the comment beside the item offers no /name.
    doc = element("r", [], [
        element("item", [("flag", "hot")], [element("name", [], [Text("x")]), element("name"), Text("t")]),
        Comment("c"),
    ])
    assert list(eval_path(doc, parse_path_text("child/name#"))) == ["x"]
    child_name = parse_rules("template(X,[text(T)]):-transform(X child/name#,T).")
    for mode in (FIRST_ONLY, ALL_SOLUTIONS):
        assert apply_templates(child_name.with_options(solution_mode=mode), doc) == (Text("x"),)
    assert apply_templates(parse_rules(RULES[1]), doc) == (element("f", [], [Text("hot")]),)
    assert apply_templates(parse_rules(RULES[2]), doc) == (element("n", [], [Text("x")]),)
    for leaf in (Text("t"), Comment("c"), PI("t d")):
        assert apply_templates(parse_rules(RULES[2]), leaf) == ()
