import random

import pytest

from ltlx import element, parse, parse_path_text, parse_rules, serialize, text, transform_document
from ltlx import compiler
from ltlx.compiler import _Rule
from ltlx.engine import apply_templates
from ltlx.errors import (
    DuplicateAttributeError,
    InstantiationError,
    ShapeError,
    TypeMismatchError,
    UnboundOutputError,
)
from ltlx.nodes import pi
from ltlx.queryops import ALL_SOLUTIONS, FIRST_ONLY
from ltlx.rules import Rule, RuleSet, Transform
from ltlx.terms import Atom, Compound, Seq, Var, anon

from conftest import random_document
from reference_engine import node_to_term

SHARED_CHILD_RULES = """\
template(element(top,_,[A,A]),[text(T)]):-
   A=element(a,_,_),transform(A//p#1,T).
"""

IDENTITY_TEXT = 'template(text(X),[text(X)]).'


def hello_fixture():
    """Seven nodes: top with two equal a children wrapping p(text)."""
    a = element("a", [], [element("p", [], [text("hello")])])
    return element("top", [], [a, a]), a


def fires(goals, output="element(ok,[],[])", doc=None):
    """The output of one rule with head element(r,_,_) and `goals` on `doc`."""
    rules = parse_rules(f"template(element(r,_,_),[{output}]):-{goals}.")
    return apply_templates(rules, doc or element("r"))


class TestSolveGoals:
    # Goal bodies run compiled into their rule's function, so each goal is
    # checked through the output of a rule that holds it.
    def test_shared_child_goals_bind_text_content(self):
        doc, a = hello_fixture()
        rs = parse_rules(SHARED_CHILD_RULES)
        assert apply_templates(rs, doc) == (text("hello"),)
        assert apply_templates(rs.with_options(solution_mode=ALL_SOLUTIONS), doc) == (text("hello"),)

    def test_single_unify_goal(self):
        assert fires('X=text("a")', "X") == (text("a"),)

    def test_negation_as_failure(self):
        assert fires('not(text("a")=text("b"))') == (element("ok"),)

    def test_negation_blocks_on_success_and_discards_bindings(self):
        assert fires('not(X=text("a"))') == ()
        # inner bindings never leak: X is still free after the double negation
        assert fires('not(not(X=text("a"))),X=text("b")', "X") == (text("b"),)
        assert fires('not(not(X=text("a"))),X=text("b"),not(X=text("a"))', "X") == (text("b"),)

    def test_transform_requires_bound_start(self):
        # Built from terms: parse_rules rejects an unbound start at load time.
        head = Compound("element", (Atom("a"), anon(), anon()))
        goal = Transform(parse_path_text("B//p#1"), Var("T"))
        rule = Rule(head, (Compound("text", (Var("T"),)),), (goal,), 1)
        rs = RuleSet((rule,))
        with pytest.raises(InstantiationError, match="transform path start B is unbound"):
            apply_templates(rs, element("a"))

    def test_a_start_bound_to_a_node_is_not_rebuilt(self, monkeypatch):
        # The benchmark catalog's guard rule: a bare-variable head whose
        # transform goals start from the node the head bound.
        rules = parse_rules(
            "template(element(header,_,[text(T)]),[element(h1,[],[text(T)])]).\n"
            "template(X,[element(flagged,[],[text(N)])]):-\n"
            '   transform(X@flag,F),F="hot",transform(X/name#,N).\n'
            "template(element(item,_,_),[element(other,[],[])]).\n"
        )
        doc = parse(
            '<catalog><header>T</header><item flag="hot"><name>A</name></item>'
            '<item flag="cold"><name>B</name></item><item><name>C</name></item></catalog>'
        )
        calls = []
        real = compiler.term_to_node  # what rebuilds a start that is not a node
        monkeypatch.setattr(compiler, "term_to_node", lambda *a: calls.append(a) or real(*a))
        result = transform_document(rules, doc)
        assert "".join(map(serialize, result.nodes)) == (
            "<h1>T</h1><flagged>A</flagged><other/><other/>"
        )
        assert calls == []

    def test_a_node_unifies_on_either_side_of_an_equation(self):
        # X, the node, stands left of = in the negated goal and right of it
        # in the next; the negated goal runs in a function of its own.
        rules = parse_rules("template(X,[element(hit,[],[])]):-not(X=element(b,_,_)),element(a,_,_)=X.")
        source = _Rule(rules.rules[0], True, True).source()
        assert "_solve(" not in source and "\ndef v1(rs, R, out, n):" in source, source
        doc = parse('<r><a/><b/><a k="v"/></r>')
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            result = transform_document(rules.with_options(solution_mode=mode), doc)
            assert not result.well_formed
            assert "".join(map(serialize, result.nodes)) == "<hit/><hit/>"

    def test_transform_requires_node_start(self):
        rs = parse_rules(
            'template(element(a,_,_),[text("k")]):-T="s",transform(T//p,R),R=R.'
        )
        with pytest.raises(TypeMismatchError, match='transform path start T is not a node: "s"'):
            apply_templates(rs, element("a"))


# An `=` goal leaves O, X or P holding a variable that a later goal binds.
LATE_CHILDREN_RULES = (
    "template(element(a,_,[C]),[O]):-O=element(b,[],K),template(C,K).\n" + IDENTITY_TEXT
)
LATE_TEXT_RULES = "template(A,[text(X)]):-A=element(a,_,_),X=Y,transform(A//p#1,Y)."
NOT_AFTER_CHAIN_RULES = (
    "template(element(a,_,[C]),[O]):-"
    "O=element(b,[],K),P=f(K,x),not(P=f([],y)),template(C,K).\n" + IDENTITY_TEXT
)


class TestTriangularBindings:
    def test_solutions_keep_a_chain_of_bindings(self):
        # X is bound to the variable Y, which the next goal binds.
        assert fires('X=Y,Y="v"', "text(X)") == (text("v"),)
        assert fires('X=Y,Y="v",X="v"', "text(X)") == (text("v"),)
        assert fires('X=Y,Y="v",X="w"', "text(X)") == ()

    def test_output_reads_children_bound_after_the_equation(self):
        doc = element("a", [], [element("p", [], [text("hi")])])
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            rules = parse_rules(LATE_CHILDREN_RULES).with_options(solution_mode=mode)
            assert apply_templates(rules, doc) == (element("b", [], [text("hi")]),)

    def test_output_reads_a_variable_bound_by_a_later_transform(self):
        paragraphs = [element("p", [], [text("hello")]), element("p", [], [text("world")])]
        doc = element("a", [], paragraphs)
        for mode in (FIRST_ONLY, ALL_SOLUTIONS):
            rules = parse_rules(LATE_TEXT_RULES).with_options(solution_mode=mode)
            assert apply_templates(rules, doc) == (text("hello"),)

    def test_not_after_a_chain_leaves_no_binding(self):
        # Inside the not, K is bound to []; the output then finds it free again.
        with pytest.raises(UnboundOutputError) as err:
            fires("O=element(b,[],K),P=f(K,x),not(P=f([],y))", "element(k,[],K)")
        assert err.value.variable == "K"
        doc = element("a", [], [element("p", [], [text("hi")])])
        assert apply_templates(parse_rules(NOT_AFTER_CHAIN_RULES), doc) == (
            element("b", [], [text("hi")]),
        )


class TestApplyTemplates:
    def test_shared_child_output(self):
        rules = parse_rules(SHARED_CHILD_RULES)
        a = element("a", [], [element("p", [], [text("w")])])
        doc = element("top", [], [a, a])
        assert apply_templates(rules, doc) == (text("w"),)

    def test_broken_share_yields_nothing(self):
        rules = parse_rules(SHARED_CHILD_RULES)
        a = element("a", [], [element("p", [], [text("w")])])
        other = element("a", [("changed", "yes")], [element("p", [], [text("w")])])
        doc = element("top", [], [a, other])
        assert apply_templates(rules, doc) == ()

    def test_empty_rule_set_emits_nothing(self):
        rng = random.Random(611)
        rs = RuleSet()
        for _ in range(50):
            assert apply_templates(rs, random_document(rng)) == ()

    def test_sibling_continuation(self):
        rules = parse_rules(IDENTITY_TEXT)
        doc = element("a", [], [text("1"), text("2")])
        assert apply_templates(rules, doc) == (text("1"), text("2"))

    def test_first_rule_wins(self):
        rules = parse_rules(
            'template(text(X),[text("first")]).\ntemplate(text(X),[text("second")]).'
        )
        assert apply_templates(rules, element("a", [], [text("t")])) == (text("first"),)

    def test_rule_with_failing_goals_falls_through_to_next_rule(self):
        rules = parse_rules(
            'template(text(X),[text("guarded")]):-X="magic".\n'
            'template(text(X),[text("fallback")]).'
        )
        assert apply_templates(rules, element("a", [], [text("magic")])) == (
            text("guarded"),
        )
        assert apply_templates(rules, element("a", [], [text("other")])) == (
            text("fallback"),
        )

    def test_matched_subtree_not_descended(self):
        rules = parse_rules(
            'template(element(b,_,_),[text("B")]).\n' + IDENTITY_TEXT
        )
        doc = element(
            "a", [], [element("b", [], [text("inner")]), text("outer")]
        )
        assert apply_templates(rules, doc) == (text("B"), text("outer"))

    def test_explicit_recursion_via_template_goal(self):
        rules = parse_rules(
            "template(element(b,_,[C]),[element(wrapped,[],R)]):-template(C,R).\n"
            + IDENTITY_TEXT
        )
        doc = element("b", [], [text("inner")])
        assert apply_templates(rules, doc) == (
            element("wrapped", [], [text("inner")]),
        )

    def test_unmatched_text_emits_nothing_by_default(self):
        rules = parse_rules('template(pi(X),[text(X)]).')
        doc = element("a", [], [text("dropped"), pi("kept")])
        assert apply_templates(rules, doc) == (text("kept"),)

    def test_default_copy_text_option(self):
        rules = parse_rules('template(pi(X),[text(X)]).').with_options(
            default_copy_text=True
        )
        doc = element("a", [], [text("copied"), pi("kept")])
        assert apply_templates(rules, doc) == (text("copied"), text("kept"))

    def test_unbound_output_names_rule_and_variable(self):
        rules = parse_rules("template(element(a,_,_),[text(T)]):-T=U.")
        with pytest.raises(UnboundOutputError) as err:
            apply_templates(rules, element("a"))
        assert "line 1" in str(err.value)

    def test_all_solutions_mode_emits_the_multiset(self):
        rules = parse_rules(
            "template(element(top,_,[A,A]),[text(T)]):-"
            "A=element(a,_,_),transform(A//p/#,T)."
        )
        a = element(
            "a",
            [],
            [element("p", [], [text("hello")]), element("p", [], [text("world")])],
        )
        doc = element("top", [], [a, a])
        assert apply_templates(rules, doc) == (text("hello"),)
        all_mode = rules.with_options(solution_mode=ALL_SOLUTIONS)
        assert apply_templates(all_mode, doc) == (text("hello"), text("world"))


class TestProperties:
    def _corpus(self, seed, count=40):
        rng = random.Random(seed)
        return [random_document(rng, max_depth=4) for _ in range(count)]

    def test_determinism(self):
        rules = parse_rules(SHARED_CHILD_RULES + IDENTITY_TEXT)
        for doc in self._corpus(621):
            assert apply_templates(rules, doc) == apply_templates(rules, doc)

    def test_red_cut_appending_rules_never_changes_matched_output(self):
        base = parse_rules(IDENTITY_TEXT)
        hijack = parse_rules(
            IDENTITY_TEXT + '\ntemplate(text(X),[text("hijacked")]).'
        )
        for doc in self._corpus(622):
            assert apply_templates(base, doc) == apply_templates(hijack, doc)

    def test_skip_subtree_when_rule_has_no_recursion_goals(self):
        rules = parse_rules('template(element(b,_,_),[text("B")]).\n' + IDENTITY_TEXT)
        doc = element(
            "a",
            [],
            [
                element("b", [], [text("never-1"), element("c", [], [text("never-2")])]),
                text("sibling"),
            ],
        )
        out = apply_templates(rules, doc)
        assert out == (text("B"), text("sibling"))
        assert all("never" not in n.content for n in out)

    def test_no_rule_fallthrough_is_empty_and_terminates(self):
        rules = parse_rules('template(element(zzz,_,_),[text("z")]).')
        for doc in self._corpus(623):
            assert apply_templates(rules, doc) == ()

    def test_every_emitted_node_is_ground(self):
        rules = parse_rules(SHARED_CHILD_RULES + IDENTITY_TEXT)
        for doc in self._corpus(624):
            for node in apply_templates(rules, doc):
                node_to_term(node)  # raises if any variable survived


class TestTransformDocument:
    def test_single_element_output_is_well_formed(self):
        rules = parse_rules("template(element(top,_,_),[element(out,[],[])]).")
        result = transform_document(rules, element("top"))
        assert result.well_formed
        assert result.root == element("out")

    def test_hedge_output_is_not_well_formed(self):
        rules = parse_rules(
            "template(element(top,_,_),[element(x,[],[]),element(y,[],[])])."
        )
        result = transform_document(rules, element("top"))
        assert not result.well_formed
        assert result.nodes == (element("x"), element("y"))
        assert result.root is None

    def test_empty_output_is_not_well_formed(self):
        result = transform_document(RuleSet(), element("top"))
        assert not result.well_formed
        assert result.nodes == ()

    def test_single_text_output_is_not_well_formed(self):
        rules = parse_rules('template(element(top,_,_),[text("t")]).')
        assert not transform_document(rules, element("top")).well_formed

    def test_non_element_input_rejected(self):
        with pytest.raises(TypeMismatchError):
            transform_document(RuleSet(), text("x"))


CHAIN_RULES = """\
template(element(sec,_,[element(t,_,[text(T)]),S]),[element(s,[],[text(T),O])]):-
   template(S,[O]).
template(element(sec,_,[element(t,_,[text(T)])]),[element(s,[],[text(T)])]).
"""


class TestDocumentsAreGroundTerms:
    def test_deep_section_chain_transforms(self):
        depth = 300
        doc = element("sec", [], [element("t", [], [text(str(depth))])])
        expected = element("s", [], [text(str(depth))])
        for level in range(depth - 1, 0, -1):
            doc = element("sec", [], [element("t", [], [text(str(level))]), doc])
            expected = element("s", [], [text(str(level)), expected])
        out = apply_templates(parse_rules(CHAIN_RULES), doc)
        assert [serialize(n) for n in out] == [serialize(expected)]

    def test_output_holds_the_bound_node_itself(self):
        rules = parse_rules("template(element(item,_,[T]),[element(li,[],[T])]).")
        bound = element("b", [("k", "v")], [text("x")])
        doc = element("list", [], [element("item", [], [bound])])
        (li,) = apply_templates(rules, doc)
        assert li.children[0] is bound


def chain(depth, leaf):
    node = element("c", [], [text(leaf)])
    for _ in range(depth - 1):
        node = element("c", [], [node])
    return node


class TestSharedHeadOverDeepSubtrees:
    RULES = (
        "template(element(pair,_,[A,A]),[element(same,[],[])]).\n"
        "template(element(pair,_,[_,_]),[element(diff,[],[])])."
    )

    def test_equal_but_distinct_deep_chains_match(self):
        doc = element("pair", [], [chain(1000, "x"), chain(1000, "x")])
        assert doc.children[0] is not doc.children[1]
        assert apply_templates(parse_rules(self.RULES), doc) == (element("same"),)

    def test_deep_chains_differing_at_the_leaf_do_not_match(self):
        doc = element("pair", [], [chain(1000, "x"), chain(1000, "y")])
        assert apply_templates(parse_rules(self.RULES), doc) == (element("diff"),)


class TestOutputInstantiation:
    def test_unbound_output_variable_names_variable_and_rule(self):
        rules = parse_rules("template(element(a,_,_),[text(T)]):-T=U.")
        with pytest.raises(UnboundOutputError) as err:
            apply_templates(rules, element("r", [], [element("a")]))
        assert (err.value.variable, err.value.context) == ("U", "rule at line 1")

    def test_variable_in_attribute_value(self):
        # element(row,[k=V],[]): the rule syntax has no name=value term, so it is built here.
        head = parse_rules("template(element(a,_,[text(V)]),[text(V)]).").rules[0].head
        row = Compound(
            "element", (Atom("row"), Seq((Compound("=", (Atom("k"), Var("V"))),)), Seq(()))
        )
        rules = RuleSet((Rule(head, (row,), (), 1),))
        doc = element("a", [], [text("v1")])
        assert apply_templates(rules, doc) == (element("row", [("k", "v1")]),)

    def test_attribute_written_in_an_output(self):
        rules = parse_rules("template(element(a,_,[text(V)]),[element(row,[k=V],[])]).")
        (row,) = apply_templates(rules, element("a", [], [text('x&"y')]))
        assert serialize(row) == '<row k="x&amp;&quot;y"/>'

    def test_attribute_written_in_a_head_binds_its_value(self):
        rules = parse_rules('template(element(a,[k=V,m="w"],_),[text(V)]).')
        assert apply_templates(rules, element("a", [("k", "v"), ("m", "w")])) == (text("v"),)
        assert apply_templates(rules, element("a", [("k", "v"), ("m", "x")])) == ()
        assert apply_templates(rules, element("a", [("j", "v"), ("m", "w")])) == ()

    def test_attribute_name_repeated_at_build_time(self):
        rules = parse_rules('template(element(a,[K=V],[]),[element(d,[k="1",K=V],[])]).')
        assert apply_templates(rules, element("a", [("j", "x")])) == (
            element("d", [("k", "1"), ("j", "x")]),
        )
        with pytest.raises(DuplicateAttributeError) as err:
            apply_templates(rules, element("a", [("k", "x")]))
        assert str(err.value) == "duplicate attribute 'k' on element 'd'"

    def test_attribute_list_from_a_goal_is_checked(self):
        rules = parse_rules(
            'template(element(a,_,_),[element(d,L,[])]):-L=[k="1",j="2",k="3"].'
        )
        with pytest.raises(DuplicateAttributeError, match="'k' on element 'd'"):
            apply_templates(rules, element("a"))

    def test_variable_bound_to_attribute_list_is_copied(self):
        rules = parse_rules("template(element(a,A,_),[element(b,A,[text(\"t\")])]).")
        doc = element("a", [("k", "v"), ("m", "w")], [text("ignored")])
        assert apply_templates(rules, doc) == (
            element("b", [("k", "v"), ("m", "w")], [text("t")]),
        )

    @pytest.mark.parametrize("children", ["[X]", "X"])
    def test_string_in_children_position_is_a_shape_error(self, children):
        rules = parse_rules(f"template(text(X),[element(b,[],{children})]).")
        with pytest.raises(ShapeError):
            apply_templates(rules, element("a", [], [text("s")]))
