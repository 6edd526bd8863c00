import pytest

from ltlx import (
    Anonymous,
    ApplyTemplates,
    Atom,
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    Children,
    Compound,
    CountChildren,
    DescendantOrSelfNamed,
    Descendants,
    Index,
    Int,
    LastChild,
    Lvl,
    Not,
    ParseError,
    PathExpr,
    PIValue,
    RuleLoadError,
    Seq,
    Str,
    TextValue,
    Transform,
    Unify,
    Var,
    parse_path_text,
    parse_rules,
    parse_term_text,
)

SHARED_CHILD_RULES = """\
template(element(top,_,[A,A]),[text(T)]):-
   A=element(a,_,_),transform(A//p#1,T).
"""


class TestParseRules:
    def test_shared_child_template(self):
        rs = parse_rules(SHARED_CHILD_RULES)
        assert len(rs.rules) == 1
        rule = rs.rules[0]
        assert rule.head.functor == "element"
        name, attrs, kids = rule.head.args
        assert name == Atom("top")
        assert isinstance(attrs, Anonymous)
        assert kids == Seq((Var("A"), Var("A")))
        assert rule.output == (Compound("text", (Var("T"),)),)
        assert len(rule.goals) == 2
        first, second = rule.goals
        assert isinstance(first, Unify)
        assert first.lhs == Var("A")
        assert first.rhs.functor == "element"
        assert isinstance(second, Transform)
        assert second.path == PathExpr(
            "A", (DescendantOrSelfNamed("p"), Index(1))
        )
        assert second.result == Var("T")

    def test_identity_on_text_rule(self):
        rs = parse_rules('template(text(X),[text(X)]).')
        assert len(rs.rules) == 1
        assert rs.rules[0].goals == ()
        assert rs.rules[0].head == Compound("text", (Var("X"),))

    def test_unbound_output_variable_is_load_error(self):
        with pytest.raises(RuleLoadError) as err:
            parse_rules("template(element(a,_,_),[text(T)]).")
        assert "T" in str(err.value)
        assert "line 1" in str(err.value)

    def test_output_variable_bound_by_goal_is_fine(self):
        rs = parse_rules('template(element(a,_,_),[text(T)]):-T="x".')
        assert len(rs.rules) == 1

    def test_rules_keep_source_order(self):
        rs = parse_rules(
            "template(text(X),[text(X)]).\ntemplate(pi(Y),[text(Y)]).\n"
        )
        assert [r.head.functor for r in rs.rules] == ["text", "pi"]
        assert [r.line for r in rs.rules] == [1, 2]

    def test_wildcards_are_fresh_per_occurrence(self):
        rs = parse_rules("template(element(a,_,[_,_]),[]).")
        head = rs.rules[0].head
        _, attrs, kids = head.args
        wildcards = [attrs, *kids.items]
        assert all(isinstance(w, Anonymous) for w in wildcards)
        assert len({w.id for w in wildcards}) == 3

    def test_comments_and_whitespace_ignored(self):
        rs = parse_rules(
            "% leading comment\n  template( text(X) , [ text(X) ] ) .  % trailing\n"
        )
        assert len(rs.rules) == 1

    def test_goal_forms(self):
        rs = parse_rules(
            'template(element(a,_,C),[text("y")]):-'
            "not(C=[]),template(element(b,[],[]),R),transform(R#1,T),T=T.\n"
        )
        goals = rs.rules[0].goals
        assert isinstance(goals[0], Not)
        assert isinstance(goals[0].inner, Unify)
        assert isinstance(goals[1], ApplyTemplates)
        assert isinstance(goals[2], Transform)
        assert isinstance(goals[3], Unify)

    def test_name_value_items_in_term_lists(self):
        rule = parse_rules(
            'template(element(a,[k=V],_),[element(row,[k=V],[])]):-X=f(n=1),X=[].'
        ).rules[0]
        attribute = Compound("=", (Atom("k"), Var("V")))
        assert rule.head.args[1] == Seq((attribute,))
        assert rule.output[0].args[1] == Seq((attribute,))
        # A goal's top-level `=` stays a unification goal.
        n_is_1 = Compound("=", (Atom("n"), Int(1)))
        assert rule.goals[0] == Unify(Var("X"), Compound("f", (n_is_1,)))
        assert rule.goals[1] == Unify(Var("X"), Seq(()))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_rules("template(text(X),[text(X)])\ntemplate(a,[]).")
        diag = err.value.diagnostic
        assert diag.line == 2
        assert diag.column >= 1

    def test_named_wildcards_rejected(self):
        with pytest.raises(ParseError):
            parse_rules("template(text(_X),[]).")

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as err:
            parse_rules('template(text("abc),[]).')
        assert "string" in err.value.diagnostic.message

    def test_body_on_fact_clause_is_an_error(self):
        with pytest.raises(ParseError):
            parse_rules("p(1):-q(1).")


class TestFacts:
    def test_fact_clauses_collected(self):
        rs = parse_rules('r(1,a).\nr(2,b).\ns("x").\n')
        assert len(rs.facts) == 3
        assert rs.facts[0].name == "r"
        assert rs.facts[0].values == (Int(1), Atom("a"))
        assert rs.facts[2].values == (Str("x"),)

    def test_facts_and_templates_share_a_file(self):
        rs = parse_rules("template(text(X),[text(X)]).\nedge(1,2).\n")
        assert len(rs.rules) == 1
        assert len(rs.facts) == 1

    def test_non_scalar_fact_argument_rejected(self):
        with pytest.raises(ParseError):
            parse_rules("r(f(1)).")
        with pytest.raises(ParseError):
            parse_rules("r(X).")


class TestTermText:
    def test_parses_ground_node_terms(self):
        term = parse_term_text('element(a,[],[text("hi")])')
        assert term == Compound(
            "element",
            (Atom("a"), Seq(()), Seq((Compound("text", (Str("hi"),)),))),
        )

    def test_string_escapes(self):
        assert parse_term_text('"a\\"b\\\\c\\n"') == Str('a"b\\c\n')

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_term_text("a b")


class TestPathText:
    def test_all_step_forms(self):
        path = parse_path_text("A//p#1/q child descendant last //* count")
        assert path.start == "A"
        assert path.steps == (
            DescendantOrSelfNamed("p"),
            Index(1),
            ChildNamed("q"),
            Children(),
            Descendants(),
            LastChild(),
            DescendantOrSelfNamed(None),
            CountChildren(),
        )
        assert parse_path_text("@href").steps == (AttrValue("href"),)
        assert parse_path_text('id("v")').steps == (AttrNameByValue("v"),)
        assert parse_path_text("child ?").steps == (Children(), PIValue())
        assert parse_path_text("//p/#").steps == (
            DescendantOrSelfNamed("p"),
            TextValue(),
        )
        assert parse_path_text("//p lvl").steps == (DescendantOrSelfNamed("p"), Lvl())

    def test_leading_variable_optional(self):
        assert parse_path_text("//p").start is None
        assert parse_path_text("A//p").start == "A"

    def test_slash_separator_before_symbolic_steps(self):
        assert parse_path_text("//p#1/#").steps == (
            DescendantOrSelfNamed("p"),
            Index(1),
            TextValue(),
        )

    def test_empty_path_rejected(self):
        with pytest.raises(ParseError):
            parse_path_text("A")
        with pytest.raises(ParseError):
            parse_path_text("")

    def test_value_steps_terminate_the_path(self):
        with pytest.raises(ParseError):
            parse_path_text("@href/p")
        with pytest.raises(ParseError):
            parse_rules("template(element(a,_,_),[text(T)]):-transform(A count child,T).")
        # an index selector may still pick among the produced values
        assert parse_path_text("//p/##2").steps[-1] == Index(2)
