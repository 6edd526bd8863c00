import pytest
from hypothesis import given, settings, strategies as st

from ltlx import parse_path_text, parse_rules
from ltlx.errors import LtlxError, ParseError, RuleLoadError
from ltlx.metrics import count_tokens
from ltlx.nodes import Comment, PI, Text, element
from ltlx.queryops import (
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    Children,
    CountChildren,
    DescendantOrSelfNamed,
    Descendants,
    Index,
    LastChild,
    Lvl,
    PathExpr,
    PIValue,
    Step,
    TextValue,
)
from ltlx.rules import MAX_TERM_DEPTH, ApplyTemplates, Not, Transform, Unify, parse_term_text
from ltlx.terms import Anonymous, Atom, Compound, Int, Seq, Str, Var, match, term_to_node

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


class TestBindingAtLoad:
    """A transform start or template/2 node variable must be bound by the
    head or an earlier goal; bindings inside not(...) do not count."""

    def load_error(self, text):
        with pytest.raises(RuleLoadError) as err:
            parse_rules(text)
        return str(err.value)

    def test_unbound_transform_start(self):
        message = self.load_error(
            'template(text(X),[text(X)]).\n'
            "template(element(a,_,_),[text(T)]):-transform(B//p#1,T)."
        )
        assert "line 2" in message and "transform path start B" in message

    def test_start_bound_only_by_a_later_goal(self):
        message = self.load_error(
            "template(element(a,_,_),[text(T)]):-transform(B//p#1,T),B=element(p,_,_)."
        )
        assert "line 1" in message and "B" in message

    def test_unbound_template_node_variable(self):
        message = self.load_error(
            "template(element(a,_,_),[element(b,[],K)]):-template(element(c,[],[N]),K)."
        )
        assert "line 1" in message and "template goal node variable N" in message

    def test_start_bound_only_inside_not(self):
        message = self.load_error(
            "template(element(a,_,_),[text(T)]):-"
            "not(B=element(p,[],[])),transform(B//p#1,T)."
        )
        assert "line 1" in message and "transform path start B" in message

    def test_goal_inside_not_is_checked(self):
        message = self.load_error(
            "template(element(a,_,_),[]):-not(transform(B/p,_))."
        )
        assert "transform path start B" in message

    def test_bound_by_head_or_earlier_goal_loads(self):
        rs = parse_rules(
            "template(element(a,_,[C]),[element(b,[],K),text(T)]):-"
            "template(C,K),transform(C//p#1,P),transform(P//q#1,T),"
            "D=element(d,[],[]),template(D,_)."
        )
        assert len(rs.rules[0].goals) == 5


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

    # At least one text per step kind, as the next test checks.
    STEP_TEXTS = (
        "/a", "//a", "//*", "@n", 'id("v")', 'id("a\\"b")', "#", "#1", "?",
        "child", "descendant", "last", "count", "lvl",
    )

    def test_step_texts_cover_every_step_kind(self):
        kinds = {type(parse_path_text(t).steps[0]) for t in self.STEP_TEXTS}
        assert kinds == set(Step.__subclasses__())

    @pytest.mark.parametrize("start", ["", "X"])
    @pytest.mark.parametrize("step", STEP_TEXTS)
    def test_repr_reparses_to_an_equal_path(self, start, step):
        alone, then_index = f"{start} {step}", f"{start} {step}#1"
        after_name, after_word = f"{start}//b {step}", f"{start} child {step}"
        for text in (alone, then_index, after_name, after_word):
            path = parse_path_text(text)
            assert parse_path_text(repr(path)) == path, repr(path)

    def test_repr_separates_word_steps(self):
        assert repr(parse_path_text('//a id("v")')) == '//a id("v")'
        assert repr(parse_path_text("child ?")) == "child?"
        assert repr(parse_path_text("A//p#1 child")) == "A//p#1 child"

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


class TestIndexFromOne:
    """`#0` is a ParseError at the `#`, in rule files and in path text."""

    def position(self, parse, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        diag = err.value.diagnostic
        assert diag.message == "index selector is 1-based"
        return diag.line, diag.column

    def test_in_path_text(self):
        assert self.position(parse_path_text, "#0") == (1, 1)
        assert self.position(parse_path_text, "A//p#0") == (1, 5)

    def test_in_a_rule_file(self):
        rules = "template(element(a,_,[A]),[text(T)]):-\n   transform(A//p#0,T).\n"
        assert self.position(parse_rules, rules) == (2, 18)

    def test_value_step_error_points_at_the_step(self):
        with pytest.raises(ParseError) as err:
            parse_path_text("//a @href child")
        assert str(err.value) == "1:11: step child cannot follow the value-producing step @href"


class TestLiterals:
    def test_integer_with_too_many_digits(self):
        for parse, text in ((parse_term_text, "7" * 5000), (parse_path_text, "#" + "7" * 5000)):
            with pytest.raises(ParseError, match="too many digits"):
                parse(text)

    def test_non_scalar_fact_argument_is_named(self):
        with pytest.raises(ParseError, match=r"1:1: fact arguments must be scalars: f\(1\)"):
            parse_rules("r(a,f(1)).")
        with pytest.raises(ParseError, match="scalars: k=1"):
            parse_rules("r(k=1).")


class TestNestingDepth:
    def test_term_at_the_limit_loads_and_counts(self):
        def rule(depth):
            return 'template(element(a,_,_),[text("x")]) :- X = ' + "[" * depth + "]" * depth + "."

        source = rule(MAX_TERM_DEPTH)
        (loaded,) = parse_rules(source).rules
        assert repr(loaded.goals[0].rhs) == "[" * MAX_TERM_DEPTH + "]" * MAX_TERM_DEPTH
        # Every level is one more use of the list operator.
        assert count_tokens(source).n1_total == count_tokens(rule(1)).n1_total + MAX_TERM_DEPTH - 1

    def test_element_at_the_limit_matches_and_rebuilds(self):
        levels = MAX_TERM_DEPTH // 2  # an element term opens two levels: "(" and "["
        source = "element(a,[],[" * levels + "X" + "])" * levels
        term = parse_term_text(source)
        assert repr(term) == source
        node = Text("x")
        for _ in range(levels):
            node = element("a", [], [node])
        theta = match(term, node)
        assert theta == {"X": Text("x")}
        assert term_to_node(term, theta) == node

    @pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 10_000])
    @pytest.mark.parametrize(
        "parse, prefix",
        [
            (parse_term_text, ""),
            (parse_rules, "template(a,[]) :- X = "),
            (parse_path_text, "X id("),
        ],
    )
    def test_deeper_terms_are_parse_errors_at_the_opening_bracket(self, parse, prefix, depth):
        with pytest.raises(ParseError) as err:
            parse(prefix + "f(" * depth + "a" + ")" * depth)
        # The bracket that opens level MAX_TERM_DEPTH + 1 is column 2 of its "f(".
        column = len(prefix) + 2 * MAX_TERM_DEPTH + 2
        assert (err.value.diagnostic.line, err.value.diagnostic.column) == (1, column)
        assert err.value.diagnostic.message == f"nested deeper than {MAX_TERM_DEPTH} levels"

    def test_not_goals_count_towards_the_limit(self):
        def rule(nots, depth):
            goal = "X=" + "[" * depth + "]" * depth
            return "template(a,[]) :- " + "not(" * nots + goal + ")" * nots + "."

        parse_rules(rule(40, MAX_TERM_DEPTH - 40))
        for source in (rule(40, MAX_TERM_DEPTH - 39), rule(10_000, 0)):
            with pytest.raises(ParseError, match=f"nested deeper than {MAX_TERM_DEPTH}"):
                parse_rules(source)


# Tokens of the rule syntax, and characters that have broken the front end.
SOUP = st.lists(
    st.sampled_from([
        "template(", "element(", "text(", "transform(", "not(", "id(", "r(",
        "(", ")", "[", "]", ",", ".", ":-", ":", "=", "_", "_X", "X", "a", "0", "1",
        "#", "#0", "#1", "/", "//", "//*", "@", "?", "child", "count", "lvl",
        "²", "٣", "%", "% c\n", "\n", " ", '"', "\\", '"s"', '"\\"', '"\\\n"',
    ]),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.text(), SOUP))
def test_parsers_raise_only_ltlx_errors(text):
    for parse in (parse_rules, parse_path_text, parse_term_text):
        try:
            parse(text)
        except LtlxError:
            pass


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.text())
def test_string_reprs_parse_back(text):
    assert parse_term_text(repr(Str(text))) == Str(text)
    path = PathExpr(None, (AttrNameByValue(text),))
    assert parse_path_text(repr(path)) == path
    for leaf in (Text(text), PI(text), Comment(text)):
        assert term_to_node(parse_term_text(repr(leaf))) == leaf
    node = element("a", [("k", text)], [Text(text)])
    assert term_to_node(parse_term_text(repr(node))) == node
