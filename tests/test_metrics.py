import math
import random

import pytest

from ltlx import TokenCounts, compute_metrics, count_tokens, measure, parse_rules
from ltlx.metrics import _Census, _census_ruleset


class TestComputeMetrics:
    def test_theoretical_length_at_two_two(self):
        report = compute_metrics(TokenCounts(2, 2, 3, 2))
        assert report.N_T == 4.0  # 2*log2(2) + 2*log2(2)

    def test_volume_at_four_four(self):
        report = compute_metrics(TokenCounts(2, 2, 2, 2))
        assert report.N == 4
        assert report.eta == 4
        assert report.V == 8.0  # 4*log2(4)

    def test_theoretical_length_ten_eight(self):
        report = compute_metrics(TokenCounts(10, 8, 20, 13))
        expected = 10 * math.log2(10) + 8 * math.log2(8)
        assert abs(report.N_T - expected) <= 1e-9
        assert abs(report.N_T - 57.2193) < 5e-5

    def test_zero_counts_use_zero_log_convention(self):
        report = compute_metrics(TokenCounts(0, 0, 0, 0))
        assert report.N == 0 and report.N_T == 0 and report.V == 0
        assert report.L == 0 and report.lam == 0 and report.delta_N == 0

    def test_level_and_niveau(self):
        c = TokenCounts(4, 6, 10, 12)
        report = compute_metrics(c)
        assert report.L == pytest.approx((2 / 4) * (6 / 12))
        assert report.lam == pytest.approx(report.V * report.L)

    def test_delta_is_absolute_gap(self):
        rng = random.Random(811)
        for _ in range(100):
            eta1 = rng.randint(0, 30)
            eta2 = rng.randint(0, 30)
            c = TokenCounts(eta1, eta2, eta1 + rng.randint(0, 40), eta2 + rng.randint(0, 40))
            report = compute_metrics(c)
            expected_nt = eta1 * (math.log2(eta1) if eta1 else 0) + eta2 * (
                math.log2(eta2) if eta2 else 0
            )
            assert abs(report.N_T - expected_nt) <= 1e-9
            assert abs(report.delta_N - abs(expected_nt - report.N)) <= 1e-9

    def test_monotonic_in_distinct_operators(self):
        previous = -1.0
        for eta1 in range(0, 40):
            report = compute_metrics(TokenCounts(eta1, 5, eta1 + 10, 10))
            assert report.N_T >= previous
            previous = report.N_T

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            TokenCounts(3, 1, 2, 1)
        with pytest.raises(ValueError):
            TokenCounts(-1, 0, 0, 0)


IDENTITY_RULE = "template(text(X),[text(X)])."

SHARED_CHILD_RULES = """\
template(element(top,_,[A,A]),[text(T)]):-
   A=element(a,_,_),transform(A//p#1,T).
"""


class TestCountTokensRuleDialect:
    def test_identity_rule_census(self):
        counts = count_tokens(IDENTITY_RULE)
        # operators: template, text (twice), list construction
        assert counts.eta1 == 3
        assert counts.n1_total == 4
        # operands: X twice
        assert counts.eta2 == 1
        assert counts.n2_total == 2

    def test_empty_script(self):
        assert count_tokens("") == TokenCounts(0, 0, 0, 0)

    def test_shared_child_template_has_richer_operator_set(self):
        identity = count_tokens(IDENTITY_RULE)
        shared = count_tokens(SHARED_CHILD_RULES)
        assert shared.eta1 > identity.eta1

    def test_stable_under_whitespace_and_comments(self):
        reformatted = (
            "% a comment\n"
            "template( element( top , _ , [ A , A ] ) , [ text( T ) ] )  :-\n"
            "    A = element( a , _ , _ ) ,  % another\n"
            "    transform( A // p # 1 , T ) .\n"
        )
        assert count_tokens(reformatted) == count_tokens(SHARED_CHILD_RULES)

    def test_facts_count_functor_and_scalars(self):
        counts = count_tokens("edge(1,2).\nedge(2,3).\n")
        assert counts.eta1 == 1  # edge
        assert counts.n1_total == 2
        assert counts.eta2 == 3  # 1, 2, 3
        assert counts.n2_total == 4

    def test_string_and_atom_operands_distinct(self):
        counts = count_tokens('template(element(a,_,_),[text("a")]).')
        # operands: atom a, wildcards (two _), string "a"
        assert counts.eta2 == 3

    def test_census_of_every_path_step(self):
        script = (
            "template(R,[text(A),text(B),text(C),text(D),text(E)]):-\n"
            '   transform(R/s//t#2,A),transform(R//*@k,B),transform(R id("v"),C),\n'
            "   transform(R child last#,D),transform(R descendant?,E).\n"
            "template(N,[text(F)]):-transform(N count,F),transform(N lvl#1,G).\n"
        )
        census = _Census()
        _census_ruleset(parse_rules(script), census)
        # Each step counts its symbol as an operator, then its operand, if any.
        assert census.operators == {
            "template": 2, "[|]": 2, "text": 6, ":-": 2, ",": 5, "transform": 7,
            "/": 1, "//": 2, "#": 3, "@": 1, "id": 1, "child": 1, "last": 1,
            "descendant": 1, "?": 1, "count": 1, "lvl": 1,
        }
        assert census.operands == {
            "R": 6, "A": 2, "B": 2, "C": 2, "D": 2, "E": 2, "N": 3, "F": 2, "G": 1,
            "s": 1, "t": 1, "2": 1, "*": 1, "k": 1, "v": 1, "1": 1,
        }
        assert count_tokens(script) == TokenCounts(17, 16, 38, 29)

    def test_parse_failure_propagates(self):
        with pytest.raises(Exception):
            count_tokens("template(")


class TestCountTokensStylesheetDialect:
    STYLESHEET = (
        '<stylesheet><template match="top"><value-of select="//a//p"/>'
        "</template><template match="
        '"other"><text>x</text></template></stylesheet>'
    )

    def test_tags_are_operators_attribute_values_operands(self):
        counts = count_tokens(self.STYLESHEET, dialect="xslt")
        # tags: stylesheet, template x2, value-of, text
        assert counts.eta1 == 4
        assert counts.n1_total == 5
        # attribute values: top, //a//p, other
        assert counts.eta2 == 3
        assert counts.n2_total == 3

    def test_text_content_not_counted(self):
        counts = count_tokens("<a>lots of words here</a>", dialect="xslt")
        assert counts == TokenCounts(1, 0, 1, 0)

    def test_stable_under_whitespace(self):
        a = count_tokens('<a x="1"><b/></a>', dialect="xslt")
        b = count_tokens('<a  x="1" >\n  <b/>\n</a>', dialect="xslt")
        # the whitespace-only text nodes are not census tokens
        assert a == b

    def test_unknown_dialect_rejected(self):
        with pytest.raises(ValueError):
            count_tokens("x", dialect="cobol")


def test_measure_combines_census_and_formulas():
    report = measure(IDENTITY_RULE)
    assert report.counts == count_tokens(IDENTITY_RULE)
    assert report.N == report.counts.n1_total + report.counts.n2_total


def test_sample_pairs_measure_in_both_dialects():
    """Illustrative only: the bundled rule/stylesheet pairs must measure
    cleanly in their dialects; no cross-language claim is asserted."""
    from pathlib import Path

    samples = Path(__file__).resolve().parent.parent / "samples"
    pairs = 0
    for sample in sorted(samples.iterdir()):
        rules = sample / "rules.ltl"
        sheet = sample / "stylesheet.xsl"
        if not (rules.exists() and sheet.exists()):
            continue
        rule_report = measure(rules.read_text(encoding="utf-8"), "ltl")
        sheet_report = measure(sheet.read_text(encoding="utf-8"), "xslt")
        assert rule_report.N > 0 and sheet_report.N > 0
        assert rule_report.lam >= 0 and sheet_report.lam >= 0
        pairs += 1
    assert pairs >= 2
