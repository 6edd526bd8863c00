"""Whole-pipeline flows: parse, transform, serialize."""

from pathlib import Path

from ltlx import canonicalize, element, parse, parse_rules, serialize, text, transform_document
from ltlx.engine import apply_templates
from ltlx.nodes import PI

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def pipeline(rules_text, xml_text):
    rs = parse_rules(rules_text)
    result = transform_document(rs, parse(xml_text))
    return "".join(serialize(n) for n in result.nodes), result.well_formed


def test_item_list_sample_end_to_end():
    out, well_formed = pipeline(
        (SAMPLES / "item_list" / "rules.ltl").read_text(),
        (SAMPLES / "item_list" / "input.xml").read_text(),
    )
    assert out == "<ul><li>one</li><li>two</li></ul>"
    assert well_formed


def test_attribute_copy_through_bound_variable():
    # binding the whole element copies its attributes to the output as-is
    out, well_formed = pipeline(
        "template(element(wrap,_,[E]),[E]).",
        '<wrap><entry lang="en" id="e1">text</entry></wrap>',
    )
    assert out == '<entry lang="en" id="e1">text</entry>'
    assert well_formed


def test_prefixed_names_stay_opaque():
    out, _ = pipeline(
        'template(text(X),[text(X)]).',
        "<ns:doc><ns:p>payload</ns:p></ns:doc>",
    )
    assert out == "payload"
    rs = parse_rules("template(element(x,_,_),[]).")
    doc = parse('<ns:a xml:lang="de"><x/></ns:a>')
    assert doc.name == "ns:a"
    assert doc.attributes[0].name == "xml:lang"
    assert transform_document(rs, doc).nodes == ()


def test_unicode_content_survives_the_pipeline():
    out, _ = pipeline(
        "template(element(inner,_,[T]),[element(aus,[],[T])]).",
        "<a><inner>Müßiggang — 無為</inner></a>",
    )
    assert out == "<aus>Müßiggang — 無為</aus>"
    assert parse(out) == element("aus", [], [text("Müßiggang — 無為")])


def test_guarded_dispatch_over_attribute_values():
    rules = """
    template(element(row,A,[T]),[element(hot,[],[T])]):-
       R=element(row,A,[T]),transform(R@status,S),S="on".
    template(element(row,_,[T]),[element(cold,[],[T])]).
    """
    out, _ = pipeline(
        rules,
        '<table><row status="on">a</row><row status="off">b</row><row>c</row></table>',
    )
    assert out == "<hot>a</hot><cold>b</cold><cold>c</cold>"


def test_pi_matching_rule():
    rs = parse_rules("template(pi(X),[element(instruction,[],[text(X)])]).")
    doc = parse("<a><?robot step 1?>body</a>")
    assert apply_templates(rs, doc) == (
        element("instruction", [], [text("robot step 1")]),
    )


def test_canonicalize_then_transform_is_stable():
    rules = 'template(element(k,_,_),[text("hit")]).'
    doc = parse('<r><k z="2" a="1"/></r>')
    rs = parse_rules(rules)
    assert apply_templates(rs, doc) == apply_templates(rs, canonicalize(doc))


def test_shared_structure_guard_with_negation():
    # fire only when the two children are NOT equal
    rules = """
    template(element(pair,_,[A,B]),[text("different")]):-not(A=B).
    template(element(pair,_,[A,A]),[text("same")]).
    """
    same, _ = pipeline(rules, "<pair><x/><x/></pair>")
    different, _ = pipeline(rules, "<pair><x/><y/></pair>")
    assert same == "same"
    assert different == "different"
