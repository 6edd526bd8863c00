import random

import pytest

from ltlx import element, parse, serialize, text
from ltlx.errors import ParseError
from ltlx.nodes import comment, pi

from conftest import random_document


class TestParse:
    def test_structure_mirrors_input(self):
        assert parse('<a b="1"><c/>hi</a>') == element(
            "a", [("b", "1")], [element("c"), text("hi")]
        )

    def test_predefined_entities_resolved(self):
        assert parse("<a>&lt;</a>") == element("a", [], [text("<")])
        assert parse('<a k="&quot;&apos;"/>') == element("a", [("k", "\"'")])
        assert parse("<a>&amp;&gt;</a>") == element("a", [], [text("&>")])

    def test_mismatched_tag_is_positioned_diagnostic(self):
        with pytest.raises(ParseError) as err:
            parse("<a><b></a>")
        diag = err.value.diagnostic
        assert "mismatched" in diag.message
        assert diag.line == 1
        assert 1 <= diag.column <= len("<a><b></a>")

    def test_non_element_root(self):
        with pytest.raises(ParseError):
            parse("hello")
        with pytest.raises(ParseError) as err:
            parse("<!--only a comment-->")
        assert "element node" in err.value.diagnostic.message

    def test_duplicate_attribute(self):
        with pytest.raises(ParseError) as err:
            parse('<a b="1" b="2"/>')
        assert "duplicate" in err.value.diagnostic.message

    def test_junk_after_root(self):
        with pytest.raises(ParseError):
            parse("<a/><b/>")

    def test_attribute_quoting_style_normalized(self):
        assert parse("<a b='1'/>") == parse('<a b="1"/>')

    def test_cdata_folds_to_text(self):
        assert parse("<a>x<![CDATA[y<z]]>w</a>") == element("a", [], [text("xy<zw")])

    def test_declaration_and_doctype_discarded(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a><a>t</a>')
        assert doc == element("a", [], [text("t")])

    def test_comments_and_pis_kept_inside_root(self):
        doc = parse("<a><!--note--><?tgt data?></a>")
        assert doc == element("a", [], [comment("note"), pi("tgt data")])

    def test_a_long_text_run_is_one_text_node(self):
        # Expat hands over character data in pieces of at most 8192
        # characters; the pieces of one run make one text node.
        content = "x&" * 5000
        assert parse("<a>" + content.replace("&", "&amp;") + "</a>") == element("a", [], [text(content)])
        doc = parse("<a>" + "y" * 50_000 + "<![CDATA[<z>]]>w<b/>" + "v&lt;" * 5000 + "<!--c--></a>")
        assert doc == element("a", [], [text("y" * 50_000 + "<z>w"), element("b"), text("v<" * 5000), comment("c")])

    def test_whitespace_only_text_preserved(self):
        doc = parse("<a>\n  <b/>\n</a>")
        assert doc == element("a", [], [text("\n  "), element("b"), text("\n")])

    def test_attribute_order_preserved(self):
        doc = parse('<a z="1" b="2"/>')
        assert [a.name for a in doc.attributes] == ["z", "b"]

    def test_diagnostic_points_inside_input(self):
        bad = "<a>\n  <b>\n</a>"
        with pytest.raises(ParseError) as err:
            parse(bad)
        diag = err.value.diagnostic
        lines = bad.split("\n")
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


class TestSerialize:
    def test_empty_element(self):
        assert serialize(element("a")) == "<a/>"

    def test_mandatory_escaping(self):
        assert serialize(element("a", [("b", "1")], [text("x<y")])) == '<a b="1">x&lt;y</a>'

    def test_attributes_double_quoted_in_stored_order(self):
        assert serialize(element("a", [("z", "1"), ("b", "2")])) == '<a z="1" b="2"/>'

    def test_attribute_value_escaping(self):
        out = serialize(element("a", [("k", 'v"<&\t\n')]))
        assert out == '<a k="v&quot;&lt;&amp;&#9;&#10;"/>'

    def test_pi_and_comment(self):
        n = element("a", [], [pi("tgt data"), comment("note")])
        assert serialize(n) == "<a><?tgt data?><!--note--></a>"

    def test_optional_declaration(self):
        assert serialize(element("a"), xml_declaration=True) == (
            '<?xml version="1.0" encoding="UTF-8"?><a/>'
        )


class TestRoundTrip:
    def test_parse_serialize_identity_on_random_documents(self):
        rng = random.Random(311)
        for _ in range(1000):
            doc = random_document(rng, max_depth=5)
            assert parse(serialize(doc)) == doc

    def test_serialize_parse_fixed_point_on_emitted_text(self):
        rng = random.Random(312)
        for _ in range(300):
            emitted = serialize(random_document(rng, max_depth=5))
            assert serialize(parse(emitted)) == emitted

    def test_carriage_return_and_tab_round_trip(self):
        doc = element("a", [("k", "x\ty\nz\r")], [text("a\rb\tc")])
        assert parse(serialize(doc)) == doc

    def test_text_only_element_with_every_escaped_character(self):
        doc = element("a", [], [text("&<>\r x &amp; \r\n")])
        assert serialize(doc) == "<a>&amp;&lt;&gt;&#13; x &amp;amp; &#13;\n</a>"
        assert parse(serialize(doc)) == doc

    def test_raw_cdata_terminator_in_text(self):
        doc = element("a", [], [text("]]>")])
        assert parse(serialize(doc)) == doc
