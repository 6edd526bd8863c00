import copy
import pickle
import random

import pytest

from ltlx import canonicalize, element, eval_path, parse, parse_path_text, serialize, text
from ltlx.errors import LtlxError, ParseError
from ltlx.nodes import comment, pi
from ltlx.queryops import follow_index_path, lvl

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

    def test_external_entity_reference_is_refused(self):
        source = '<!DOCTYPE r [<!ENTITY e SYSTEM "file:///etc/hostname">]><r>&e;</r>'
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.diagnostic.line, err.value.diagnostic.column) == (1, source.index("&e;") + 1)
        assert err.value.diagnostic.message == "error in processing external entity reference"

    def test_internal_entities_and_an_unreferenced_external_subset_parse(self):
        assert parse('<!DOCTYPE r [<!ENTITY e "in">]><r>&e;</r>') == element("r", [], [text("in")])
        assert parse('<!DOCTYPE r SYSTEM "r.dtd"><r/>') == element("r")
        assert parse('<!DOCTYPE r [<!ENTITY e SYSTEM "e.xml">]><r>x</r>') == element("r", [], [text("x")])

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

    @pytest.mark.parametrize("content", ["x--y", "--", "x-", "-"])
    def test_comment_that_cannot_be_written(self, content):
        with pytest.raises(LtlxError, match="comment cannot be written"):
            serialize(element("a", [], [comment(content)]))

    @pytest.mark.parametrize("content", ["t ?> z", "t?>", "", " t", "xml", "XmL v", "xml\tv"])
    def test_pi_that_cannot_be_written(self, content):
        with pytest.raises(LtlxError, match="processing instruction cannot be written"):
            serialize(pi(content))

    def test_comments_and_pis_that_can_be_written_read_back(self):
        comments = [comment("x-y"), comment(""), comment("-x")]
        doc = element("a", [], comments + [pi("t"), pi("t ?"), pi("xml-stylesheet v"), pi("xmlx")])
        assert parse(serialize(doc)) == doc

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


# Equal texts and equal attributes, at different depths.
SHARED = '<r a="x"><p k="v">t</p><p k="v">t</p><q><p k="v">u</p>t</q></r>'


def shared_built():
    """The SHARED document with a node of its own at every position."""
    return element("r", [("a", "x")], [
        element("p", [("k", "v")], [text("t")]),
        element("p", [("k", "v")], [text("t")]),
        element("q", [], [element("p", [("k", "v")], [text("u")]), text("t")]),
    ])


class TestSharedLeaves:
    def test_equal_texts_and_attributes_are_one_node(self):
        doc = parse(SHARED)
        p1, p2, q = doc.children
        p3, t = q.children
        assert p1.children[0] is p2.children[0] is t
        assert p1.attributes[0] is p2.attributes[0] is p3.attributes[0]
        assert p3.children[0] is not t and doc.attributes[0] is not p1.attributes[0]

    def test_the_sharing_lasts_one_call(self):
        assert parse(SHARED).children[0].children[0] is not parse(SHARED).children[0].children[0]

    def test_paths_report_every_position_in_document_order(self):
        doc, built = parse(SHARED), shared_built()
        assert doc == built
        assert list(eval_path(doc, parse_path_text("//p#"))) == ["t", "t", "u"]
        for path in ("//p#", "//p child lvl", "//* child lvl", "//p@k", "//*#"):
            found = list(eval_path(doc, parse_path_text(path)))
            assert found == list(eval_path(built, parse_path_text(path))), path
        paths = list(lvl(doc, doc.children[0].children[0]))
        assert paths == [(1, 1), (2, 1), (3, 2)]
        assert [follow_index_path(doc, p) for p in paths] == [text("t")] * 3

    def test_copies_and_canonical_forms_equal_the_document(self):
        doc = parse(SHARED)
        for other in (copy.deepcopy(doc), pickle.loads(pickle.dumps(doc)), canonicalize(doc)):
            assert other == doc == shared_built()
            assert serialize(other) == serialize(doc)
