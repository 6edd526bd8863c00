import random

import pytest
from hypothesis import example, given, strategies as st

from ltlx import decode_core, element, encode_core, parse, serialize, text
from ltlx.encoding import DEFAULT_SENTINELS, SentinelConfig, is_core, split_sentinel_text
from ltlx.errors import DecodeError, SentinelCollisionError
from ltlx.nodes import Comment, Element, PI, Text, comment, document_order, pi

from conftest import random_document

PI_MARK = DEFAULT_SENTINELS.pi_mark
COMMENT_MARK = DEFAULT_SENTINELS.comment_mark
ATTR_MARK = DEFAULT_SENTINELS.attr_mark


class TestSentinelConfig:
    def test_defaults_are_private_use_and_distinct(self):
        assert len({PI_MARK, COMMENT_MARK, ATTR_MARK}) == 3
        assert all(0xE000 <= ord(m) <= 0xF8FF for m in DEFAULT_SENTINELS.marks)

    def test_rejects_equal_marks(self):
        with pytest.raises(ValueError):
            SentinelConfig("!", "!", "?")

    def test_rejects_multi_character_marks(self):
        with pytest.raises(ValueError):
            SentinelConfig("ab", "c", "d")


class TestEncode:
    def test_pi_becomes_marked_text(self):
        assert encode_core(pi("target data")) == text(PI_MARK + "target data")

    def test_comment_becomes_marked_text(self):
        assert encode_core(comment("note")) == text(COMMENT_MARK + "note")

    def test_element_text_only_is_untouched(self):
        n = element("a", [], [text("t")])
        assert encode_core(n) == n

    def test_attribute_becomes_leading_wrapped_child(self):
        n = element("a", [("href", "x")], [text("t")])
        expected = element(
            "a",
            [],
            [element("href", [], [text(ATTR_MARK + "x")]), text("t")],
        )
        assert encode_core(n) == expected

    def test_attributes_keep_their_order_before_children(self):
        n = element("a", [("z", "1"), ("b", "2")], [element("c")])
        encoded = encode_core(n)
        assert isinstance(encoded, Element)
        assert [c.name for c in encoded.children] == ["z", "b", "c"]

    def test_sentinel_in_text_rejected(self):
        with pytest.raises(SentinelCollisionError):
            encode_core(element("a", [], [text("x" + ATTR_MARK)]))

    def test_sentinel_in_attribute_value_rejected(self):
        with pytest.raises(SentinelCollisionError):
            encode_core(element("a", [("b", PI_MARK)]))

    def test_custom_sentinels(self):
        config = SentinelConfig("!", "^", "~")
        assert encode_core(pi("x"), config) == text("!x")
        with pytest.raises(SentinelCollisionError):
            encode_core(text("a!b"), config)


class TestDecode:
    def test_marked_text_becomes_pi(self):
        assert decode_core(text(PI_MARK + "pd")) == pi("pd")

    def test_plain_element_is_fixed_point(self):
        n = element("a", [], [text("t")])
        assert decode_core(n) == n

    def test_attribute_wrapper_restored(self):
        encoded = element(
            "a", [], [element("href", [], [text(ATTR_MARK + "x")]), text("t")]
        )
        assert decode_core(encoded) == element("a", [("href", "x")], [text("t")])

    def test_stray_attribute_marked_text_rejected(self):
        with pytest.raises(DecodeError):
            decode_core(element("a", [], [text(ATTR_MARK + "x")]))

    def test_wrapper_after_real_children_rejected(self):
        malformed = element(
            "a", [], [text("t"), element("href", [], [text(ATTR_MARK + "x")])]
        )
        with pytest.raises(DecodeError):
            decode_core(malformed)

    def test_raw_attributes_rejected(self):
        with pytest.raises(DecodeError):
            decode_core(element("a", [("b", "1")]))

    def test_surviving_pi_rejected(self):
        with pytest.raises(DecodeError):
            decode_core(element("a", [], [pi("x")]))


class TestProperties:
    def test_round_trip_on_random_documents(self):
        rng = random.Random(211)
        for _ in range(1000):
            doc = random_document(rng)
            assert decode_core(encode_core(doc)) == doc

    def test_output_is_element_text_only_by_full_traversal(self):
        rng = random.Random(212)
        for _ in range(300):
            encoded = encode_core(random_document(rng))
            assert is_core(encoded)
            for node in document_order(encoded):
                assert not isinstance(node, (PI, Comment))
                if isinstance(node, Element):
                    assert node.attributes == ()

    def test_injective_on_random_pairs(self):
        rng = random.Random(213)
        for _ in range(400):
            a = random_document(rng)
            b = random_document(rng)
            if a != b:
                assert encode_core(a) != encode_core(b)

    def test_shape_preserving_cases(self):
        # a pre-encoded shape must not be mistaken for an attribute wrapper
        tricky = element("a", [], [element("href", [], [text("v")])])
        assert decode_core(encode_core(tricky)) == tricky
        assert isinstance(decode_core(encode_core(tricky)), Element)

    def test_is_core_walks_a_100000_deep_chain(self):
        chain = text("x")
        for _ in range(100_000):
            chain = element("a", [], [chain])
        assert is_core(chain)
        assert not is_core(element("r", [], [chain, pi("p")]))

    def test_empty_text_round_trips(self):
        doc = element("a", [("k", "")], [pi(""), comment(""), text("")])
        assert decode_core(encode_core(doc)) == doc


def test_text_variant_passthrough_requires_cleanliness():
    assert encode_core(text("plain")) == Text("plain")
    with pytest.raises(SentinelCollisionError):
        encode_core(text(COMMENT_MARK))


class TestSplitSentinelText:
    def test_restores_merged_marked_runs(self):
        from ltlx import split_sentinel_text

        merged = element("a", [], [text(f"plain{PI_MARK}tgt d{COMMENT_MARK}note")])
        assert split_sentinel_text(merged) == element(
            "a",
            [],
            [text("plain"), text(PI_MARK + "tgt d"), text(COMMENT_MARK + "note")],
        )

    def test_textual_round_trip_without_trailing_text_ambiguity(self):
        """serialize∘encode then parse∘split∘decode is the identity whenever
        no pi/comment is immediately followed by a text sibling (that plain
        tail would be absorbed into the marked run and is unrecoverable)."""
        from ltlx import parse, serialize, split_sentinel_text

        def ambiguous(node):
            if not isinstance(node, Element):
                return False
            for left, right in zip(node.children, node.children[1:]):
                if isinstance(left, (PI, Comment)) and isinstance(right, Text):
                    return True
            return any(ambiguous(c) for c in node.children)

        rng = random.Random(214)
        checked = 0
        while checked < 200:
            doc = random_document(rng)
            if ambiguous(doc):
                continue
            checked += 1
            emitted = serialize(encode_core(doc))
            recovered = decode_core(split_sentinel_text(parse(emitted)))
            assert recovered == doc

    def test_textual_round_trip_of_texts_longer_than_the_parser_buffer(self):
        """Expat reads character data in pieces of at most 8192 characters;
        a 10 KB attribute value, text and comment all come back whole."""
        from ltlx import parse, serialize, split_sentinel_text

        long = "x&<" * 3400
        doc = element("a", [("k", long)], [element("b", [], [text(long)]), comment(long)])
        emitted = serialize(encode_core(doc))
        assert decode_core(split_sentinel_text(parse(emitted))) == doc

    def test_a_leaf_root_comes_back_as_it_is(self):
        # Only an element's children are split: a text root with two marked runs stays one text.
        for leaf in (text(f"{PI_MARK}tgt d{COMMENT_MARK}note"), comment("c"), pi("t d")):
            assert split_sentinel_text(leaf) is leaf

    # Marks that are special inside a regular-expression character class, among any others.
    MARKS = st.lists(
        st.sampled_from("]^-\\[" + PI_MARK + COMMENT_MARK) | st.characters(),
        min_size=3,
        max_size=3,
        unique=True,
    )
    CASES = MARKS.flatmap(
        lambda marks: st.tuples(
            st.just(marks), st.text(st.sampled_from(marks) | st.sampled_from("ab]^-\\\n"))
        )
    )

    @given(case=CASES)
    @example(case=("]^-", "a]b^^-c-"))
    @example(case=("\\-^", "\\]x-\\"))
    @example(case=("]^-", ""))
    def test_parts_start_at_marks_and_join_back(self, case):
        from ltlx import split_sentinel_text

        marks, content = case
        split = split_sentinel_text(element("a", [], [text(content)]), SentinelConfig(*marks))
        parts = [child.content for child in split.children]
        assert "".join(parts) == content
        assert all(part[:1] in marks for part in parts[1:])
        assert not any(mark in part[1:] for part in parts for mark in marks)
        if not content:
            assert parts == [""]


class TestSharedLeaves:
    DOC = '<r a="x"><p k="v">t<?pi d?></p><p k="v">t<?pi d?></p><!--c--><q k="v" a="x"><!--c--></q></r>'

    def test_equal_attributes_share_one_wrapper(self):
        encoded = encode_core(element("r", [], [element("p", [("k", "v")]), element("p", [("k", "v")])]))
        (first,), (second,) = (p.children for p in encoded.children)
        assert first is second and first == element("k", [], [text(ATTR_MARK + "v")])

    def test_textual_round_trip_equals_and_shares(self):
        doc = parse(self.DOC)
        back = decode_core(split_sentinel_text(parse(serialize(encode_core(doc)))))
        assert back == doc and serialize(back) == serialize(doc)
        p1, p2, c, q = back.children
        assert p1.attributes[0] is p2.attributes[0] is q.attributes[0]
        assert back.attributes[0] is q.attributes[1]
        assert p1.children[1] is p2.children[1] and c is q.children[0]
