import copy
import random

import pytest

from ltlx import canonicalize, element, text
from ltlx.errors import DuplicateAttributeError
from ltlx.nodes import Attribute, Element, comment, document_order, node_count, node_equal, pi

from conftest import random_document


def sorted_attrs_oracle(node):
    """Independent canonicalization: stable sort of each attribute sequence by name."""
    if not isinstance(node, Element):
        return node
    return Element(
        node.name,
        tuple(sorted(node.attributes, key=lambda a: a.name)),
        tuple(sorted_attrs_oracle(c) for c in node.children),
    )


def preorder_oracle(node):
    """Independent document order: recursive concatenation."""
    out = [node]
    if isinstance(node, Element):
        for child in node.children:
            out.extend(preorder_oracle(child))
    return out


class TestCanonicalize:
    def test_sorts_attributes_by_name(self):
        n = element("a", [("z", "1"), ("b", "2")])
        assert canonicalize(n) == element("a", [("b", "2"), ("z", "1")])

    def test_no_attributes_is_identity(self):
        n = element("a")
        assert canonicalize(n) is not None
        assert canonicalize(n) == n

    def test_recurses_into_children(self):
        n = element("a", [("b", "1")], [element("c", [("y", "1"), ("x", "2")])])
        expected = element("a", [("b", "1")], [element("c", [("x", "2"), ("y", "1")])])
        assert canonicalize(n) == expected
        assert canonicalize(n) == sorted_attrs_oracle(n)

    def test_duplicate_attribute_rejected(self):
        n = element("a", [("b", "1"), ("b", "2")])
        with pytest.raises(DuplicateAttributeError) as err:
            canonicalize(n)
        assert err.value.element == "a"
        assert err.value.attribute == "b"

    def test_idempotent_and_matches_oracle_on_random_documents(self):
        rng = random.Random(101)
        for _ in range(300):
            doc = random_document(rng)
            canon = canonicalize(doc)
            assert canon == sorted_attrs_oracle(doc)
            assert canonicalize(canon) == canon

    def test_preserves_attribute_multiset_and_child_order(self):
        rng = random.Random(102)
        for _ in range(200):
            doc = random_document(rng)
            canon = canonicalize(doc)
            for before, after in zip(document_order(doc), document_order(canon)):
                assert type(before) is type(after)
                if isinstance(before, Element):
                    assert sorted(before.attributes, key=lambda a: (a.name, a.value)) == sorted(
                        after.attributes, key=lambda a: (a.name, a.value)
                    )
                    assert len(before.children) == len(after.children)

    def test_sort_is_by_code_point(self):
        n = element("a", [("B", "1"), ("a", "2")])
        # "B" (U+0042) sorts before "a" (U+0061)
        assert canonicalize(n).attributes[0].name == "B"


class TestNodeEqual:
    def test_identical_text(self):
        assert node_equal(text("x"), text("x"))

    def test_differing_attribute_sequences(self):
        assert not node_equal(element("a", [("b", "1")]), element("a"))

    def test_attribute_order_matters(self):
        left = element("a", [("b", "1"), ("c", "2")])
        right = element("a", [("c", "2"), ("b", "1")])
        assert not node_equal(left, right)
        assert node_equal(canonicalize(left), canonicalize(right))

    def test_variant_mismatch(self):
        assert not node_equal(text("x"), comment("x"))
        assert not node_equal(pi("x"), text("x"))

    def test_element_equality_is_node_equal_and_hash_looks_one_level_deep(self):
        rng = random.Random(83)
        for _ in range(300):
            a = random_document(rng)
            for b in (random_document(rng), copy.deepcopy(a)):
                assert (a == b) is node_equal(a, b)
                assert a != b or hash(a) == hash(b)
        left = element("a", [("k", "v")], [text("x")])
        right = element("a", [("k", "v")], [text("y")])
        assert left != right and hash(left) == hash(right)
        assert element("a") != text("a") and element("a") != "a"


def chain(depth, leaf):
    """`depth` nested <a> elements over one text leaf."""
    node = text(leaf)
    for _ in range(depth):
        node = element("a", [], [node])
    return node


class TestDeepEquality:
    def test_equal_distinct_100000_deep_chains_compare_and_hash(self):
        left, right = chain(100_000, "x"), chain(100_000, "x")
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1

    def test_100000_deep_chains_differing_at_the_leaf(self):
        assert chain(100_000, "x") != chain(100_000, "y")


class TestDocumentOrder:
    def test_leaf(self):
        assert list(document_order(text("x"))) == [text("x")]

    def test_parent_before_children_left_to_right(self):
        n = element("a", [], [element("b"), text("t")])
        assert list(document_order(n)) == [n, element("b"), text("t")]

    def test_depth_three_matches_recursive_concatenation(self):
        n = element(
            "a",
            [],
            [
                element("b", [], [text("1"), element("c", [], [text("2")])]),
                pi("p"),
                comment("k"),
            ],
        )
        nodes = list(document_order(n))
        assert len(nodes) == 7
        assert nodes == preorder_oracle(n)

    def test_random_documents_start_with_root_and_count_nodes(self):
        rng = random.Random(103)
        for _ in range(200):
            doc = random_document(rng)
            order = list(document_order(doc))
            assert order[0] == doc
            assert order == preorder_oracle(doc)
            assert node_count(doc) == len(order)


class TestInvariants:
    def test_element_name_must_be_non_empty(self):
        with pytest.raises(ValueError):
            Element("")

    def test_attribute_name_must_be_non_empty(self):
        with pytest.raises(ValueError):
            Attribute("", "v")
