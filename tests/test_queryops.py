import random

import pytest

import reference_paths
from ltlx import element, eval_path, parse_path_text, queryops, text
from ltlx.errors import BadIndexPathError, TypeMismatchError
from ltlx.nodes import Element, comment, document_order, node_count, pi
from ltlx.queryops import (
    Down,
    UP,
    attr_name_by_value,
    attr_value,
    child_by_name,
    children,
    copy,
    copy_of,
    count_children,
    descendant_or_self_by_name,
    descendants,
    follow_index_path,
    last_child,
    lvl,
    pi_value,
    reachable,
    rem,
    rem_el,
    text_value,
)

from conftest import random_document


# Directed tests for every inference rule of the operator tables, keyed by
# rule so the acceptance suite can re-run them one by one.  Inputs and
# expected outputs are transcribed from the rules themselves.

def _case_child_named():
    e = element("a", [], [element("b"), text("x"), element("b", [("c", "1")])])
    assert list(child_by_name(e, "b")) == [element("b"), element("b", [("c", "1")])]


def _case_pi_extract():
    assert pi_value(pi("xml-stylesheet")) == "xml-stylesheet"


def _case_dos_self():
    e = element("p")
    assert list(descendant_or_self_by_name(e, "p")) == [e]


def _case_dos_fail_on_mismatched_leaf():
    assert list(descendant_or_self_by_name(element("x"), "p")) == []


def _case_text_extract():
    assert text_value(text("hello")) == "hello"


def _case_dos_head_recursion():
    # the first child's subtree is searched before anything else
    e = element("a", [], [element("q", [], [element("p", [], [text("h")])])])
    assert list(descendant_or_self_by_name(e, "p")) == [element("p", [], [text("h")])]


def _case_id_fail_on_empty_attributes():
    assert list(attr_name_by_value(element("a"), "1")) == []


def _case_dos_sibling_recursion():
    # after the first child's subtree, the remaining hedge is searched
    nested = element("q", [], [element("p", [], [text("h")])])
    sibling = element("p", [], [text("w")])
    e = element("a", [], [nested, sibling])
    assert list(descendant_or_self_by_name(e, "p")) == [
        element("p", [], [text("h")]),
        sibling,
    ]


def _case_attr_fail_on_empty_attributes():
    assert attr_value(element("a"), "b") is None


def _case_attr_value():
    assert attr_value(element("a", [("b", "1")]), "b") == "1"


def _case_id_value():
    assert list(attr_name_by_value(element("a", [("b", "1")]), "1")) == ["b"]


def _case_descendant_fail_on_childless():
    assert list(descendants(element("a"))) == []


def _case_descendant_recursion():
    e = element("a", [], [element("b", [], [text("t")])])
    assert list(descendants(e)) == [element("b", [], [text("t")]), text("t")]


def _case_children():
    e = element("a", [], [text("x"), element("b")])
    assert list(children(e)) == [text("x"), element("b")]


def _case_last():
    e = element("a", [], [text("x"), element("b")])
    assert last_child(e) == element("b")


def _case_count():
    assert count_children(element("a", [], [text("x"), element("b")])) == 2


def _case_lvl():
    root = element("r", [], [element("a"), element("b", [], [text("t")])])
    assert list(lvl(root, text("t"))) == [(2, 1)]


def _case_copy():
    n = element("a", [("b", "1")], [text("t")])
    assert copy(n) == n


def _case_copy_of():
    n = element("a", [("b", "1")], [text("t")])
    assert copy_of(n) == element("a", [("b", "1")])


def _case_rem_el():
    top = element("top", [], [element("a"), element("b"), element("a")])
    assert rem_el(top, "a") == element("top", [], [element("b"), element("a")])


def _case_rem():
    top = element("top", [], [text("x"), text("y"), text("x")])
    assert rem(top, text("x")) == element("top", [], [text("y"), text("x")])


APPENDIX_RULE_CASES = {
    "last": _case_last,
    "count": _case_count,
    "lvl": _case_lvl,
    "copy": _case_copy,
    "copy_of": _case_copy_of,
    "rem_el": _case_rem_el,
    "rem": _case_rem,
    "child-named": _case_child_named,
    "pi-extract": _case_pi_extract,
    "dos-self": _case_dos_self,
    "dos-fail-mismatched-leaf": _case_dos_fail_on_mismatched_leaf,
    "text-extract": _case_text_extract,
    "dos-head-recursion": _case_dos_head_recursion,
    "id-fail-empty-attributes": _case_id_fail_on_empty_attributes,
    "dos-sibling-recursion": _case_dos_sibling_recursion,
    "attr-fail-empty-attributes": _case_attr_fail_on_empty_attributes,
    "attr-value": _case_attr_value,
    "id-value": _case_id_value,
    "descendant-fail-childless": _case_descendant_fail_on_childless,
    "descendant-recursion": _case_descendant_recursion,
    "child": _case_children,
}


@pytest.mark.parametrize("rule", sorted(APPENDIX_RULE_CASES))
def test_operator_rule(rule):
    APPENDIX_RULE_CASES[rule]()


class TestOperatorEdges:
    def test_child_by_name_empty(self):
        assert list(child_by_name(element("a"), "b")) == []

    def test_child_by_name_finds_nothing_on_leaves(self):
        # The child axis of a leaf is empty, as in XPath 1.0.
        for node in (text("x"), pi("p"), comment("c")):
            assert list(child_by_name(node, "b")) == []
            assert list(eval_path(node, parse_path_text("/b"))) == []

    def test_dos_finds_nothing_on_leaves(self):
        for node in (text("x"), pi("p"), comment("c")):
            assert list(descendant_or_self_by_name(node, "p")) == []
            assert list(descendant_or_self_by_name(node, None)) == []
            assert list(eval_path(node, parse_path_text("//*"))) == []
        doc = element("r", [], [text("t"), element("p"), comment("c")])
        assert list(eval_path(doc, parse_path_text("child //*"))) == [element("p")]

    def test_attribute_steps_find_nothing_on_non_elements(self):
        # The attribute axis of a non-element is empty, as in XPath 1.0.
        for node in (text("x"), pi("p"), comment("c")):
            assert attr_value(node, "b") is None
            assert list(attr_name_by_value(node, "1")) == []
            assert list(eval_path(node, parse_path_text("@b"))) == []
            assert list(eval_path(node, parse_path_text('id("1")'))) == []
        doc = element("r", [], [text("t"), element("p", [("b", "1")])])
        assert list(eval_path(doc, parse_path_text("child @b"))) == ["1"]
        assert list(eval_path(doc, parse_path_text('child id("1")'))) == ["b"]

    def test_attr_value_scans_in_order(self):
        assert attr_value(element("a", [("b", "1"), ("c", "2")]), "c") == "2"

    def test_id_multiple_matches_in_attribute_order(self):
        e = element("a", [("b", "1"), ("c", "1")])
        assert list(attr_name_by_value(e, "1")) == ["b", "c"]

    def test_text_value_failures(self):
        assert text_value(element("a")) is None
        assert text_value(text("")) == ""

    def test_pi_value_failures(self):
        assert pi_value(text("x")) is None
        assert pi_value(pi("")) == ""

    def test_children_excludes_attributes(self):
        assert list(children(element("a", [("z", "1")], [pi("p")]))) == [pi("p")]

    def test_children_finds_nothing_on_leaves(self):
        for node in (text("x"), pi("p"), comment("c")):
            assert list(children(node)) == []
            assert list(eval_path(node, parse_path_text("child"))) == []
        doc = element("r", [], [text("t"), element("p", [], [text("u")])])
        assert list(eval_path(doc, parse_path_text("child child"))) == [text("u")]

    def test_descendants_of_text_is_empty(self):
        assert list(descendants(text("x"))) == []

    def test_last_child_failures(self):
        assert last_child(element("a")) is None
        assert last_child(element("a", [], [text("only")])) == text("only")

    def test_count_children_cases(self):
        assert count_children(element("a")) == 0
        assert count_children(element("a", [("z", "1")], [pi("p")])) == 1

    def test_copy_of_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            copy_of(text("x"))

    def test_copy_of_fixed_point_on_empty(self):
        assert copy_of(element("a")) == element("a")

    def test_rem_el_failures(self):
        assert rem_el(element("top"), "a") is None
        assert rem_el(element("top", [], [text("t")]), "a") is None

    def test_rem_failures(self):
        assert rem(element("top"), text("x")) is None
        assert rem(element("top", [], [text("x")]), text("x")) == element("top")


class TestDocumentOrderEquivalence:
    def test_dos_matches_document_order_filter(self):
        rng = random.Random(511)
        for _ in range(500):
            doc = random_document(rng)
            for name in ("a", "p", "item"):
                expected = [
                    n
                    for n in document_order(doc)
                    if isinstance(n, Element) and n.name == name
                ]
                assert list(descendant_or_self_by_name(doc, name)) == expected
            wildcard = [n for n in document_order(doc) if isinstance(n, Element)]
            assert list(descendant_or_self_by_name(doc, None)) == wildcard

    def test_descendants_is_document_order_minus_self(self):
        rng = random.Random(512)
        for _ in range(300):
            doc = random_document(rng)
            assert list(descendants(doc)) == list(document_order(doc))[1:]


class TestDeepChain:
    def test_traversals_walk_a_100000_deep_chain(self):
        depth = 100_000
        chain = element("x")
        for _ in range(depth):
            chain = element("x", [], [chain])
        assert node_count(chain) == depth + 1
        assert sum(1 for _ in descendants(chain)) == depth
        found = list(eval_path(chain, parse_path_text("//x")))
        assert len(found) == depth + 1
        assert found[0] is chain and found[-1].children == ()

    def test_descendant_or_self_by_name_walks_a_100000_deep_chain(self):
        depth = 100_000
        chain = text("t")
        for i in range(depth):
            chain = element("ab"[i % 2], [], [element("c"), chain, text("u")])
        assert len(list(descendant_or_self_by_name(chain, "a"))) == depth // 2
        assert len(list(descendant_or_self_by_name(chain, None))) == 2 * depth
        assert list(eval_path(chain, parse_path_text("//c#1"))) == [element("c")]
        assert list(eval_path(chain, parse_path_text("//d"))) == []

    def test_lvl_finds_the_leaf_of_a_10000_deep_chain(self):
        depth = 10_000
        chain = text("x")
        for _ in range(depth):
            chain = element("a", [], [chain])
        assert list(lvl(chain, text("x"))) == [(1,) * depth]
        assert list(lvl(chain, element("b"))) == []

    def test_lvl_of_a_100000_deep_chain_in_itself_is_linear(self):
        # Every node has the target's name and shape; only subtree sizes tell
        # them apart, so a walk comparing each one in full would be quadratic.
        depth = 100_000
        chain = text("x")
        for _ in range(depth):
            chain = element("a", [], [chain])
        assert list(lvl(chain, chain)) == [()]
        assert list(lvl(chain, chain.children[0].children[0])) == [(1, 1)]


def enumerate_index_paths(node, prefix=()):
    """All (index path, node) pairs of a document, pre-order."""
    yield prefix, node
    if isinstance(node, Element):
        for i, child in enumerate(node.children, start=1):
            yield from enumerate_index_paths(child, prefix + (i,))


class TestLvl:
    def test_self_path(self):
        r = element("r", [], [element("a")])
        assert list(lvl(r, r)) == [()]

    def test_duplicate_targets_yield_multiple_paths(self):
        r = element("r", [], [element("a"), element("a")])
        assert list(lvl(r, element("a"))) == [(1,), (2,)]

    def test_unreachable_is_empty(self):
        r = element("r", [], [element("a")])
        assert list(lvl(r, text("zzz"))) == []

    def test_matches_exhaustive_index_path_search(self):
        rng = random.Random(521)
        for _ in range(150):
            doc = random_document(rng, max_depth=4, max_nodes=15)
            pairs = list(enumerate_index_paths(doc))
            for path, node in pairs:
                found = list(lvl(doc, node))
                expected = [p for p, n in pairs if n == node]
                assert found == expected
                assert path in found
                assert follow_index_path(doc, path) == node


class TestReachable:
    def test_same_node(self):
        r = element("r", [], [element("a")])
        assert reachable(r, (1,), (1,)) == []

    def test_up_then_down(self):
        r = element("r", [], [element("a"), element("b", [], [text("t")])])
        assert reachable(r, (1,), (2, 1)) == [UP, Down(2), Down(1)]

    def test_root_to_child(self):
        r = element("r", [], [element("a")])
        assert reachable(r, (), (1,)) == [Down(1)]

    def test_invalid_path_rejected(self):
        r = element("r", [], [element("a")])
        with pytest.raises(BadIndexPathError):
            reachable(r, (2,), ())
        with pytest.raises(BadIndexPathError):
            follow_index_path(r, (1, 1))
        leafy = element("r", [], [text("t")])
        with pytest.raises(BadIndexPathError, match="^index 1 descends into non-element at position 1$"):
            follow_index_path(leafy, (1, 1))

    @staticmethod
    def _simulate(root, start, moves):
        path = list(start)
        for move in moves:
            if move is UP or isinstance(move, type(UP)):
                assert path, "cannot ascend above the root"
                path.pop()
            else:
                path.append(move.index)
        return follow_index_path(root, path)

    @staticmethod
    def _all_shapes(n):
        """All element-only tree shapes with exactly n nodes."""
        if n == 1:
            return [element("n")]
        shapes = []

        def parts(total, budgets):
            if total == 0:
                shapes.append(element("n", [], [b for b in budgets]))
                return
            for size in range(1, total + 1):
                for sub in TestReachable._all_shapes(size):
                    parts(total - size, budgets + [sub])

        parts(n - 1, [])
        return shapes

    def test_exhaustive_sweep_bound_and_validity(self):
        corpus = []
        for n in range(1, 6):
            corpus.extend(self._all_shapes(n))
        rng = random.Random(531)
        corpus.extend(random_document(rng, max_depth=4, max_nodes=15) for _ in range(40))
        for doc in corpus:
            total = node_count(doc)
            assert total <= 15 or True  # random docs are capped at 15 by construction
            pairs = list(enumerate_index_paths(doc))
            for u_path, u_node in pairs:
                for v_path, v_node in pairs:
                    moves = reachable(doc, u_path, v_path)
                    assert len(moves) <= total - 1 or (u_path == v_path and not moves)
                    assert self._simulate(doc, u_path, moves) == v_node


class TestOneStepManipulation:
    def test_random_cases_against_scan_oracle(self):
        rng = random.Random(541)
        checked = 0
        while checked < 500:
            doc = random_document(rng, max_depth=3, max_nodes=12)
            # rem_el against leftmost-named-child scan
            target_names = {c.name for c in doc.children if isinstance(c, Element)}
            for name in target_names:
                result = rem_el(doc, name)
                index = next(
                    i
                    for i, c in enumerate(doc.children)
                    if isinstance(c, Element) and c.name == name
                )
                expected = Element(
                    doc.name, doc.attributes, doc.children[:index] + doc.children[index + 1 :]
                )
                assert result == expected
                assert len(result.children) == len(doc.children) - 1
                checked += 1
            # rem against leftmost-equal scan
            if doc.children:
                child = rng.choice(doc.children)
                result = rem(doc, child)
                index = doc.children.index(child)
                expected = Element(
                    doc.name, doc.attributes, doc.children[:index] + doc.children[index + 1 :]
                )
                assert result == expected
                assert len(result.children) == len(doc.children) - 1
                checked += 1
            assert rem_el(doc, "no_such_name") is None
            assert rem(doc, text("never")) is None


HELLO_WORLD = element(
    "a",
    [],
    [
        element("q", [], [element("p", [], [text("hello")])]),
        element("p", [], [text("world")]),
    ],
)


class TestEvalPath:
    def test_first_descendant_text(self):
        path = parse_path_text("//p#1/#")
        assert list(eval_path(HELLO_WORLD, path)) == ["hello"]

    def test_count_single_step_equivalence(self):
        rng = random.Random(551)
        for _ in range(100):
            doc = random_document(rng, max_depth=3)
            assert list(eval_path(doc, parse_path_text("count"))) == [
                count_children(doc)
            ]

    def test_attr_single_step_equivalence(self):
        doc = element("a", [("b", "1")])
        assert list(eval_path(doc, parse_path_text("@b"))) == ["1"]
        assert list(eval_path(element("a"), parse_path_text("@b"))) == []

    def test_single_step_agreement_with_dedicated_operations(self):
        rng = random.Random(552)
        for _ in range(100):
            doc = random_document(rng, max_depth=3)
            assert list(eval_path(doc, parse_path_text("//p"))) == list(
                descendant_or_self_by_name(doc, "p")
            )
            assert list(eval_path(doc, parse_path_text("child"))) == list(children(doc))
            assert list(eval_path(doc, parse_path_text("descendant"))) == list(
                descendants(doc)
            )
            assert list(eval_path(doc, parse_path_text("/p"))) == list(
                child_by_name(doc, "p")
            )
            last = last_child(doc)
            assert list(eval_path(doc, parse_path_text("last"))) == (
                [last] if last is not None else []
            )

    def test_first_only_is_head_of_all_solutions(self):
        rng = random.Random(553)
        for _ in range(150):
            doc = random_document(rng, max_depth=4)
            for raw in ("//a", "//p/#", "child", "descendant", "//*"):
                path = parse_path_text(raw)
                everything = list(eval_path(doc, path, mode="all"))
                first = list(eval_path(doc, path, mode="first"))
                assert first == everything[:1]

    def test_index_selects_kth(self):
        doc = element("r", [], [element("p", [], [text("1")]), element("p", [], [text("2")])])
        assert list(eval_path(doc, parse_path_text("//p#2/#"))) == ["2"]
        assert list(eval_path(doc, parse_path_text("//p#9"))) == []

    def test_type_mismatch_names_step_position(self):
        # after an index selection the stream can hold scalars, so a node
        # step there is a runtime type error naming its position
        doc = element("a", [("b", "1")])
        with pytest.raises(TypeMismatchError) as err:
            list(eval_path(doc, parse_path_text("@b#1 child")))
        assert "step 3" in str(err.value)

    def test_empty_intermediate_stream_fails_overall(self):
        assert list(eval_path(element("a"), parse_path_text("/b/c/#"))) == []

    def test_text_coercion_on_elements(self):
        doc = element("p", [], [text("x"), element("b"), text("y")])
        assert list(eval_path(doc, parse_path_text("#"))) == ["x", "y"]
        assert list(eval_path(doc, parse_path_text("#"), coerce_text=False)) == []

    def test_coercion_off_still_reads_text_nodes(self):
        doc = element("p", [], [text("x")])
        assert list(eval_path(doc, parse_path_text("child/#"), coerce_text=False)) == ["x"]

    def test_lvl_step_yields_index_paths(self):
        doc = element(
            "r",
            [],
            [element("a", [("i", "1")]), element("b", [], [element("a", [("i", "2")])])],
        )
        assert list(eval_path(doc, parse_path_text("//a lvl"))) == [(1,), (2, 1)]

    def test_lvl_step_over_20000_siblings_walks_the_document_once(self):
        # Each context node used to cost a walk of the whole document, so
        # this took minutes; one walk files every node by subtree hash.
        k = 20_000
        doc = element("r", [], [element("p", [("i", str(i))]) for i in range(k)])
        assert list(eval_path(doc, parse_path_text("//p lvl"))) == [(i,) for i in range(1, k + 1)]

    def test_lvl_step_gives_each_context_node_every_equal_node_in_document_order(self):
        same = element("p", [], [text("x")])
        doc = element(
            "r", [], [same, element("q", [], [element("p", [], [text("x")]), same]), element("p"), same]
        )
        # Equal context nodes, shared and distinct objects alike, get one answer.
        expected = [(1,), (2, 1), (2, 2), (4,)]
        found = list(eval_path(doc, parse_path_text("//p lvl")))
        assert found == expected * 3 + [(3,)] + expected
        assert found == list(reference_paths.eval_path(doc, parse_path_text("//p lvl")))
        # Context nodes from outside the document are looked up in it too.
        outside = element("o", [], [element("p", [], [text("x")]), element("q"), element("p")])
        path = parse_path_text("child lvl")
        found = list(eval_path(outside, path, root=doc))
        assert found == expected + [(3,)] == list(reference_paths.eval_path(outside, path, root=doc))

    def test_lvl_step_on_one_context_node_files_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(queryops, "_subtree_hash", lambda *args: calls.append(args))
        doc = element("r", [], [element("s", [], [element("s")]), element("s")])
        assert list(eval_path(doc, parse_path_text("//s#2 lvl"))) == [(1, 1), (2,)]
        assert calls == []

    def test_id_step(self):
        doc = element("r", [("x", "7"), ("y", "7")])
        assert list(eval_path(doc, parse_path_text('id("7")'))) == ["x", "y"]

    def test_pi_step(self):
        doc = element("r", [], [pi("tgt data")])
        assert list(eval_path(doc, parse_path_text("child ?"))) == ["tgt data"]
