"""The document rewrites against the recursive versions they replaced.

tests/reference_trees.py keeps `canonicalize`, `encode_core`,
`decode_core`, `split_sentinel_text` and `serialize` as they were before
they became callbacks over `ltlx.nodes.rebuild` or explicit-stack loops.
Both must give equal output, or the same exception type and message, on
seeded random documents, on their encodings, and on encodings given one
fault each.  Two differences, both in which of several faults in one
input is reported, are pinned by their own tests below:

1. canonicalize, on an element with duplicate attributes inside another:
   the recursion named the outer one, the rebuild names the inner one;
2. decode_core, on faults in an element and inside it, or a pi inside an
   attribute wrapper (which breaks the wrapper too): the recursion named
   the outer fault, the rebuild names the first one it closes.

The other tests pin the sentinel collision message, and run each
rewrite, and repr, on a 100 000-level chain at the default recursion
limit.
"""

from __future__ import annotations

import random

import pytest

import reference_trees as ref
from ltlx import decode_core, encode_core, parse, serialize, split_sentinel_text
from ltlx.encoding import DEFAULT_SENTINELS, SentinelConfig
from ltlx.errors import DecodeError, DuplicateAttributeError, SentinelCollisionError
from ltlx.nodes import Attribute, Comment, Element, Node, PI, Text, canonicalize, document_order

from conftest import random_document

PI_MARK, COMMENT_MARK, ATTR_MARK = DEFAULT_SENTINELS.marks


def outcome(function, *args):
    """What `function(*args)` gives: ("value", repr) or (type, message)."""
    try:
        result = function(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return "value", result if isinstance(result, str) else repr(result)


def assert_agrees(new, old, *args):
    assert outcome(new, *args) == outcome(old, *args), args


def with_element(root: Node, target: Element, replace) -> Node:
    """`root` with the element `target` (found by identity) replaced by
    `replace(target)`.  Recursive; test trees are shallow."""
    if root is target:
        return replace(root)
    if not isinstance(root, Element):
        return root
    return Element(root.name, root.attributes, tuple(with_element(c, target, replace) for c in root.children))


def random_element(rng: random.Random, root: Node) -> Element:
    return rng.choice([n for n in document_order(root) if isinstance(n, Element)])


def wrapper(name: str, value: str) -> Element:
    return Element(name, (), (Text(ATTR_MARK + value),))


def insert_child(rng: random.Random, e: Element, child: Node) -> Element:
    at = rng.randint(0, len(e.children))
    return Element(e.name, e.attributes, e.children[:at] + (child,) + e.children[at:])


def raw_attribute(rng, e):
    return Element(e.name, e.attributes + (Attribute("raw", "v"),), e.children)


def wrapper_after_a_real_child(rng, e):
    return Element(e.name, e.attributes, e.children + (Element("p"), wrapper("late", "v")))


def stray_marked_text(rng, e):
    return insert_child(rng, e, Text(ATTR_MARK + "stray"))


def pi_or_comment_node(rng, e):
    return insert_child(rng, e, rng.choice([PI("t d"), Comment("c")]))


FAULTS = (raw_attribute, wrapper_after_a_real_child, stray_marked_text, pi_or_comment_node)


def documents(seed: int, count: int):
    rng = random.Random(seed)
    return rng, [random_document(rng) for _ in range(count)]


class TestAgreesWithTheRecursion:
    def test_serialize_and_canonicalize_on_random_documents(self):
        _, docs = documents(101, 400)
        for doc in docs:
            for declaration in (False, True):
                assert_agrees(serialize, ref.serialize, doc, declaration)
            assert_agrees(canonicalize, ref.canonicalize, doc)

    def test_serialize_on_leaves_and_encodings(self):
        for leaf in (Text("a<&>\r"), PI("t d"), Comment(" c ")):
            assert_agrees(serialize, ref.serialize, leaf)
        _, docs = documents(102, 200)
        for doc in docs:
            assert_agrees(serialize, ref.serialize, ref.encode_core(doc))

    def test_canonicalize_with_one_duplicate_attribute(self):
        rng, docs = documents(103, 400)
        for doc in docs:
            faulty = with_element(
                doc,
                random_element(rng, doc),
                lambda e: Element(e.name, e.attributes + (Attribute("dup", "1"), Attribute("dup", "2")), e.children),
            )
            assert_agrees(canonicalize, ref.canonicalize, faulty)

    def test_encode_round_trip_on_random_documents(self):
        _, docs = documents(104, 400)
        config = SentinelConfig("!", "^", "~")
        for doc in docs:
            for sentinels in (DEFAULT_SENTINELS, config):
                assert_agrees(encode_core, ref.encode_core, doc, sentinels)
                encoded = ref.encode_core(doc, sentinels)
                assert_agrees(decode_core, ref.decode_core, encoded, sentinels)
                reparsed = parse(ref.serialize(encoded))
                assert_agrees(split_sentinel_text, ref.split_sentinel_text, reparsed, sentinels)
                split = ref.split_sentinel_text(reparsed, sentinels)
                assert_agrees(decode_core, ref.decode_core, split, sentinels)

    def test_encode_with_sentinels_in_content(self):
        """Colliding content in one or two places: same mark, same location."""
        rng, docs = documents(105, 600)
        for doc in docs:
            faulty = doc
            for _ in range(rng.randint(1, 2)):
                marks = "x" + "".join(rng.sample(DEFAULT_SENTINELS.marks, rng.randint(1, 3)))
                if rng.random() < 0.3:
                    collide = lambda e: Element(e.name, e.attributes + (Attribute("zz", marks),), e.children)
                else:
                    collide = lambda e: insert_child(rng, e, rng.choice([Text, PI, Comment])(marks))
                faulty = with_element(faulty, random_element(rng, faulty), collide)
            assert_agrees(encode_core, ref.encode_core, faulty)

    @pytest.mark.parametrize("marks", ["]^-", "\\]^", "^-\\"])
    def test_encode_and_split_with_marks_special_in_a_character_class(self, marks):
        rng = random.Random(108)
        config = SentinelConfig(*marks)
        for _ in range(300):
            content = "".join(rng.choices("ab" + marks, k=rng.randrange(5)))
            for doc in (Element("r", (), (Text(content),)), Element("r", (Attribute("k", content),))):
                assert_agrees(encode_core, ref.encode_core, doc, config)
                assert_agrees(split_sentinel_text, ref.split_sentinel_text, doc, config)

    @pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
    def test_decode_of_an_encoding_with_one_fault(self, fault):
        """The fault goes into an element that is not an attribute wrapper:
        one inside a wrapper breaks the wrapper too (difference 2)."""
        rng, docs = documents(106, 300)
        for doc in docs:
            encoded = ref.encode_core(doc)
            targets = [
                n for n in document_order(encoded)
                if isinstance(n, Element) and ref._as_attribute_wrapper(n, DEFAULT_SENTINELS) is None
            ]
            faulty = with_element(encoded, rng.choice(targets), lambda e: fault(rng, e))
            assert_agrees(decode_core, ref.decode_core, faulty)
            assert_agrees(split_sentinel_text, ref.split_sentinel_text, faulty)

    def test_decode_of_a_wrapper_shaped_root(self):
        for root in (wrapper("href", "x"), Text(ATTR_MARK + "x"), PI("t"), Comment("c")):
            assert_agrees(decode_core, ref.decode_core, root)

    def test_split_of_text_with_marks_anywhere(self):
        rng = random.Random(107)
        alphabet = "ab" + "".join(DEFAULT_SENTINELS.marks)
        for _ in range(400):
            texts = ["".join(rng.choices(alphabet, k=rng.randrange(6))) for _ in range(3)]
            doc = Element("r", (), (Text(texts[0]), Element("a", (), (Text(texts[1]),)), Text(texts[2])))
            assert_agrees(split_sentinel_text, ref.split_sentinel_text, doc)


class TestPinnedDifferences:
    def test_canonicalize_names_the_inner_of_two_duplicate_attributes(self):
        dup = (Attribute("k", "1"), Attribute("k", "2"))
        doc = Element("outer", dup, (Element("inner", dup),))
        with pytest.raises(DuplicateAttributeError, match="on element 'outer'"):
            ref.canonicalize(doc)
        with pytest.raises(DuplicateAttributeError, match="on element 'inner'"):
            canonicalize(doc)

    def test_decode_names_the_first_fault_it_closes(self):
        doc = Element("outer", (Attribute("raw", "v"),), (Element("inner", (), (PI("t"),)),))
        with pytest.raises(DecodeError, match="still carries raw attributes"):
            ref.decode_core(doc)
        with pytest.raises(DecodeError, match="pi node cannot appear"):
            decode_core(doc)

    def test_decode_of_a_pi_inside_an_attribute_wrapper(self):
        doc = Element("b", (), (Element("href", (), (Text(ATTR_MARK + "v"), PI("t"))),))
        with pytest.raises(DecodeError, match="attribute-marked text outside"):
            ref.decode_core(doc)
        with pytest.raises(DecodeError, match="pi node cannot appear"):
            decode_core(doc)


class TestSentinelCollisionMessage:
    def test_text_three_levels_down(self):
        doc = Element("doc", (), (
            Element("sec"),
            Element("sec", (), (Element("p"), Text("x"), Element("q", (), (Text("y" + COMMENT_MARK),)))),
        ))
        for encode in (encode_core, ref.encode_core):
            with pytest.raises(SentinelCollisionError) as err:
                encode(doc)
            assert str(err.value) == "sentinel U+E001 found in text at /doc[2]/sec[3]/q[1]/"

    def test_attribute_value(self):
        doc = Element("doc", (), (Element("p", (Attribute("id", "1"), Attribute("href", PI_MARK)),),))
        for encode in (encode_core, ref.encode_core):
            with pytest.raises(SentinelCollisionError) as err:
                encode(doc)
            assert str(err.value) == "sentinel U+E000 found in attribute href at /doc[1]/"


DEPTH = 100_000


def deep_chain(leaf: Node, attributes: tuple[Attribute, ...] = ()) -> Node:
    node = leaf
    for _ in range(DEPTH):
        node = Element("a", attributes, (node,))
    return node


@pytest.fixture(scope="module")
def chain():
    return deep_chain(Text("x"))


class TestDeepChain:
    """Every rewrite runs on a 100 000-level chain at the default recursion limit."""

    def test_parse_serialize_round_trip(self, chain):
        assert parse(serialize(chain)) == chain

    def test_encode_split_decode_round_trip(self, chain):
        encoded = encode_core(chain)
        assert decode_core(split_sentinel_text(parse(serialize(encoded)))) == chain

    def test_repr(self, chain):
        assert repr(chain) == "element(a,[],[" * DEPTH + 'text("x")' + "])" * DEPTH

    def test_every_level_rebuilt(self):
        unsorted = deep_chain(Comment("c"), (Attribute("z", "1"), Attribute("b", "2")))
        canonical = deep_chain(Comment("c"), (Attribute("b", "2"), Attribute("z", "1")))
        assert canonicalize(unsorted) == canonical
        assert canonicalize(canonical) is canonical
        encoded = encode_core(unsorted)
        assert decode_core(split_sentinel_text(parse(serialize(encoded)))) == unsorted

    def test_errors_at_depth(self, chain):
        dup = Element("b", (Attribute("k", "1"), Attribute("k", "2")))
        with pytest.raises(DuplicateAttributeError):
            canonicalize(Element("a", (), (chain, dup)))
        with pytest.raises(SentinelCollisionError) as err:
            encode_core(Element("r", (), (chain, deep_chain(Text(ATTR_MARK)))))
        assert str(err.value).endswith(" found in text at /r[2]/" + "a[1]/" * DEPTH)
        with pytest.raises(DecodeError, match="pi node cannot appear"):
            decode_core(deep_chain(PI("p")))
