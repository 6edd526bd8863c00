import random

import pytest

from ltlx import element, text
from ltlx.errors import ShapeError, UnboundOutputError
from ltlx.nodes import Element, document_order, pi
from ltlx.terms import (
    Anonymous,
    Atom,
    Compound,
    Int,
    Seq,
    Str,
    Var,
    anon,
    apply_subst,
    is_ground,
    match,
    term_to_node,
    unify,
    variables_of,
)

from conftest import (
    abstract,
    random_document,
    random_ground_term,
    random_term,
    rename,
    wildcards,
)
from reference_engine import node_to_term


def naive_replace(mapping, term):
    """Independent apply_subst: simultaneous one-pass replacement."""
    if isinstance(term, Var) and term.name in mapping:
        return mapping[term.name]
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(naive_replace(mapping, a) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(naive_replace(mapping, i) for i in term.items))
    return term


class TestNodeTermBridge:
    def test_text_embeds_directly(self):
        assert node_to_term(text("x")) == Compound("text", (Str("x"),))

    def test_empty_element(self):
        assert node_to_term(element("a")) == Compound(
            "element", (Atom("a"), Seq(()), Seq(()))
        )

    def test_attributes_embed_as_pairs(self):
        term = node_to_term(element("a", [("b", "1")], [text("t")]))
        assert term == Compound(
            "element",
            (
                Atom("a"),
                Seq((Compound("=", (Atom("b"), Str("1"))),)),
                Seq((Compound("text", (Str("t"),)),)),
            ),
        )
        assert term_to_node(term) == element("a", [("b", "1")], [text("t")])

    def test_round_trip_on_random_documents(self):
        rng = random.Random(411)
        for _ in range(300):
            doc = random_document(rng)
            term = node_to_term(doc)
            assert is_ground(term)
            assert term_to_node(term) == doc

    def test_unbound_variable_is_named(self):
        with pytest.raises(UnboundOutputError) as err:
            term_to_node(Compound("text", (Var("T"),)))
        assert err.value.variable == "T"

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            term_to_node(Compound("frob", (Str("x"),)))
        with pytest.raises(ShapeError):
            term_to_node(Atom("a"))
        with pytest.raises(ShapeError):
            term_to_node(Compound("element", (Atom("a"), Seq(()))))

    def test_nested_ground_term(self):
        doc = element("a", [], [element("b", [("k", "v")], [pi("p"), text("t")])])
        assert term_to_node(node_to_term(doc)) == doc


class TestUnify:
    def test_shared_variable_pattern(self):
        pattern = Compound(
            "element", (Atom("top"), anon(), Seq((Var("A"), Var("A"))))
        )
        ground = node_to_term(element("top", [], [element("a"), element("a")]))
        theta = unify(pattern, ground)
        assert theta is not None
        assert theta["A"] == node_to_term(element("a"))
        assert set(theta) == {"A"}

    def test_variable_binds_term(self):
        theta = unify(Var("X"), Compound("text", (Str("a"),)))
        assert theta is not None
        assert theta["X"] == Compound("text", (Str("a"),))

    def test_shared_variable_conflict_fails(self):
        pattern = Compound(
            "element", (Atom("top"), anon(), Seq((Var("A"), Var("A"))))
        )
        ground = node_to_term(element("top", [], [element("a"), element("b")]))
        assert unify(pattern, ground) is None

    def test_seq_requires_equal_length(self):
        assert unify(Seq((Var("A"),)), Seq((Atom("a"), Atom("b")))) is None
        assert unify(Seq(()), Seq(())) == {}

    def test_atom_string_int_are_distinct(self):
        assert unify(Atom("a"), Str("a")) is None
        assert unify(Int(1), Str("1")) is None
        assert unify(Atom("1"), Int(1)) is None

    def test_occurs_check(self):
        assert unify(Var("X"), Compound("f", (Var("X"),))) is None
        assert unify(Compound("f", (Var("X"),)), Var("X")) is None
        assert unify(Var("X"), Seq((Var("X"),))) is None

    def test_wildcard_matches_anything_without_binding(self):
        theta = unify(Seq((anon(), anon())), Seq((Atom("a"), Atom("b"))))
        assert theta == {}

    def test_wildcard_occurrences_are_independent(self):
        # the same wildcard position may take different values
        theta = unify(
            Compound("f", (anon(), anon())), Compound("f", (Atom("a"), Atom("b")))
        )
        assert theta is not None and len(theta) == 0


class TestApplySubst:
    def test_replaces_every_occurrence(self):
        theta = {"A": Compound("text", (Str("x"),))}
        assert apply_subst(theta, Seq((Var("A"), Var("A")))) == Seq(
            (Compound("text", (Str("x"),)), Compound("text", (Str("x"),)))
        )

    def test_empty_substitution_is_identity(self):
        rng = random.Random(421)
        for _ in range(50):
            term = random_term(rng)
            assert apply_subst({}, term) == term

    def test_unbound_variables_stay(self):
        theta = {"A": Atom("a")}
        assert apply_subst(theta, Var("B")) == Var("B")

    def test_wildcards_untouched(self):
        theta = {"A": Compound("element", (Atom("a"), Seq(()), Seq(())))}
        wild = anon()
        pattern = Compound("element", (Atom("top"), wild, Seq((Var("A"), Var("A")))))
        applied = apply_subst(theta, pattern)
        assert applied.args[1] == wild
        assert applied.args[2] == Seq((theta["A"], theta["A"]))

    def test_matches_naive_simultaneous_replacement(self):
        rng = random.Random(422)
        for _ in range(300):
            g1, g2 = random_ground_term(rng), random_ground_term(rng)
            mapping = {"A": g1, "B": g2}
            term = random_term(rng)
            assert apply_subst(mapping, term) == naive_replace(mapping, term)


class TestUnificationLaws:
    """Soundness, symmetry, and idempotence over a large random corpus.

    Wildcards are excluded here: they deliberately leave no bindings, so
    the applied-equality law only holds for named variables.
    """

    def _pairs(self, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            if rng.random() < 0.5:
                ground = random_ground_term(rng, depth=4)
                yield abstract(rng, ground), ground
            else:
                yield random_term(rng, depth=4), random_term(rng, depth=4)

    def test_soundness_symmetry_idempotence(self):
        successes = 0
        for a, b in self._pairs(10_000, seed=431):
            theta = unify(a, b)
            reverse = unify(b, a)
            assert (theta is None) == (reverse is None)
            if theta is None:
                continue
            successes += 1
            left, right = apply_subst(theta, a), apply_subst(theta, b)
            assert left == right
            assert apply_subst(reverse, a) == apply_subst(reverse, b)
            assert apply_subst(theta, left) == left  # idempotence
        assert successes > 1000  # the law corpus must not be vacuous

    def test_generality_on_abstracted_patterns(self):
        rng = random.Random(432)
        for _ in range(2000):
            ground = random_ground_term(rng, depth=4)
            pattern = abstract(rng, ground)
            theta = unify(pattern, ground)
            assert theta is not None
            assert apply_subst(theta, pattern) == ground

    def test_substitution_is_solved_form(self):
        for a, b in self._pairs(2000, seed=433):
            theta = unify(a, b)
            if theta is None:
                continue
            bound = set(theta)
            for value in theta.values():
                assert not (variables_of(value) & bound)


class TestSubstitutionType:
    def test_fresh_wildcards_have_distinct_ids(self):
        assert anon() != anon()
        assert isinstance(anon(), Anonymous)


def one_level(node):
    """The element/text/... compound of a node, with its children left as nodes."""
    if not isinstance(node, Element):
        return node_to_term(node)
    name, attrs, _ = node_to_term(node).args
    return Compound("element", (name, attrs, Seq(node.children)))


def random_ground(rng):
    """A ground value: a plain term, a node, or a node's term (whole or one level deep)."""
    if rng.random() < 0.4:
        term = random_ground_term(rng, depth=4)
        return term, term
    node = rng.choice(list(document_order(random_document(rng, max_depth=3, max_nodes=12))))
    roll = rng.random()
    if roll < 0.5:
        return node, node_to_term(node)
    if roll < 0.75:
        return node_to_term(node), node_to_term(node)
    return node, one_level(node)


def pattern_pairs(count, seed):
    """(pattern, ground) pairs, about half of them matching.

    Patterns are abstracted from a ground value: the pair's own, or
    another one.  Some variables become `_`, some are repeated, and some
    patterns are doubled against a doubled ground whose second half may
    differ, so a repeated variable has to meet an equal value.
    """
    rng = random.Random(seed)
    for _ in range(count):
        ground, source = random_ground(rng)
        if rng.random() < 0.25:
            source = random_ground(rng)[1]
        pattern = abstract(rng, source)
        if rng.random() < 0.3:
            pattern = Seq((pattern, pattern))
            ground = Seq((ground, ground if rng.random() < 0.6 else random_ground(rng)[0]))
        names = sorted(variables_of(pattern))
        if len(names) >= 2 and rng.random() < 0.3:
            keep, drop = rng.sample(names, 2)
            pattern = rename(pattern, drop, keep)
        yield wildcards(rng, pattern), ground


class TestMatch:
    def test_element_pattern_binds_parts_of_a_node(self):
        child = element("b")
        node = element("a", [("k", "v"), ("m", "w")], [child, text("t")])
        pattern = Compound(
            "element",
            (
                Var("N"),
                Seq((Compound("=", (Atom("k"), Var("V"))), Var("M"))),
                Seq((Var("C"), anon())),
            ),
        )
        theta = match(pattern, node)
        assert theta == {
            "N": Atom("a"), "V": Str("v"), "M": Compound("=", (Atom("m"), Str("w"))), "C": child
        }
        assert theta["C"] is child

    def test_variables_bind_attribute_list_and_children(self):
        node = element("a", [("k", "v")], [text("t")])
        theta = match(Compound("element", (Atom("a"), Var("A"), Var("C"))), node)
        assert theta["A"] == Seq((Compound("=", (Atom("k"), Str("v"))),))
        assert theta["C"] == Seq((text("t"),))

    def test_fails_on_name_arity_and_counts(self):
        node = element("a", [("k", "v")], [text("t")])
        for pattern in (
            Compound("element", (Atom("b"), anon(), anon())),
            Compound("element", (Atom("a"), Seq(()), anon())),
            Compound("element", (Atom("a"), anon(), Seq(()))),
            Compound("element", (Atom("a"), anon())),
            Compound("text", (anon(),)),
            Seq((anon(),)),
            Atom("a"),
        ):
            assert match(pattern, node) is None, pattern

    def test_repeated_variable_compares_by_value(self):
        pattern = Compound("element", (Atom("top"), anon(), Seq((Var("A"), Var("A")))))
        same = element("top", [], [element("a", [], [text("x")]), element("a", [], [text("x")])])
        differ = element("top", [], [element("a", [], [text("x")]), element("a", [], [text("y")])])
        assert match(pattern, same)["A"] is same.children[0]
        assert match(pattern, differ) is None

    def test_node_in_pattern_meets_its_term(self):
        node = element("a", [("k", "v")], [text("t")])
        assert match(Seq((node,)), Seq((node_to_term(node),))) == {}
        assert match(node, element("a", [("k", "v")], [text("u")])) is None

    def test_agrees_with_unify_on_ground_data(self):
        successes = failures = 0
        for pattern, ground in pattern_pairs(2400, seed=441):
            theta = match(pattern, ground)
            expected = unify(pattern, ground)
            assert (theta is None) == (expected is None), (pattern, ground)
            if theta is None:
                failures += 1
                continue
            successes += 1
            assert theta == expected, (pattern, ground)
        assert successes > 800 and failures > 400  # both outcomes well covered


def outcome(convert):
    try:
        return convert()
    except (ShapeError, UnboundOutputError) as exc:
        return type(exc), str(exc)


def fully_applied(theta, term):
    """apply_subst repeated until nothing changes."""
    while (applied := apply_subst(theta, term)) != term:
        term = applied
    return term


def random_output_case(rng):
    """A node-shaped term with variables in every kind of position, and bindings for them.

    Most variables get the value that rebuilds the source node, as a
    node or as a term; some get a value of the wrong shape, a free
    variable, or no binding at all.
    """
    node = rng.choice(list(document_order(random_document(rng, max_depth=3, max_nodes=12))))
    term = wildcards(rng, abstract(rng, node_to_term(node)))
    fitting = match(term, node) if rng.random() < 0.5 else unify(term, node_to_term(node))
    bindings = {}
    keep = rng.choice((0.5, 0.9))  # some cases have several faults, so their order counts
    for name, value in fitting.items():
        roll = rng.random()
        if roll < keep:
            bindings[name] = value
        elif roll < keep + (1 - keep) * 0.4:
            bindings[name] = rng.choice((Str("s"), Atom("a"), Int(1), Seq(()), text("n")))
        elif roll < keep + (1 - keep) * 0.6:
            bindings[name] = random_ground_term(rng, depth=2)
        elif roll < keep + (1 - keep) * 0.8:
            # A free variable, or one bound earlier: a chain, but never a cycle.
            bindings[name] = Var(rng.choice(("Free", *bindings)))
    return term, bindings


class TestTermToNodeUnderSubstitution:
    def test_resolves_variables_in_every_position(self):
        theta = {
            "N": Atom("row"),
            "A": Seq((Compound("=", (Atom("k"), Str("v"))),)),
            "K": Atom("j"),
            "V": Str("w"),
            "C": Seq((text("c"),)),
            "T": Str("t"),
            "X": element("x"),
        }
        term = Compound(
            "element",
            (
                Var("N"),
                Seq((Var("P"), Compound("=", (Var("K"), Var("V"))))),
                Seq(
                    (
                        Var("X"),
                        Compound("text", (Var("T"),)),
                        Compound("element", (Atom("e"), Var("A"), Var("C"))),
                    )
                ),
            ),
        )
        bound = {**theta, "P": Compound("=", (Atom("p"), Str("q")))}
        assert term_to_node(term, bound) == element(
            "row",
            [("p", "q"), ("j", "w")],
            [element("x"), text("t"), element("e", [("k", "v")], [text("c")])],
        )
        assert term_to_node(term, bound).children[0] is theta["X"]

    def test_follows_chains_of_bindings_in_every_position(self):
        values = {
            "N": Atom("row"),
            "A": Seq((Var("P"), Compound("=", (Var("K"), Var("V"))))),
            "P": Compound("=", (Atom("p"), Str("q"))),
            "K": Atom("j"),
            "V": Str("w"),
            "X": element("x"),
            "T": Str("t"),
            "C": Seq((Var("X"), Compound("text", (Var("T"),)))),
        }
        # Every variable reaches its value through one more variable.
        theta = {name: Var(name + "1") for name in values}
        theta.update({name + "1": value for name, value in values.items()})
        term = Compound("element", (Var("N"), Var("A"), Var("C")))
        out = term_to_node(term, theta)
        assert out == element("row", [("p", "q"), ("j", "w")], [element("x"), text("t")])
        assert out.children[0] is values["X"]
        theta["T1"] = Var("U")
        with pytest.raises(UnboundOutputError) as err:
            term_to_node(term, theta)
        assert err.value.variable == "U"
        theta["T1"] = Atom("t")
        with pytest.raises(ShapeError) as err:
            term_to_node(term, theta)
        assert str(err.value) == "text content must be a string: text(t)"

    def test_unbound_and_shape_errors_name_the_substituted_term(self):
        theta = {"X": Str("s"), "Y": Var("U")}
        with pytest.raises(UnboundOutputError) as err:
            term_to_node(Compound("text", (Var("Y"),)), theta)
        assert err.value.variable == "U"
        with pytest.raises(ShapeError) as err:
            term_to_node(Compound("element", (Atom("a"), Seq(()), Var("X"))), theta)
        assert str(err.value) == 'expected a sequence in element(a,[],"s")'
        # The first offending subterm decides: the attribute comes before the child.
        two_faults = Compound("element", (Atom("a"), Seq((Var("X"),)), Seq((Var("Z"),))))
        with pytest.raises(ShapeError) as err:
            term_to_node(two_faults, theta)
        assert str(err.value) == 'not an attribute term: "s"'

    def test_agrees_with_apply_subst_then_convert(self):
        rng = random.Random(451)
        kinds = set()
        for _ in range(2000):
            term, theta = random_output_case(rng)
            got = outcome(lambda: term_to_node(term, theta))
            assert got == outcome(lambda: term_to_node(fully_applied(theta, term))), (term, theta)
            kinds.add(got[0] if isinstance(got, tuple) else "node")
        assert kinds == {"node", ShapeError, UnboundOutputError}
