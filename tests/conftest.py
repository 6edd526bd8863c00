"""Shared deterministic corpus generators.

Documents come out "parsed-shape": no adjacent or empty text siblings,
distinct attribute names, comment/PI content restricted to what survives
an XML round trip, and no sentinel characters.  That makes one corpus
usable for both the parse/serialize and the encode/decode round trips.
"""

from __future__ import annotations

import random

from ltlx import element, text
from ltlx.nodes import Element, Node, comment, pi
from ltlx.terms import Atom, Compound, Int, Seq, Str, Term, Var, anon

ELEMENT_NAMES = ("a", "b", "c", "p", "q", "top", "item")
ATTR_NAMES = ("id", "href", "lang", "x", "y", "z")
TEXT_CHARS = "abcxyz 0123456789<>&\"'\t\n\r"
COMMENT_CHARS = "abcxyz 0123456789"
NAME_CHARS = "abcdefghij"


def random_text(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_pi_content(rng: random.Random) -> str:
    target = "t" + random_text(rng, NAME_CHARS, 0, 4)
    if rng.random() < 0.5:
        return target
    return target + " " + random_text(rng, "abcxyz09", 1, 6)


def random_document(
    rng: random.Random, max_depth: int = 6, max_nodes: int = 40
) -> Element:
    budget = [rng.randint(1, max_nodes)]

    def build(depth: int) -> Element:
        budget[0] -= 1
        attrs = [
            (name, random_text(rng, TEXT_CHARS, 0, 5))
            for name in rng.sample(ATTR_NAMES, rng.randint(0, 2))
        ]
        children: list[Node] = []
        last_was_text = False
        if depth < max_depth:
            for _ in range(rng.randint(0, 3)):
                if budget[0] <= 0:
                    break
                kind = rng.random()
                if kind < 0.35 and not last_was_text:
                    budget[0] -= 1
                    children.append(text(random_text(rng, TEXT_CHARS, 1, 8)))
                    last_was_text = True
                elif kind < 0.45:
                    budget[0] -= 1
                    children.append(pi(random_pi_content(rng)))
                    last_was_text = False
                elif kind < 0.55:
                    budget[0] -= 1
                    children.append(comment(random_text(rng, COMMENT_CHARS, 0, 6)))
                    last_was_text = False
                else:
                    children.append(build(depth + 1))
                    last_was_text = False
        return element(rng.choice(ELEMENT_NAMES), attrs, children)

    return build(1)


VAR_POOL = ("A", "B", "C", "X", "Y", "Z")
ATOM_POOL = ("a", "b", "c", "f")
FUNCTOR_POOL = ("f", "g", "element", "text")


def random_ground_term(rng: random.Random, depth: int = 3) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.4:
            return Atom(rng.choice(ATOM_POOL))
        if roll < 0.7:
            return Int(rng.randint(0, 9))
        return Str(random_text(rng, "abc", 0, 3))
    if rng.random() < 0.6:
        args = tuple(
            random_ground_term(rng, depth - 1) for _ in range(rng.randint(1, 3))
        )
        return Compound(rng.choice(FUNCTOR_POOL), args)
    items = tuple(random_ground_term(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return Seq(items)


def random_term(rng: random.Random, depth: int = 3) -> Term:
    """Like random_ground_term but sprinkles in named variables."""
    if rng.random() < 0.18:
        return Var(rng.choice(VAR_POOL))
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.4:
            return Atom(rng.choice(ATOM_POOL))
        if roll < 0.7:
            return Int(rng.randint(0, 9))
        return Str(random_text(rng, "abc", 0, 3))
    if rng.random() < 0.6:
        args = tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return Compound(rng.choice(FUNCTOR_POOL), args)
    return Seq(tuple(random_term(rng, depth - 1) for _ in range(rng.randint(0, 3))))


def abstract(rng: random.Random, ground: Term, counter: list[int] | None = None) -> Term:
    """Replace random subterms of a ground term by fresh variables, so the
    original term is one of the pattern's groundings."""
    if counter is None:
        counter = [0]
    if rng.random() < 0.25:
        counter[0] += 1
        return Var(f"V{counter[0]}")
    if isinstance(ground, Compound):
        return Compound(
            ground.functor, tuple(abstract(rng, a, counter) for a in ground.args)
        )
    if isinstance(ground, Seq):
        return Seq(tuple(abstract(rng, i, counter) for i in ground.items))
    return ground


def wildcards(rng: random.Random, term: Term) -> Term:
    """Replace some variables of `term` by `_`."""
    if isinstance(term, Var):
        return anon() if rng.random() < 0.2 else term
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(wildcards(rng, a) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(wildcards(rng, i) for i in term.items))
    return term


def rename(term: Term, old: str, new: str) -> Term:
    """Rename variable `old` to `new` throughout `term`."""
    if isinstance(term, Var) and term.name == old:
        return Var(new)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(rename(a, old, new) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(rename(i, old, new) for i in term.items))
    return term
