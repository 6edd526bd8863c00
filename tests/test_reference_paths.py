"""Differential test: `queryops.eval_path` against the naive evaluator.

reference_paths.py spells every step out over a recursive pre-order
walk.  Both run the same random paths on random documents, from a random
context node and root, in both solution modes and both text-coercion
modes, and must give equal results, or raise the same exception type
with the same message.
"""

import random
from collections import Counter

import reference_paths
from conftest import ATTR_NAMES, ELEMENT_NAMES, random_document
from ltlx.nodes import Element
from ltlx.queryops import (
    ALL_SOLUTIONS,
    FIRST_ONLY,
    AttrNameByValue,
    AttrValue,
    Children,
    ChildNamed,
    CountChildren,
    Descendants,
    DescendantOrSelfNamed,
    Index,
    LastChild,
    Lvl,
    PathExpr,
    PIValue,
    TextValue,
    eval_path,
)


def outcome(evaluate, *args):
    """The results as a list, or the exception's type and message."""
    try:
        return list(evaluate(*args))
    except Exception as exc:  # the exception is the behaviour compared
        return type(exc), str(exc)


def random_step(rng, doc_names, doc_values):
    """Any step; names and values mostly come from the document, so that
    steps find something."""
    name = rng.choice(doc_names if rng.random() < 0.8 else ELEMENT_NAMES)
    attribute = rng.choice(ATTR_NAMES)
    return rng.choice((
        ChildNamed(name),
        ChildNamed(name),
        DescendantOrSelfNamed(name),
        DescendantOrSelfNamed(None),
        AttrValue(attribute),
        AttrNameByValue(rng.choice(doc_values + ["none"])),
        TextValue(),
        PIValue(),
        Children(),
        Descendants(),
        LastChild(),
        CountChildren(),
        Lvl(),
    ))


def random_path(rng, doc_names, doc_values):
    """One to four steps, each maybe followed by #k; only #k follows a
    step that yields values, and a node step after #k may meet a value."""
    steps = []
    for _ in range(rng.randint(1, 4)):
        if steps and steps[-1].yields_values:
            if rng.random() < 0.7:
                break
            steps.append(Index(rng.randint(1, 3)))
            continue
        steps.append(random_step(rng, doc_names, doc_values))
        if rng.random() < 0.3:
            steps.append(Index(rng.randint(1, 4)))
    return PathExpr(None, tuple(steps))


def test_eval_path_agrees_with_the_naive_evaluator():
    rng = random.Random(1401)
    results = Counter()
    for _ in range(1500):
        doc = random_document(rng, max_depth=5, max_nodes=30)
        nodes = [n for _, n in reference_paths.preorder(doc)]
        names = [n.name for n in nodes if isinstance(n, Element)]
        values = [a.value for n in nodes if isinstance(n, Element) for a in n.attributes]
        # A context inside the document: lvl then reads index paths against the root.
        ctx = doc if rng.random() < 0.5 else rng.choice(nodes)
        root = rng.choice([None, doc])
        for _ in range(6):
            path = random_path(rng, names, values)
            for mode in (ALL_SOLUTIONS, FIRST_ONLY):
                for coerce_text in (True, False):
                    args = (ctx, path, mode, coerce_text, root)
                    expected = outcome(reference_paths.eval_path, *args)
                    assert outcome(eval_path, *args) == expected, args
                    if type(expected) is list and expected:
                        results.update(type(step).__name__ for step in path.steps)
    # Every kind of step took part in paths that found something.
    assert set(results) == {
        "ChildNamed", "DescendantOrSelfNamed", "AttrValue", "AttrNameByValue", "TextValue",
        "PIValue", "Children", "Descendants", "LastChild", "CountChildren", "Lvl", "Index",
    }
    assert min(results.values()) > 50, results
