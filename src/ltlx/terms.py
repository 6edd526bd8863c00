"""Pattern terms, matching, and most-general unification.

Template heads are terms with variables.  Document nodes, and the
attributes they carry, are ground terms, read as their element, text,
pi or comment compound and as name="value".  Matching a head against a
node is one-sided, so `match` needs no occurs check and looks into the
node only as deep as the head does.  Variables bind to the node objects
themselves, and an attribute-list variable to the element's own
attributes, so an output shares what it bound instead of copying it.
General unification is left for `=` goals; `_unify` hands any node or
attribute it meets to `match`.  Bindings are a plain dict from variable
names to terms, triangular in the engine: `_match` and `_unify` extend
one in place, and `term_to_node` resolves the chains before it builds.

The engine runs each rule as code compiled from it (see `compiler`), so
terms are built when a rule file loads and by the rules the compiler
does not specialise, not per node.  Only the scalar classes `Atom`,
`Str` and `Int`, which `relalg` hashes per fact row, write `==`, `hash`
and `__reduce__` by hand; the other term classes take them from `Value`.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Union

from .errors import ShapeError, UnboundOutputError
from .nodes import NODE_TYPES, Attribute, Comment, Element, Node, PI, Text, quoted, unique_attributes
from .values import Value, slot_setters


class Var(Value):
    __slots__ = ("name",)

    def __repr__(self) -> str:
        return self.name


class Anonymous(Value):
    """One occurrence of the "_" wildcard; every occurrence is distinct."""

    __slots__ = ("id",)

    def __repr__(self) -> str:
        return "_"


class _Text(Value):
    """An atom or a string: its text."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        _set_text(self, text)

    def __eq__(self, other: object) -> bool:
        return self.text == other.text if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.text,))

    def __reduce__(self):
        return type(self), (self.text,)


class Atom(_Text):
    __slots__ = ()

    def __repr__(self) -> str:
        return self.text


class Str(_Text):
    __slots__ = ()

    def __repr__(self) -> str:
        return quoted(self.text)


class Int(Value):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        _set_int_value(self, value)

    def __eq__(self, other: object) -> bool:
        return self.value == other.value if type(other) is Int else NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __reduce__(self):
        return Int, (self.value,)

    def __repr__(self) -> str:
        return str(self.value)


class Compound(Value):
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Term, ...]) -> None:
        if not functor:
            raise ValueError("compound functor must be non-empty")
        _set_functor(self, functor)
        _set_args(self, args if type(args) is tuple else tuple(args))

    def __repr__(self) -> str:
        if self.functor == "=" and len(self.args) == 2:
            return f"{self.args[0]!r}={self.args[1]!r}"
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


class Seq(Value):
    """A bracketed sequence, modelling hedges and attribute lists."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        _set_items(self, items if type(items) is tuple else tuple(items))

    def __repr__(self) -> str:
        return "[" + ",".join(repr(i) for i in self.items) + "]"


(_set_text,) = slot_setters(_Text)
(_set_int_value,) = slot_setters(Int)
_set_functor, _set_args = slot_setters(Compound)
(_set_items,) = slot_setters(Seq)


Term = Union[Var, Anonymous, Atom, Str, Int, Compound, Seq, Node, Attribute]

_GROUND = (*NODE_TYPES, Attribute)
_LEAF_FUNCTORS = {"text": Text, "pi": PI, "comment": Comment}
_LEAF_NAMES = {leaf: name for name, leaf in _LEAF_FUNCTORS.items()}

_anon_ids = itertools.count(1)


def anon() -> Anonymous:
    """A fresh wildcard occurrence."""
    return Anonymous(next(_anon_ids))


def variables_of(term: Term) -> set[str]:
    """Names of all named variables occurring in `term` (wildcards excluded)."""
    out: set[str] = set()
    _collect_vars(term, out)
    return out


def _collect_vars(term: Term, out: set[str]) -> None:
    if isinstance(term, Var):
        out.add(term.name)
    elif isinstance(term, Compound):
        for a in term.args:
            _collect_vars(a, out)
    elif isinstance(term, Seq):
        for i in term.items:
            _collect_vars(i, out)


def apply_subst(theta: Mapping[str, Term], term: Term) -> Term:
    """Replace every bound variable by its image; unbound variables stay."""
    if isinstance(term, Var):
        bound = theta.get(term.name)
        return term if bound is None else bound
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(apply_subst(theta, a) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(apply_subst(theta, i) for i in term.items))
    return term


def _walk(term: Term, bindings: Mapping[str, Term]) -> Term:
    while isinstance(term, Var) and term.name in bindings:
        term = bindings[term.name]
    return term


def _occurs(name: str, term: Term, bindings: dict[str, Term]) -> bool:
    term = _walk(term, bindings)
    if isinstance(term, Var):
        return term.name == name
    if isinstance(term, Compound):
        return any(_occurs(name, a, bindings) for a in term.args)
    if isinstance(term, Seq):
        return any(_occurs(name, i, bindings) for i in term.items)
    return False


def _unify(a: Term, b: Term, bindings: dict[str, Term]) -> bool:
    a = _walk(a, bindings)
    b = _walk(b, bindings)
    if isinstance(a, Anonymous) or isinstance(b, Anonymous):
        return True
    if isinstance(a, Var):
        if isinstance(b, Var) and b.name == a.name:
            return True
        if _occurs(a.name, b, bindings):
            return False
        bindings[a.name] = b
        return True
    if isinstance(b, Var):
        if _occurs(b.name, a, bindings):
            return False
        bindings[b.name] = a
        return True
    if isinstance(b, _GROUND):
        return _match(a, b, bindings)  # a node is ground, so matching is exact
    if isinstance(a, _GROUND):
        return _match(b, a, bindings)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a.text == b.text
    if isinstance(a, Str) and isinstance(b, Str):
        return a.text == b.text
    if isinstance(a, Int) and isinstance(b, Int):
        return a.value == b.value
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        return all(_unify(x, y, bindings) for x, y in zip(a.args, b.args))
    if isinstance(a, Seq) and isinstance(b, Seq):
        if len(a.items) != len(b.items):
            return False
        return all(_unify(x, y, bindings) for x, y in zip(a.items, b.items))
    return False


def _resolve(term: Term, bindings: Mapping[str, Term]) -> Term:
    term = _walk(term, bindings)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_resolve(a, bindings) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(_resolve(i, bindings) for i in term.items))
    return term


def unify(a: Term, b: Term) -> dict[str, Term] | None:
    """Most-general unifier of `a` and `b` as a dict of bindings, or None.

    Runs with the occurs check on, so unify(X, f(X)) fails.  Sequences
    unify element-wise and only at equal length; there is no splicing of
    partial hedges.  Wildcard occurrences match anything and leave no
    binding in the result.  A node is ground, so any node it meets is
    handed to match with the other side as the pattern: two nodes unify
    when they are equal, a node meeting a pattern unifies as its
    element/text/pi/comment compound (an attribute as name="value"), and
    variables bind to the node objects themselves.  The bindings are in
    solved form: no bound variable occurs in any bound term, so
    apply_subst needs to apply them only once.
    """
    bindings: dict[str, Term] = {}
    if not _unify(a, b, bindings):
        return None
    return {name: _resolve(term, bindings) for name, term in bindings.items()}


def match(pattern: Term, ground: Term) -> dict[str, Term] | None:
    """The dict of bindings that makes `pattern` equal to `ground`, or None.

    One-sided unification: `ground` holds no variables (it is a node, or
    a term built of atoms, strings, integers, sequences, compounds and
    nodes), so there is no occurs check and no chain of bindings to
    follow.  A variable's first occurrence binds it to the value it
    meets; a later occurrence must meet an equal value.  `_` matches
    anything.  An element meets the pattern as element(Name,Attrs,Children)
    with its own attribute and child tuples as the two sequences, so an
    attribute-list variable binds the element's own attributes.  Succeeds
    exactly when unify(pattern, ground) does, with the same bindings.
    """
    bindings: dict[str, Term] = {}
    return bindings if _match(pattern, ground, bindings) else None


def _match(p: Term, g: Term, bindings: dict[str, Term]) -> bool:
    kind = type(p)
    if kind is Var:
        bound = bindings.get(p.name)
        if bound is None:
            bindings[p.name] = g
            return True
        return _match(bound, g, bindings)  # the binding may hold variables bound in turn
    if kind is Anonymous:
        return True
    ground_kind = type(g)
    if kind is Compound:
        if ground_kind is Element:
            return (
                p.functor == "element"
                and len(p.args) == 3
                and _match(p.args[0], Atom(g.name), bindings)
                and _match(p.args[1], Seq(g.attributes), bindings)
                and _match(p.args[2], Seq(g.children), bindings)
            )
        if ground_kind is Attribute:
            return (
                p.functor == "="
                and len(p.args) == 2
                and _match(p.args[0], Atom(g.name), bindings)
                and _match(p.args[1], Str(g.value), bindings)
            )
        leaf = _LEAF_NAMES.get(ground_kind)
        if leaf is not None:
            return p.functor == leaf and len(p.args) == 1 and _match(p.args[0], Str(g.content), bindings)
        return (
            ground_kind is Compound
            and p.functor == g.functor
            and len(p.args) == len(g.args)
            and _match_all(p.args, g.args, bindings)
        )
    if kind is Seq:
        return (
            ground_kind is Seq
            and len(p.items) == len(g.items)
            and _match_all(p.items, g.items, bindings)
        )
    if kind is Atom or kind is Str:
        return ground_kind is kind and p.text == g.text
    if kind is Int:
        return ground_kind is Int and p.value == g.value
    if ground_kind in _GROUND:
        return p == g
    return ground_kind is Compound and _match(g, p, bindings)  # a node meets a term, both ground


def _match_all(
    patterns: tuple[Term, ...], values: tuple[Term, ...], bindings: dict[str, Term]
) -> bool:
    for p, g in zip(patterns, values):
        if not _match(p, g, bindings):
            return False
    return True


def term_to_node(term: Term, theta: Mapping[str, Term] | None = None) -> Node:
    """Build the node a node-shaped term denotes under the bindings theta.

    A variable bound in theta stands for its binding wherever it sits: at
    a node, an element name, the attribute list, one attribute, an
    attribute name or value, the children, or a leaf's content.  The
    bindings may be triangular, with a bound value holding variables that
    theta binds too; the term is resolved once, every chain followed to
    its end, and then built.  Nodes inside the term or its bindings are
    returned as they are, not copied.  Raises UnboundOutputError naming a
    variable that is still free, and ShapeError when the term is not
    node-shaped.  An element whose attributes repeat a name raises
    DuplicateAttributeError.
    """
    return _to_node(term if theta is None else _resolve(term, theta))


def _bound(term: Term) -> Term:
    """The term itself; a free variable raises."""
    if type(term) is Var:
        raise UnboundOutputError(term.name)
    if type(term) is Anonymous:
        raise UnboundOutputError("_")
    return term


def _to_node(term: Term) -> Node:
    if type(term) is not Compound:
        if isinstance(term, NODE_TYPES):
            return term
        _bound(term)  # a free variable is reported as unbound, not as a shape
        raise ShapeError(f"not a node term: {term!r}")
    functor, args = term.functor, term.args
    if functor == "element" and len(args) == 3:
        name = _bound(args[0])
        if type(name) is not Atom:
            raise ShapeError(f"element name must be an atom: {term!r}")
        attributes = tuple([_to_attribute(a) for a in _seq_items(args[1], term)])
        attributes = unique_attributes(name.text, attributes)
        children = tuple([_to_node(c) for c in _seq_items(args[2], term)])
        return Element(name.text, attributes, children)
    leaf = _LEAF_FUNCTORS.get(functor)
    if leaf is None:
        raise ShapeError(f"not a node term: {term!r}")
    if len(args) != 1:
        raise ShapeError(f"{functor} takes one argument: {term!r}")
    content = _bound(args[0])
    if type(content) is not Str:
        raise ShapeError(f"{functor} content must be a string: {term!r}")
    return leaf(content.text)


def _seq_items(term: Term, context: Term) -> tuple[Term, ...]:
    seq = _bound(term)  # a free variable is reported as unbound, not as a shape
    if type(seq) is not Seq:
        raise ShapeError(f"expected a sequence in {context!r}")
    return seq.items


def _to_attribute(term: Term) -> Attribute:
    term = _bound(term)  # a free variable is reported as unbound, not as a shape
    if type(term) is Attribute:
        return term
    if type(term) is Compound and term.functor == "=" and len(term.args) == 2:
        name = _bound(term.args[0])
        value = _bound(term.args[1])
        if type(name) is Atom and type(value) is Str:
            return Attribute(name.text, value.text)
    raise ShapeError(f"not an attribute term: {term!r}")


def is_ground(term: Term) -> bool:
    """True when the term contains no variables or wildcards."""
    if isinstance(term, (Var, Anonymous)):
        return False
    if isinstance(term, Compound):
        return all(is_ground(a) for a in term.args)
    if isinstance(term, Seq):
        return all(is_ground(i) for i in term.items)
    return True
