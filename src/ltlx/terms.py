"""Pattern terms and most-general unification.

Template heads are terms with variables.  Document nodes, and the
attributes they carry, are ground terms: one unifier, `_unify`, reads
any node or attribute it meets as its element, text, pi or comment
compound or as name="value", one level deep, and looks into the node
only as deep as the other side does.  Variables bind to the node objects
themselves, and an attribute-list variable to the element's own
attributes, so an output shares what it bound instead of copying it.
`match` is that unifier against ground data, `unify` the general one
for `=` goals.  Bindings are a plain dict from variable names to terms,
possibly triangular: `_unify` extends one in place, and `term_to_node`
resolves the chains before it builds.

The engine runs each rule as code compiled from it (see `compiler`), so
terms are built when a rule file loads and where that code cannot build
an output or a goal's node, not per node.  Only the scalar classes `Atom`,
`Str` and `Int`, which `relalg` hashes per fact row, write `==`, `hash`
and `__reduce__` by hand; the other term classes take them from `Value`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Union

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

_GROUND = frozenset((*NODE_TYPES, Attribute))
_NESTED = frozenset((Compound, Seq))
_LEAF_FUNCTORS = {"text": Text, "pi": PI, "comment": Comment}
_LEAF_NAMES = {leaf: name for name, leaf in _LEAF_FUNCTORS.items()}

_anon_ids = itertools.count(1)


def anon() -> Anonymous:
    """A fresh wildcard occurrence."""
    return Anonymous(next(_anon_ids))


def subterms(term: Term) -> Iterator[Term]:
    """`term` and every term inside it, pre-order and left to right.  The
    walk keeps a stack of its own, so a deep term costs no Python frames."""
    stack = [term]
    while stack:
        term = stack.pop()
        yield term
        kind = type(term)
        if kind is Compound:
            stack += term.args[::-1]
        elif kind is Seq:
            stack += term.items[::-1]


def variables_of(term: Term) -> set[str]:
    """Names of all named variables occurring in `term` (wildcards excluded)."""
    return {t.name for t in subterms(term) if type(t) is Var}


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
    # `_walk`, inlined: this runs once per term pair.
    while type(a) is Var and a.name in bindings:
        a = bindings[a.name]
    while type(b) is Var and b.name in bindings:
        b = bindings[b.name]
    kind, other = type(a), type(b)
    if kind is Anonymous or other is Anonymous:
        return True
    if kind is Var:
        if other is Var and b.name == a.name:
            return True
        if other in _NESTED and _occurs(a.name, b, bindings):
            return False
        bindings[a.name] = b
        return True
    if other is Var:
        if kind in _NESTED and _occurs(b.name, a, bindings):
            return False
        bindings[b.name] = a
        return True
    if kind in _GROUND or other in _GROUND:
        if kind is not Compound and other is not Compound:
            return a == b  # two nodes, or a node and a term that is not a compound
        if kind is not Compound:
            a, b = b, a  # the node is ground, so the order binds nothing differently
        args = _node_args(b, a.functor)
        if args is None or len(args) != len(a.args):
            return False
        pairs = zip(a.args, args)
    elif kind is not other:
        return False
    elif kind is Compound:
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        pairs = zip(a.args, b.args)
    elif kind is Seq:
        if len(a.items) != len(b.items):
            return False
        pairs = zip(a.items, b.items)
    else:
        return a == b  # an atom, string or integer: its class's == compares class and field
    for x, y in pairs:
        if not _unify(x, y, bindings):
            return False
    return True


def _node_args(node: Term, functor: str) -> tuple[Term, ...] | None:
    """The arguments of the compound a node or attribute reads as, one
    level deep, when its functor is `functor`; else None."""
    kind = type(node)
    if kind is Element:
        return (Atom(node.name), Seq(node.attributes), Seq(node.children)) if functor == "element" else None
    if kind is Attribute:
        return (Atom(node.name), Str(node.value)) if functor == "=" else None
    return (Str(node.content),) if functor == _LEAF_NAMES[kind] else None


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
    binding in the result.  A node or attribute unifies with a compound
    as its element/text/pi/comment compound (an attribute as
    name="value"), read one level deep, and with anything else, another
    node included, when the two are equal; variables bind to the node
    objects themselves.  The bindings are in solved form: no bound
    variable occurs in any bound term, so apply_subst needs to apply them
    only once.
    """
    bindings: dict[str, Term] = {}
    if not _unify(a, b, bindings):
        return None
    return {name: _resolve(term, bindings) for name, term in bindings.items()}


def match(pattern: Term, ground: Term) -> dict[str, Term] | None:
    """The dict of bindings that makes `pattern` equal to `ground`, or None.

    `ground` holds no variables: it is a node, or a term built of atoms,
    strings, integers, sequences, compounds and nodes.  So this is
    unification with nothing to resolve, and a variable binds the value
    it meets as it is: a node object, or an element's own attribute or
    child tuple in a Seq.  Succeeds exactly when unify(pattern, ground)
    does, with the same bindings.
    """
    bindings: dict[str, Term] = {}
    return bindings if _unify(pattern, ground, bindings) else None


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
    return not any(type(t) is Var or type(t) is Anonymous for t in subterms(term))
