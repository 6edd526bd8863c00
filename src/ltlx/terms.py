"""Pattern terms, matching, and most-general unification.

Template heads are terms with variables; document nodes are ground terms.
Matching a head against a node is one-sided: the node has no variables,
so `match` needs no occurs check and looks into the node only as deep as
the head does.  Variables bind to the node objects themselves, and
`term_to_node` builds an output straight from the bindings, so the
output a rule builds shares the subtrees it bound instead of copying
them.  General unification is left for `=` goals, whose two sides may
both hold variables.  A node is ground, so `_unify` hands any node it
meets to `match`, and a node is read one way only.  Bindings are a plain
dict from variable names to terms: `match` and `unify` return one, or
None when there is none.  The engine keeps a rule's bindings in one
triangular dict, which `_match` and `_unify` extend in place and
`term_to_node` reads through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ShapeError, UnboundOutputError
from .nodes import Attribute, Comment, Element, Node, PI, Text, node_equal, quoted


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Anonymous:
    """One occurrence of the "_" wildcard; every occurrence is distinct."""

    id: int

    def __repr__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Atom:
    text: str

    def __repr__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Str:
    text: str

    def __repr__(self) -> str:
        return quoted(self.text)


@dataclass(frozen=True)
class Int:
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.functor:
            raise ValueError("compound functor must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        if self.functor == "=" and len(self.args) == 2:
            return f"{self.args[0]!r}={self.args[1]!r}"
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


@dataclass(frozen=True)
class Seq:
    """A bracketed sequence, modelling hedges and attribute lists."""

    items: tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        return "[" + ",".join(repr(i) for i in self.items) + "]"


Term = Union[Var, Anonymous, Atom, Str, Int, Compound, Seq, Node]

_NODES = (Element, Text, PI, Comment)
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


def _attribute_term(attr: Attribute) -> Compound:
    """An attribute as the term name="value"."""
    return Compound("=", (Atom(attr.name), Str(attr.value)))


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
    if isinstance(b, _NODES):
        return _match(a, b, bindings)  # a node is ground, so matching is exact
    if isinstance(a, _NODES):
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
    element/text/pi/comment compound, and variables bind to the node
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

    One-sided unification: `ground` holds no variables (it is a node, or
    a term built of atoms, strings, integers, sequences, compounds and
    nodes), so there is no occurs check and no chain of bindings to
    follow.  A variable's first occurrence binds it to the value it
    meets; a later occurrence must meet an equal value.  `_` matches
    anything.  An element is tested by its name, attribute count and
    child count directly; its name="value" attribute terms are built only
    when the pattern writes or binds the attribute list, not for `_`.
    Succeeds exactly when unify(pattern, ground) does, with the same
    bindings.
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
            if p.functor != "element" or len(p.args) != 3:
                return False
            name, attrs, children = p.args
            if type(name) is Atom:
                if name.text != g.name:
                    return False
            elif not _match(name, Atom(g.name), bindings):
                return False
            return _match_attributes(attrs, g.attributes, bindings) and _match_hedge(
                children, g.children, bindings
            )
        leaf = _LEAF_NAMES.get(ground_kind)
        if leaf is not None:
            if p.functor != leaf or len(p.args) != 1:
                return False
            content = p.args[0]
            if type(content) is Str:
                return content.text == g.content
            return _match(content, Str(g.content), bindings)
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
    if ground_kind in _LEAF_NAMES or ground_kind is Element:
        return node_equal(p, g)
    return ground_kind is Compound and _match(g, p, bindings)  # a node meets a term, both ground


def _match_all(
    patterns: tuple[Term, ...], values: tuple[Term, ...], bindings: dict[str, Term]
) -> bool:
    for p, g in zip(patterns, values):
        if not _match(p, g, bindings):
            return False
    return True


def _match_hedge(p: Term, children: tuple[Node, ...], bindings: dict[str, Term]) -> bool:
    if type(p) is Seq:
        return len(p.items) == len(children) and _match_all(p.items, children, bindings)
    if type(p) is Var:
        return _match(p, Seq(children), bindings)
    return type(p) is Anonymous


def _match_attributes(
    p: Term, attributes: tuple[Attribute, ...], bindings: dict[str, Term]
) -> bool:
    if type(p) is Seq:
        return len(p.items) == len(attributes) and all(
            _match(item, _attribute_term(attr), bindings)
            for item, attr in zip(p.items, attributes)
        )
    if type(p) is Var:
        return _match(p, Seq(tuple(map(_attribute_term, attributes))), bindings)
    return type(p) is Anonymous


_NO_BINDINGS: dict[str, Term] = {}


def term_to_node(term: Term, theta: Mapping[str, Term] | None = None) -> Node:
    """Build the node a node-shaped term denotes under the bindings theta.

    A variable bound in theta stands for its binding wherever it sits: at
    a node, an element name, the attribute list, one attribute, an
    attribute name or value, the children, or a leaf's content.  The
    bindings may be triangular, with a bound value holding variables that
    theta binds too, and every chain is followed to its end.  The result
    and any error are those of term_to_node(_resolve(term, theta)), but
    the resolved term is never built.  Nodes inside the term or its
    bindings are returned as they are, not copied.  Raises
    UnboundOutputError naming a variable that is still free, and
    ShapeError when the term is not node-shaped.
    """
    return _to_node(term, _NO_BINDINGS if theta is None else theta)


def _bound(term: Term, theta: Mapping[str, Term]) -> Term:
    """A term with its chain of bound variables followed; a free variable raises."""
    term = _walk(term, theta)
    if type(term) is Var:
        raise UnboundOutputError(term.name)
    if type(term) is Anonymous:
        raise UnboundOutputError("_")
    return term


def _to_node(term: Term, theta: Mapping[str, Term]) -> Node:
    term = _walk(term, theta)
    if type(term) is not Compound:
        if isinstance(term, _NODES):
            return term
        _bound(term, theta)  # a free variable is reported as unbound, not as a shape
        raise ShapeError(f"not a node term: {_resolve(term, theta)!r}")
    functor, args = term.functor, term.args
    if functor == "element" and len(args) == 3:
        name = _bound(args[0], theta)
        if type(name) is not Atom:
            raise ShapeError(f"element name must be an atom: {_resolve(term, theta)!r}")
        attributes = tuple([_to_attribute(a, theta) for a in _seq_items(args[1], theta, term)])
        children = tuple([_to_node(c, theta) for c in _seq_items(args[2], theta, term)])
        return Element(name.text, attributes, children)
    leaf = _LEAF_FUNCTORS.get(functor)
    if leaf is None:
        raise ShapeError(f"not a node term: {_resolve(term, theta)!r}")
    if len(args) != 1:
        raise ShapeError(f"{functor} takes one argument: {_resolve(term, theta)!r}")
    content = _bound(args[0], theta)
    if type(content) is not Str:
        raise ShapeError(f"{functor} content must be a string: {_resolve(term, theta)!r}")
    return leaf(content.text)


def _seq_items(term: Term, theta: Mapping[str, Term], context: Term) -> tuple[Term, ...]:
    seq = _bound(term, theta)  # a free variable is reported as unbound, not as a shape
    if type(seq) is not Seq:
        raise ShapeError(f"expected a sequence in {_resolve(context, theta)!r}")
    return seq.items


def _to_attribute(term: Term, theta: Mapping[str, Term]) -> Attribute:
    term = _bound(term, theta)  # a free variable is reported as unbound, not as a shape
    if type(term) is Compound and term.functor == "=" and len(term.args) == 2:
        name = _bound(term.args[0], theta)
        value = _bound(term.args[1], theta)
        if type(name) is Atom and type(value) is Str:
            return Attribute(name.text, value.text)
    raise ShapeError(f"not an attribute term: {_resolve(term, theta)!r}")


def is_ground(term: Term) -> bool:
    """True when the term contains no variables or wildcards."""
    if isinstance(term, (Var, Anonymous)):
        return False
    if isinstance(term, Compound):
        return all(is_ground(a) for a in term.args)
    if isinstance(term, Seq):
        return all(is_ground(i) for i in term.items)
    return True
