"""Pattern terms, most-general unification, and substitutions.

Template heads are terms with variables; document nodes are ground terms.
Matching a head against a node is a single unification that looks into
the node only as deep as the head does.  Variables bind to the node
objects themselves, so the output a rule builds shares the subtrees it
bound instead of copying them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import ShapeError, UnboundOutputError
from .nodes import Attribute, Comment, Element, Node, PI, Text


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
        return f'"{self.text}"'


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


class Substitution(Mapping[str, Term]):
    """A finite, idempotent map from variable names to terms.

    Kept in solved form: no bound variable occurs in any bound term, so
    applying the substitution once is the same as applying it repeatedly.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        self._bindings: dict[str, Term] = dict(bindings or {})

    def __getitem__(self, name: str) -> Term:
        return self._bindings[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v!r}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"

    def compose(self, delta: "Substitution") -> "Substitution":
        """The substitution equivalent to applying self, then delta."""
        merged = {name: apply_subst(delta, term) for name, term in self._bindings.items()}
        for name, term in delta.items():
            merged.setdefault(name, term)
        return Substitution(merged)


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


def apply_subst(theta: Substitution | Mapping[str, Term], term: Term) -> Term:
    """Replace every bound variable by its image; unbound variables stay."""
    if isinstance(term, Var):
        bound = theta.get(term.name)
        return term if bound is None else bound
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(apply_subst(theta, a) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(apply_subst(theta, i) for i in term.items))
    return term


def _walk(term: Term, bindings: dict[str, Term]) -> Term:
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


def _view(node: Node) -> Compound:
    """A node one level deep as its element/text/pi/comment compound.

    The children of an element stay node objects, so a pattern only looks
    as deep into a document as it is itself deep.
    """
    if isinstance(node, Element):
        attrs = tuple(Compound("=", (Atom(a.name), Str(a.value))) for a in node.attributes)
        return Compound("element", (Atom(node.name), Seq(attrs), Seq(node.children)))
    return Compound(_LEAF_NAMES[type(node)], (Str(node.content),))


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
    if isinstance(a, _NODES):
        if isinstance(b, _NODES):
            return a == b
        a = _view(a)
    elif isinstance(b, _NODES):
        b = _view(b)
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


def _resolve(term: Term, bindings: dict[str, Term]) -> Term:
    term = _walk(term, bindings)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_resolve(a, bindings) for a in term.args))
    if isinstance(term, Seq):
        return Seq(tuple(_resolve(i, bindings) for i in term.items))
    return term


def unify(a: Term, b: Term) -> Substitution | None:
    """Most-general unifier of `a` and `b`, or None when none exists.

    Runs with the occurs check on, so unify(X, f(X)) fails.  Sequences
    unify element-wise and only at equal length; there is no splicing of
    partial hedges.  Wildcard occurrences match anything and leave no
    binding in the result.  Two nodes unify when they are equal; a node
    meeting a pattern unifies as its node_to_term shape, and variables
    bind to the node objects themselves.
    """
    bindings: dict[str, Term] = {}
    if not _unify(a, b, bindings):
        return None
    return Substitution({name: _resolve(term, bindings) for name, term in bindings.items()})


def node_to_term(node: Node) -> Term:
    """Embed a document node as a ground term without nodes in it.

    element(n, attrs, children) maps to the compound
    element(n, [name="value", ...], [child terms]); text/pi/comment wrap
    their content in a string literal.
    """
    term = _view(node)
    if isinstance(node, Element):
        name, attrs, children = term.args
        term = Compound("element", (name, attrs, Seq(tuple(map(node_to_term, children.items)))))
    return term


def term_to_node(term: Term) -> Node:
    """Convert a ground, node-shaped term back into a node.

    Nodes inside the term are returned as they are, not copied.  Raises
    UnboundOutputError naming the variable when the term still contains
    one, and ShapeError when the term is not node-shaped.
    """
    if isinstance(term, _NODES):
        return term
    if isinstance(term, Var):
        raise UnboundOutputError(term.name)
    if isinstance(term, Anonymous):
        raise UnboundOutputError("_")
    if not isinstance(term, Compound):
        raise ShapeError(f"not a node term: {term!r}")
    leaf = _LEAF_FUNCTORS.get(term.functor)
    if leaf is not None:
        if len(term.args) != 1:
            raise ShapeError(f"{term.functor} takes one argument: {term!r}")
        arg = term.args[0]
        if isinstance(arg, (Var, Anonymous)):
            raise UnboundOutputError(repr(arg))
        if not isinstance(arg, Str):
            raise ShapeError(f"{term.functor} content must be a string: {term!r}")
        return leaf(arg.text)
    if term.functor != "element" or len(term.args) != 3:
        raise ShapeError(f"not a node term: {term!r}")
    name, attrs, children = term.args
    if isinstance(name, (Var, Anonymous)):
        raise UnboundOutputError(repr(name))
    if not isinstance(name, Atom):
        raise ShapeError(f"element name must be an atom: {term!r}")
    return Element(
        name.text,
        tuple(_term_to_attribute(a) for a in _seq_items(attrs, term)),
        tuple(term_to_node(c) for c in _seq_items(children, term)),
    )


def _seq_items(term: Term, context: Term) -> tuple[Term, ...]:
    if isinstance(term, (Var, Anonymous)):
        raise UnboundOutputError(repr(term))
    if not isinstance(term, Seq):
        raise ShapeError(f"expected a sequence in {context!r}")
    return term.items


def _term_to_attribute(term: Term) -> Attribute:
    if isinstance(term, (Var, Anonymous)):
        raise UnboundOutputError(repr(term))
    if isinstance(term, Compound) and term.functor == "=" and len(term.args) == 2:
        name, value = term.args
        for arg in (name, value):
            if isinstance(arg, (Var, Anonymous)):
                raise UnboundOutputError(repr(arg))
        if isinstance(name, Atom) and isinstance(value, Str):
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
