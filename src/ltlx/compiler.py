"""Rules compiled to Python functions, once per rule set.

`RuleSet.rules_for` calls `index_rules` on a rule set's first transform,
which compiles each rule and indexes the results; `with_options` copies
share them.

- A head matcher takes a node and returns the head's bindings, or None.
  Level by level, it first tests what can be read off the node without
  binding anything: node types, element names, attribute and child
  counts, literal names and strings.  Then it builds the bindings in one
  dict.  A variable's first occurrence binds it and a later one is
  compared by `_match`, as in the interpreter.  A sub-pattern that it
  does not specialise (an atom among an element's children, say) is
  handed to `_match` too.
- An output builder takes the bindings of one solution of the rule's
  goals and returns the output hedge, built by direct `Element` and
  `Text` calls that share the bound subtrees.  A variable bound by the
  head holds what its position there says; one bound by a goal is
  type-checked first.  When a check fails, or the output has a part the
  builder does not specialise, `term_to_node` builds the whole hedge
  instead and raises its errors.
- The index maps an element name or a leaf type to the rules whose head
  can match such a node, in source order.  A rule whose head is a
  variable, or an element with a variable name, is in every bucket it
  can match.

Rule text reaches the generated source only as `repr()` literals and as
constants in the function's namespace; every name in the source is the
compiler's own.  A rule's functions carry its line as their file name,
as in `<ltlx rule at line 3>`, so tracebacks and profiles name the rule.
"""

from __future__ import annotations

from typing import Callable

from .nodes import Attribute, Comment, Element, Hedge, Node, PI, Text, unique_attributes
from .rules import Rule
from .terms import (
    _LEAF_FUNCTORS,
    Anonymous,
    Atom,
    Compound,
    Seq,
    Str,
    Term,
    Var,
    _match,
    term_to_node,
    variables_of,
)

Compiled = tuple[Rule, Callable[[Node], "dict[str, Term] | None"], Callable[[dict], Hedge]]

_NODE_TYPES = frozenset((Element, Text, PI, Comment))

# What a builder needs of a variable at an output position, keyed by that
# position's kind (the kind a head variable gets from its binding
# position): how to read the binding, and the test that finds a goal's
# binding unfit to be read that way.
_NEEDS = {
    "node": ("{}", "type({}) not in NODES"),
    "Atom": ("{}.text", "type({}) is not Atom"),
    "Str": ("{}.text", "type({}) is not Str"),
    "attr": ("{}", "type({}) is not Attribute"),
    "attrs": ("{}.items", "not _all({}, ATTRIBUTES)"),
    "hedge": ("{}.items", "not _all({}, NODES)"),
}


def _all(seq: object, types: frozenset) -> bool:
    return type(seq) is Seq and all(type(item) in types for item in seq.items)


def _interpret(output: tuple[Term, ...], theta: dict[str, Term]) -> Hedge:
    return tuple([term_to_node(template, theta) for template in output])


def _key(head: Term) -> object:
    """The element name or node type a head needs, or None for any node."""
    if type(head) is Compound:
        if head.functor == "element" and len(head.args) == 3:
            return head.args[0].text if type(head.args[0]) is Atom else Element
        if len(head.args) == 1:
            return _LEAF_FUNCTORS.get(head.functor)
    return None


def index_rules(rules: tuple[Rule, ...]) -> dict[object, tuple[Compiled, ...]]:
    """Compile `rules`, and map to the rules whose heads can match such a
    node, in source order: each element name a head writes, each node type
    (`Element` for an element of any other name), and None for a node of
    any other type."""
    keyed = [(_key(rule.head), _compile(rule)) for rule in rules]

    def bucket(*keys: object) -> tuple[Compiled, ...]:
        return tuple(c for key, c in keyed if key in keys)

    index = {kind: bucket(kind, None) for kind in (Element, Text, PI, Comment)}
    index[None] = bucket(None)
    for key, _ in keyed:
        if type(key) is str and key not in index:
            index[key] = bucket(key, Element, None)
    return index


# The names generated code uses, besides a rule's own constants.
_NAMESPACE = {
    **{cls.__name__: cls for cls in (Atom, Attribute, Comment, Element, PI, Seq, Str, Text)},
    **{f.__name__: f for f in (_all, _interpret, _match, unique_attributes)},
    "ATTRIBUTES": frozenset((Attribute,)),
    "NODES": _NODE_TYPES,
}


class _Source:
    """Locals and namespace constants shared by the functions of one rule."""

    def __init__(self, rule: Rule):
        self.count = 0
        self.namespace = dict(_NAMESPACE, OUTPUT=rule.output)

    def local(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def const(self, value: object) -> str:
        self.count += 1
        self.namespace[f"K{self.count}"] = value
        return f"K{self.count}"


class _Head:
    """The source of one head matcher, gathered by a walk in `_match`'s order."""

    def __init__(self, src: _Source):
        self.src = src
        self.guards: list[tuple[int, int, str]] = []  # (level, phase, test)
        self.binds: list[str] = []
        self.checks: list[str] = []
        self.kinds: dict[str, str | None] = {}  # variable -> kind of its binding position

    def lines(self, head: Term) -> list[str]:
        self.node(head, "n", 0)
        lines = ["def match(n):"]
        if self.guards:
            tests = " and ".join(test for _, _, test in sorted(self.guards, key=lambda g: g[:2]))
            lines += [f"    if not ({tests}):", "        return None"]
        binds = f"{{{', '.join(self.binds)}}}"
        if not self.checks:
            return lines + [f"    return {binds}"]
        lines.append(f"    theta = {binds}")
        lines += [f"    if not {check}:\n        return None" for check in self.checks]
        return lines + ["    return theta"]

    def var(self, p: Var, kind: str, value: str) -> None:
        if p.name in self.kinds:
            self.checks.append(f"_match(theta[{p.name!r}], {value}, theta)")
        else:
            self.kinds[p.name] = kind
            self.binds.append(f"{p.name!r}: {value}")

    def fallback(self, p: Term, value: str) -> None:
        self.checks.append(f"_match({self.src.const(p)}, {value}, theta)")
        for name in sorted(variables_of(p)):
            self.kinds.setdefault(name, None)

    def node(self, p: Term, value: str, level: int) -> None:
        leaf = _LEAF_FUNCTORS.get(p.functor) if type(p) is Compound and len(p.args) == 1 else None
        if type(p) is Compound and p.functor == "element" and len(p.args) == 3:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is Element"))
            self.scalar(p.args[0], f"{e}.name", Atom, level)
            self.seq(p.args[1], f"{e}.attributes", self.attribute, "attrs", level)
            self.seq(p.args[2], f"{e}.children", self.node, "hedge", level)
        elif leaf is not None:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is {leaf.__name__}"))
            self.scalar(p.args[0], f"{e}.content", Str, level)
        elif type(p) is Var:
            self.var(p, "node", value)
        elif type(p) is not Anonymous:
            self.fallback(p, value)

    def scalar(self, p: Term, value: str, kind: type, level: int) -> None:
        term = f"{kind.__name__}({value})"
        if type(p) is kind:
            self.guards.append((level, 0, f"{value} == {p.text!r}"))
        elif type(p) is Var:
            self.var(p, kind.__name__, term)
        elif type(p) is not Anonymous:
            self.fallback(p, term)

    def seq(self, p: Term, value: str, item: Callable, kind: str, level: int) -> None:
        if type(p) is Seq:
            s = self.src.local()
            self.guards.append((level, 1, f"len({s} := {value}) == {len(p.items)}"))
            for i, q in enumerate(p.items):
                item(q, f"{s}[{i}]", level + 1)
        elif type(p) is Var:
            self.var(p, kind, f"Seq({value})")
        elif type(p) is not Anonymous:
            self.fallback(p, f"Seq({value})")

    def attribute(self, p: Term, value: str, level: int) -> None:
        if type(p) is Compound and p.functor == "=" and len(p.args) == 2:
            self.scalar(p.args[0], f"{value}.name", Atom, level)
            self.scalar(p.args[1], f"{value}.value", Str, level)
        elif type(p) is Var:
            self.var(p, "attr", value)
        elif type(p) is not Anonymous:
            self.fallback(p, value)


class _Unspecialised(Exception):
    """An output holds a part that only term_to_node builds."""


class _Output:
    """The source of one output builder: statements in term_to_node's order."""

    def __init__(self, src: _Source, kinds: dict[str, str | None]):
        self.src = src
        self.kinds = kinds
        self.body: list[str] = []
        self.loaded: dict[tuple[str, str], str] = {}

    def lines(self, output: tuple[Term, ...]) -> list[str]:
        try:
            hedge = "".join(f"{self.node(t)}, " for t in output)
        except _Unspecialised:
            return ["def build(theta):", "    return _interpret(OUTPUT, theta)"]
        return ["def build(theta):", *self.body, f"    return ({hedge})"]

    def load(self, name: str, need: str) -> str:
        """An expression for variable `name`'s binding, read as `need` says."""
        if (name, need) not in self.loaded:
            v = self.src.local()
            read, unfit = _NEEDS[need]
            if self.kinds.get(name) == need:
                self.body.append(f"    {v} = theta[{name!r}]")
            else:
                self.body += [
                    f"    {v} = theta.get({name!r})",
                    f"    if {unfit.format(v)}:",
                    "        return _interpret(OUTPUT, theta)",
                ]
            self.loaded[name, need] = read.format(v)
        return self.loaded[name, need]

    def scalar(self, t: Term, kind: type) -> str:
        if type(t) is kind:
            return repr(t.text)
        if type(t) is Var:
            return self.load(t.name, kind.__name__)
        raise _Unspecialised

    def node(self, t: Term) -> str:
        if type(t) is Var:
            return self.load(t.name, "node")
        if type(t) is not Compound:
            raise _Unspecialised
        leaf = _LEAF_FUNCTORS.get(t.functor) if len(t.args) == 1 else None
        if leaf is not None:
            return f"{leaf.__name__}({self.scalar(t.args[0], Str)})"
        if t.functor != "element" or len(t.args) != 3:
            raise _Unspecialised
        name_term, attrs, children = t.args
        name = self.scalar(name_term, Atom)
        attributes = self.attributes(attrs, name)
        if type(children) is Var:
            kids = self.load(children.name, "hedge")
        elif type(children) is Seq:
            kids = "(" + "".join(f"{self.node(c)}, " for c in children.items) + ")"
        else:
            raise _Unspecialised
        e = self.src.local()
        self.body.append(f"    {e} = Element({name}, {attributes}, {kids})")
        return e

    def attributes(self, t: Term, name: str) -> str:
        """The attribute tuple, checked for a repeated name unless none can repeat."""
        if type(t) is Var:
            attributes = self.load(t.name, "attrs")
            if self.kinds.get(t.name) == "attrs":
                return attributes  # one element's own attributes, which the parser kept unique
        elif type(t) is Seq:
            attributes = "(" + "".join(f"{self.attribute(a)}, " for a in t.items) + ")"
            names = {a.args[0].text for a in t.items if type(a) is Compound and type(a.args[0]) is Atom}
            if len(names) == len(t.items):
                return attributes
        else:
            raise _Unspecialised
        checked = self.src.local()
        self.body.append(f"    {checked} = unique_attributes({name}, {attributes})")
        return checked

    def attribute(self, t: Term) -> str:
        if type(t) is Var:
            return self.load(t.name, "attr")
        if type(t) is Compound and t.functor == "=" and len(t.args) == 2:
            return f"Attribute({self.scalar(t.args[0], Atom)}, {self.scalar(t.args[1], Str)})"
        raise _Unspecialised


def _compile(rule: Rule) -> Compiled:
    src = _Source(rule)
    head = _Head(src)
    lines = head.lines(rule.head) + _Output(src, head.kinds).lines(rule.output)
    exec(compile("\n".join(lines), f"<ltlx {rule.label}>", "exec"), src.namespace)
    return rule, src.namespace["match"], src.namespace["build"]
