"""Rules compiled to Python functions, once per rule set.

`RuleSet.rules_for` calls `index_rules` on a rule set's first transform,
which compiles each rule for the rule set's solution mode and text
coercion and indexes the results.

Each rule becomes one function, `run(n, rs, R, out)`.  It matches the
head against node `n`, solves the goals left to right and, for each
solution, appends the output hedge to `out`; it returns a true value
exactly when the rule fired.  `R` is the document root the lvl step
reads index paths against.  The rule compiles one of two ways, chosen
once: specialised when the kind of every binding it uses is known at
compile time, and solved otherwise.

A specialised rule runs as code of its own:

- Variables live in Python locals.  A local holds the raw value of its
  binding's kind (see `_TERMS`): a node, an attribute, a name or string
  as a `str`, an attribute list or hedge as the tuple or list it came
  from.  A string that a text, PI or comment node holds keeps its leaf:
  the local holds the leaf, and reads its string as `.content`.
- A pattern that meets a bound value (the head, a transform or
  template/2 result, the other side of an `=` goal with a bound
  variable) is matched in place.  Level by level, it first tests what
  can be read off the value without binding anything: node types,
  element names, attribute and child counts, literal names and strings.
  Then it binds the new variables; a repeated variable compares by value.
  A head with a part that no node can take matches no node.
- An `=` goal with a fresh variable on one side binds it to a scalar
  literal, to a node built as an output is but with no run-time check,
  or to the value of a bound variable.
- A transform goal whose path is at most three `/name` or `child` steps,
  then maybe `@name` or `#`, is inlined: a loop per step over
  `children`, a scan of `attributes`, a loop over text children.  The
  loops keep `eval_path`'s order, find nothing under a leaf, and commit
  to the first value in first-solution mode.  Any other path loops
  over `engine._path_values`, which runs `eval_path`.  The path sets the
  kind: `@`, `id`, `#` and `?` give strings, and so does a `/name` or
  `//name` path under coercion (the text children of each element it
  finds); without coercion a node path gives nodes.  Only the run knows
  the kind of a `count` or `lvl` value, or of a value of another node
  path under coercion.
- A template/2 goal is one call back into `engine._emit`.
- The output is built by direct `Element` and leaf calls that share the
  bound values: a bound subtree, attribute tuple or hedge is passed as
  it is, and `text(V)` is V's Text node when V holds one.

A rule that uses a value whose kind only the run knows, or that has a
not/1 goal, an `=` goal of another form, a goal node that is not a
bound node variable, an output the builder cannot build, or a body
nested past `_MAX_LOOPS` loops, is solved: its function matches the head
the same way and hands the head's bindings, as terms, to `engine._solve`.

Errors keep the types and messages of the helpers they come from.  The
index maps an element name or a leaf type to the rules whose head can
match such a node, in source order.  A rule whose head is a variable, or
an element with a variable name, is in every bucket it can match.

Rule text reaches the generated source only as `repr()` literals and as
constants in the function's namespace; every name in the source is the
compiler's own.  A rule's function carries its line as its file name,
as in `<ltlx rule at line 3>`, so tracebacks and profiles name the rule.
"""

from __future__ import annotations

from typing import Callable

from .engine import _emit, _path_values, _solve, _values
from .nodes import NODE_TYPES, Attribute, Comment, Element, PI, Text, unique_attributes
from .queryops import (
    FIRST_ONLY,
    AttrValue,
    ChildNamed,
    Children,
    CountChildren,
    DescendantOrSelfNamed,
    Index,
    Lvl,
    PathExpr,
    TextValue,
    _coerced_text,
)
from .rules import ApplyTemplates, Rule, Transform, Unify
from .terms import _LEAF_FUNCTORS, Anonymous, Atom, Compound, Int, Seq, Str, Term, Var

Compiled = tuple[Rule, Callable]  # (rule, run)

# The steps an inlined path chains, at most _MAX_NODE_STEPS of them,
# before an optional @name or # step.  So a transform goal opens at most
# _MAX_NODE_STEPS + 1 loops, and a rule whose body might nest more than
# _MAX_LOOPS is solved.  CPython allows 20 nested blocks.
_NODE_STEPS = (ChildNamed, Children)
_MAX_NODE_STEPS = 3
_MAX_LOOPS = 16

# The term that wraps the raw value a local holds, by the kind of its
# binding: a name, a string, an element's attribute tuple, or a tuple or
# list of nodes.  The other kinds ("node", "Element", a node known to be an
# element, and "attr") hold the term itself; None is a value of a kind
# that only the run knows.
_TERMS = {"Atom": Atom, "Str": Str, "attrs": Seq, "hedge": Seq}


def _path_kind(path: PathExpr, coerce: bool) -> str | None:
    """The kind of every value a path that is not inlined offers (see
    `_TERMS`), or None when only the run knows it."""
    steps = [type(step) for step in path.steps if type(step) is not Index]
    last = steps[-1] if steps else Children  # an index alone selects the start node, of any type
    if last in (CountChildren, Lvl):
        return None
    if last.yields_values:
        return "Str"
    if last in (ChildNamed, DescendantOrSelfNamed):
        return "Str" if coerce else "Element"
    return None if coerce else "node"


def _inlined(path: PathExpr) -> bool:
    """Whether a transform goal runs `path` in loops of its own."""
    steps = path.steps[:-1] if type(path.steps[-1]) in (AttrValue, TextValue) else path.steps
    return len(steps) <= _MAX_NODE_STEPS and all(type(step) in _NODE_STEPS for step in steps)


def _key(head: Term) -> object:
    """The element name or node type a head needs, or None for any node."""
    if type(head) is Compound:
        if head.functor == "element" and len(head.args) == 3:
            return head.args[0].text if type(head.args[0]) is Atom else Element
        if len(head.args) == 1:
            return _LEAF_FUNCTORS.get(head.functor)
    return None


def index_rules(
    rules: tuple[Rule, ...], solution_mode: str, coerce_text: bool
) -> dict[object, tuple[Compiled, ...]]:
    """Compile `rules` for these options, and map to the rules whose heads
    can match such a node, in source order: each element name a head
    writes, each node type (`Element` for an element of any other name),
    and None for a node of any other type."""
    first = solution_mode == FIRST_ONLY
    keyed = [(_key(rule.head), _compile(rule, first, coerce_text)) for rule in rules]

    def bucket(*keys: object) -> tuple[Compiled, ...]:
        return tuple(c for key, c in keyed if key in keys)

    index = {kind: bucket(kind, None) for kind in NODE_TYPES}
    index[None] = bucket(None)
    for key, _ in keyed:
        if type(key) is str and key not in index:
            index[key] = bucket(key, Element, None)
    return index


# The names generated code uses, besides a rule's own constants.
_NAMESPACE = {
    **{cls.__name__: cls for cls in (Atom, Attribute, Comment, Element, PI, Seq, Str, Text)},
    **{f.__name__: f for f in (_coerced_text, _emit, _path_values, _solve, _values, unique_attributes)},
}


class _Source:
    """Locals and namespace constants of one rule's function."""

    def __init__(self, rule: Rule):
        self.count = 0
        self.namespace = dict(_NAMESPACE, RULE=rule)

    def local(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def const(self, value: object) -> str:
        self.count += 1
        self.namespace[f"K{self.count}"] = value
        return f"K{self.count}"


class _Binding:
    """Where a variable's binding lives while a function runs: its local,
    its kind (see `_TERMS`), and for a string that a text, PI or comment
    node holds, that leaf's class.  The local then holds the leaf itself,
    so that an output of the same leaf type can reuse it."""

    __slots__ = ("local", "kind", "leaf")

    def __init__(self, local: str, kind: str | None, leaf: type | None = None):
        self.local, self.kind, self.leaf = local, kind, leaf

    def value(self) -> str:
        """The expression of the raw value of the binding's kind."""
        return f"{self.local}.content" if self.leaf else self.local

    def reads(self, need: str) -> bool:
        """Whether a position that needs a value of kind `need` reads it."""
        return self.kind == need or (self.kind, need) == ("Element", "node")

    def term(self) -> str:
        """The expression of the term the binding stands for."""
        wrap = _TERMS.get(self.kind)
        return f"{wrap.__name__}({self.value()})" if wrap else self.value()

    def compared(self) -> tuple[object, str]:
        """The class of the term the binding stands for, as `_unify` compares terms, and
        the raw value as that class reads it (a hedge as a tuple: a template/2 result is a list)."""
        cls = _TERMS.get(self.kind) or ("node" if self.kind == "Element" else self.kind)
        return cls, f"tuple({self.local})" if self.kind == "hedge" else self.value()


class _Unspecialised(Exception):
    """The rule is solved: it uses a value or has a part that only the
    interpreted helpers handle."""


class _Pattern:
    """Source that matches a pattern against a bound value as `_unify` does,
    binding its new variables to locals; gathered by a walk in `_unify`'s
    order.  A new variable takes the kind and leaf of the value it meets,
    and a repeated one compares with it (see `_Binding.compared`).  A part
    it raises `_Unspecialised` on, other than a variable bound to a value
    of a kind only the run knows, is one that `_unify` fails on: no node,
    name, list or attribute in its position can take it."""

    def __init__(self, src: _Source, scope: dict[str, _Binding]):
        self.src = src
        self.scope = scope
        self.guards: list[tuple[int, int, str]] = []  # (level, phase, test)
        self.binds: list[str] = []
        self.checks: list[str] = []
        self.bound: dict[str, _Binding] = {}

    def lines(self, fail: str) -> list[str]:
        lines = []
        if self.guards:
            tests = " and ".join(test for _, _, test in sorted(self.guards, key=lambda g: g[:2]))
            lines += [f"if not ({tests}):", f"    {fail}"]
        lines += self.binds
        for check in self.checks:
            lines += [f"if not {check}:", f"    {fail}"]
        return lines

    def meet(self, p: Term, bound: _Binding) -> None:
        """Walk `p` against the value `bound` holds."""
        if type(p) is Var:
            self.var(p, bound)
        elif bound.reads("node"):
            self.node(p, bound.local, 0)
        elif bound.kind == "attr":
            self.attribute(p, bound.local, 0)
        elif bound.kind in ("attrs", "hedge"):
            self.seq(p, bound, 0)
        elif bound.kind is not None:  # a name or a string
            self.scalar(p, bound, 0)
        else:
            raise _Unspecialised

    def var(self, p: Var, bound: _Binding) -> None:
        """Bind `p` to the value `bound` holds, or compare it there."""
        known = self.bound.get(p.name) or self.scope.get(p.name)
        if known is None:
            local = bound.local
            if not local.isidentifier():
                local = self.src.local()
                self.binds.append(f"{local} = {bound.local}")
            self.bound[p.name] = _Binding(local, bound.kind, bound.leaf)
        elif known.kind is not None and bound.kind is not None:
            (cls, read), (other_cls, other_read) = known.compared(), bound.compared()
            same = f"{read} == {other_read}"
            self.checks.append(same if cls == other_cls else "False")  # an atom never equals a string
        else:
            raise _Unspecialised

    def node(self, p: Term, value: str, level: int) -> None:
        leaf = _LEAF_FUNCTORS.get(p.functor) if type(p) is Compound and len(p.args) == 1 else None
        if type(p) is Compound and p.functor == "element" and len(p.args) == 3:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is Element"))
            self.scalar(p.args[0], _Binding(f"{e}.name", "Atom"), level)
            self.seq(p.args[1], _Binding(f"{e}.attributes", "attrs"), level)
            self.seq(p.args[2], _Binding(f"{e}.children", "hedge"), level)
        elif leaf is not None:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is {leaf.__name__}"))
            self.scalar(p.args[0], _Binding(e, "Str", leaf), level)
        elif type(p) is Var:
            self.var(p, _Binding(value, "node"))
        elif type(p) in NODE_TYPES:  # a node in a rule built in Python
            self.checks.append(f"{value} == {self.src.const(p)}")
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def scalar(self, p: Term, bound: _Binding, level: int) -> None:
        if type(p) is _TERMS[bound.kind]:
            self.guards.append((level, 0, f"{bound.value()} == {p.text!r}"))
        elif type(p) is Var:
            self.var(p, bound)
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def seq(self, p: Term, bound: _Binding, level: int) -> None:
        if type(p) is Seq:
            s = self.src.local()
            self.guards.append((level, 1, f"len({s} := {bound.local}) == {len(p.items)}"))
            item = self.attribute if bound.kind == "attrs" else self.node
            for i, q in enumerate(p.items):
                item(q, f"{s}[{i}]", level + 1)
        elif type(p) is Var:
            self.var(p, bound)
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def attribute(self, p: Term, value: str, level: int) -> None:
        if type(p) is Compound and p.functor == "=" and len(p.args) == 2:
            self.scalar(p.args[0], _Binding(f"{value}.name", "Atom"), level)
            self.scalar(p.args[1], _Binding(f"{value}.value", "Str"), level)
        elif type(p) is Var:
            self.var(p, _Binding(value, "attr"))
        elif type(p) is Attribute:
            self.checks.append(f"{value} == {self.src.const(p)}")
        elif type(p) is not Anonymous:
            raise _Unspecialised


class _Output:
    """The source that builds node terms: statements in term_to_node's order.
    A part it does not build, a free variable, or a binding of another kind
    than its position reads raises `_Unspecialised`, and `term_to_node`
    builds the output or reports the error instead."""

    def __init__(self, src: _Source, scope: dict[str, _Binding]):
        self.src = src
        self.scope = scope
        self.body: list[str] = []
        self.checked = False  # whether the body checks attribute names as it runs

    def lines(self, output: tuple[Term, ...]) -> list[str]:
        """Statements that append the hedge to `out`."""
        nodes = [self.node(t).local for t in output]
        if len(nodes) == 1:
            return [*self.body, f"out.append({nodes[0]})"]
        return [*self.body, "out += (" + "".join(f"{node}, " for node in nodes) + ")"]

    def load(self, name: str, need: str) -> str:
        """An expression for variable `name`'s binding, read as a value of kind `need`."""
        known = self.scope.get(name)
        if known is None or not known.reads(need):
            raise _Unspecialised
        return known.value()

    def scalar(self, t: Term, kind: type) -> str:
        if type(t) is kind:
            return repr(t.text)
        if type(t) is Var:
            return self.load(t.name, kind.__name__)
        raise _Unspecialised

    def node(self, t: Term) -> _Binding:
        """Where the node that `t` builds lives: an element, or a node of any type."""
        if type(t) is Var:
            return _Binding(self.load(t.name, "node"), "node")
        if type(t) is not Compound:
            raise _Unspecialised
        leaf = _LEAF_FUNCTORS.get(t.functor) if len(t.args) == 1 else None
        if leaf is not None:
            content = t.args[0]
            known = self.scope.get(content.name) if type(content) is Var else None
            if known is not None and known.leaf is leaf:
                return _Binding(known.local, "node")  # the bound leaf itself
            return _Binding(f"{leaf.__name__}({self.scalar(content, Str)})", "node")
        if t.functor != "element" or len(t.args) != 3:
            raise _Unspecialised
        name_term, attrs, children = t.args
        name = self.scalar(name_term, Atom)
        attributes = self.attributes(attrs, name)
        if type(children) is Var:
            kids = self.load(children.name, "hedge")
        elif type(children) is Seq:
            kids = "(" + "".join(f"{self.node(c).local}, " for c in children.items) + ")"
        else:
            raise _Unspecialised
        e = self.src.local()
        self.body.append(f"{e} = Element({name}, {attributes}, {kids})")
        return _Binding(e, "Element")

    def attributes(self, t: Term, name: str) -> str:
        """The attribute tuple, checked for a repeated name unless none can repeat."""
        if type(t) is Var:
            return self.load(t.name, "attrs")  # one element's own attributes, which the parser kept unique
        if type(t) is not Seq:
            raise _Unspecialised
        attributes = "(" + "".join(f"{self.attribute(a)}, " for a in t.items) + ")"
        names = {a.args[0].text for a in t.items if type(a) is Compound and type(a.args[0]) is Atom}
        if len(names) == len(t.items):
            return attributes
        checked = self.src.local()
        self.body.append(f"{checked} = unique_attributes({name}, {attributes})")
        self.checked = True
        return checked

    def attribute(self, t: Term) -> str:
        if type(t) is Var:
            return self.load(t.name, "attr")
        if type(t) is Compound and t.functor == "=" and len(t.args) == 2:
            return f"Attribute({self.scalar(t.args[0], Atom)}, {self.scalar(t.args[1], Str)})"
        raise _Unspecialised


class _Function:
    """One generated function: its lines, indentation and open loops."""

    def __init__(self, name: str, params: list[str], first: bool):
        self.lines = [f"def {name}({', '.join(params)}):"]
        self.depth = 1
        self.loops = 0
        self.first = first  # whether each path commits to its first value
        self.searching = 0  # the open loops a failure goes back to
        self.exits: list[int] = []  # the depths of the loops whose running out fails the function

    def emit(self, *lines: str) -> None:
        self.lines += ["    " * self.depth + line for line in lines]

    def fail(self) -> str:
        """The statement that backtracks: to the innermost loop still searching, or out."""
        return "continue" if self.searching else "return None"

    def loop(self, header: str) -> None:
        """Open a loop; the statements emitted next run once per pass."""
        if not self.searching:
            self.exits.append(self.depth)
            if not self.first:
                self.emit("found = False")
        self.emit(header)
        self.depth += 1
        self.loops += 1
        self.searching += 1


Scope = dict[str, _Binding]


class _Rule:
    """The generated source of one rule's `run`, for one solution mode
    (`first`) and text coercion (`coerce`)."""

    def __init__(self, rule: Rule, first: bool, coerce: bool):
        self.rule, self.first, self.coerce = rule, first, coerce
        self.src = _Source(rule)

    def source(self) -> str:
        try:
            return self.function(specialise=True)
        except _Unspecialised:
            self.src = _Source(self.rule)
            return self.function(specialise=False)

    def function(self, specialise: bool) -> str:
        fn = _Function("run", ["n", "rs", "R", "out"], self.first)
        scope: Scope = {}
        if self.head(fn, scope):
            if specialise:
                self.goals(fn, scope)
            else:
                theta = ", ".join(f"{name!r}: {b.term()}" for name, b in sorted(scope.items()))
                fn.emit(f"return _solve(rs, RULE, {{{theta}}}, R, out)")
        for depth in reversed(fn.exits):  # the function fails where such a loop runs out
            fn.depth = depth
            fn.emit("return None" if self.first else "return found")
        return "\n".join(fn.lines)

    def head(self, fn: _Function, scope: Scope) -> bool:
        """Match the head against `n`; False when no node can match it."""
        try:
            self.match(fn, scope, self.rule.head, _Binding("n", "node"))
        except _Unspecialised:
            fn.emit("return None")  # the head has a part that no node takes
            return False
        return True

    def match(self, fn: _Function, scope: Scope, pattern: Term, bound: _Binding) -> None:
        """Match `pattern` in place against the value `bound` holds."""
        gathered = _Pattern(self.src, scope)
        gathered.meet(pattern, bound)
        fn.emit(*gathered.lines(fn.fail()))
        scope.update(gathered.bound)

    def goals(self, fn: _Function, scope: Scope) -> None:
        """Solve the goals in place, and build the output at each solution."""
        for goal in self.rule.goals:
            if isinstance(goal, Unify):
                self.unify(fn, goal, scope)
            elif isinstance(goal, Transform) and fn.loops + _MAX_NODE_STEPS + 1 <= _MAX_LOOPS:
                self.transform(fn, goal, scope)
            elif isinstance(goal, ApplyTemplates):
                self.template(fn, goal, scope)
            else:  # not/1, or a transform goal that might nest too many loops
                raise _Unspecialised
        fn.emit(*_Output(self.src, scope).lines(self.rule.output))
        fn.emit("found = True" if fn.searching else "return True")

    def unify(self, fn: _Function, goal: Unify, scope: Scope) -> None:
        sides = ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs))
        for var, other in sides:
            if type(var) is Var and var.name in scope:  # the other side is a pattern for its value
                return self.match(fn, scope, other, scope[var.name])
        for var, other in sides:
            if type(var) is Var:
                return self.assign(fn, scope, var.name, other)
        raise _Unspecialised

    def assign(self, fn: _Function, scope: Scope, name: str, term: Term) -> None:
        """Bind the fresh variable `name` to `term`: a scalar literal, or a
        node that `_Output` builds with no run-time check."""
        if type(term) in (Atom, Str):
            bound = _Binding(repr(term.text), type(term).__name__)
        elif type(term) is Int:
            bound = _Binding(repr(term.value), None)  # no specialised position reads an integer
        else:
            output = _Output(self.src, scope)
            bound = output.node(term)
            if output.checked:
                raise _Unspecialised  # unification does not check attribute names
            fn.emit(*output.body)
        if not bound.local.isidentifier():
            local = self.src.local()
            fn.emit(f"{local} = {bound.local}")
            bound = _Binding(local, bound.kind)
        scope[name] = bound

    def node_of(self, name: str | None, scope: Scope) -> _Binding:
        """The binding of the variable that names a goal's node."""
        known = scope.get(name)
        if known is None or not known.reads("node"):
            raise _Unspecialised  # not surely a node: `_bound_node` reports it
        return known

    def transform(self, fn: _Function, goal: Transform, scope: Scope) -> None:
        start = self.node_of(goal.path.start, scope)
        if _inlined(goal.path):
            found = self.path(fn, goal.path, start)
        else:
            found = _Binding(self.src.local(), _path_kind(goal.path, self.coerce))
            args = f"{start.local}, {self.src.const(goal.path)}, {self.coerce}, R"
            fn.loop(f"for {found.local} in _path_values({args}):")
        if self.first:
            fn.searching = 0  # the path gave its value, and gives no other
        if type(goal.result) is not Anonymous:
            self.match(fn, scope, goal.result, found)

    def path(self, fn: _Function, path: PathExpr, start: _Binding) -> _Binding:
        """Open the loops of an inlined path from the node `start` holds, and
        bind each value it offers."""
        x, element = start.local, start.kind == "Element"  # the node the next step applies to
        for step in path.steps:
            if type(step) is not TextValue and not element:  # a leaf has no children or attributes
                fn.emit(f"if type({x}) is not Element:", f"    {fn.fail()}")
                if x == start.local:
                    start.kind = "Element"  # so later goals need not test it again
            if type(step) in _NODE_STEPS:
                child = self.src.local()
                fn.loop(f"for {child} in {x}.children:")
                if type(step) is ChildNamed:
                    test = f"type({child}) is not Element or {child}.name != {step.name!r}"
                    fn.emit(f"if {test}:", "    continue")
                x, element = child, type(step) is ChildNamed
            elif type(step) is AttrValue:
                a, found = self.src.local(), _Binding(self.src.local(), "Str")
                fn.emit(f"for {a} in {x}.attributes:", f"    if {a}.name == {step.name!r}:", "        break")
                fn.emit("else:", f"    {fn.fail()}", f"{found.local} = {a}.value")
            elif self.coerce:  # the text step: an element's text children, or a text node itself
                found = _Binding(self.src.local(), "Str", Text)
                fn.loop(f"for {found.local} in {x}.children:" if element else
                        f"for {found.local} in ({x}.children if type({x}) is Element else ({x},)):")
                fn.emit(f"if type({found.local}) is not Text:", "    continue")
            else:  # the text step without coercion: a text node itself
                found = _Binding(x, "Str", Text)
                fn.emit(f"if type({x}) is not Text:", f"    {fn.fail()}")
        if type(path.steps[-1]) in _NODE_STEPS:
            found = _Binding(x, "Element" if element else "node")
            if self.coerce:  # an element stands for its text children
                found = _Binding(self.src.local(), "Str" if element else None)
                fn.loop(f"for {found.local} in {'_coerced_text' if element else '_values'}({x}):")
        return found

    def template(self, fn: _Function, goal: ApplyTemplates, scope: Scope) -> None:
        node = self.node_of(goal.node.name if type(goal.node) is Var else None, scope)
        hedge = self.src.local()
        fn.emit(f"{hedge} = []", f"_emit(rs, {node.local}, R, {hedge})")
        self.match(fn, scope, goal.result, _Binding(hedge, "hedge"))


def _compile(rule: Rule, first: bool, coerce: bool) -> Compiled:
    generated = _Rule(rule, first, coerce)
    source = generated.source()
    exec(compile(source, f"<ltlx {rule.label}>", "exec"), generated.src.namespace)
    return rule, generated.src.namespace["run"]
