"""Rules compiled to Python functions, once per rule set.

`engine.apply_templates` calls `index_rules` on a rule set's first
transform, which compiles each rule for the rule set's solution mode and
text coercion and indexes the results.

Each rule becomes one function, `run(n, rs, R, out)`.  It matches the
head against node `n`, solves the goals left to right and, for each
solution, appends the output hedge to `out`; it returns a true value
exactly when the rule fired.  `R` is the document root the lvl step
reads index paths against.  Every rule runs as code of its own:

- Variables live in Python locals.  A local holds the raw value of its
  binding's kind (see `_TERMS`): a node, an attribute, a name or string
  as a `str`, a count as an `int`, an attribute list, hedge or index
  path as the tuple or list it came from.  A string that a text, PI or
  comment node holds keeps its leaf: the local holds the leaf, and reads
  its string as `.content`.  A variable bound to a fresh variable, or to
  a term that holds one, stands for that term at compile time instead.
- A pattern that meets a bound value (the head, a transform or
  template/2 result, the other side of an `=` goal with a bound
  variable) is matched in place.  Level by level, it first tests what
  can be read off the value without binding anything: node types,
  element names, attribute and child counts, literal names and strings.
  Then it binds the new variables; a repeated variable compares as a
  term, as `_unify` does, or by its raw values when both sides are
  names, strings or integers.  A part that no value can take fails the
  match.  A node that an `element(...)` pattern or a path's first step
  tests is known as an element to the code after the test.
- An `=` goal with a fresh variable on one side binds it to a scalar
  literal, to a node built as an output is but with no run-time check,
  or to the value of a bound variable; else the variable stands for the
  other side.  Two terms split into pairs of arguments, solved left to
  right, and fail on a functor or arity that differs (the decomposition
  of Martelli and Montanari, 1982).
- A transform goal whose path is at most three `/name` or `child` steps,
  then maybe `@name` or `#`, is inlined: a loop per step over
  `children`, a scan of `attributes`, a loop over text children.  The
  loops keep `eval_path`'s order, find nothing under a leaf, and commit
  to the first value in first-solution mode; an `@name` value gets a
  local only when a variable binds it.  Any other path loops over
  `engine._path_values`, which runs `eval_path`.  The path sets the
  kind: `@`, `id`, `#` and `?` give strings, `count` an integer, `lvl`
  an index path.  A node path gives nodes without coercion; under it, a
  `/name` or `//name` path gives strings (the text children of each
  element it finds), and any other node path a string or a node, which
  each use tests.
- A template/2 goal is one call back into `engine._emit`.
- A not/1 goal runs in a function of its own that returns at the first
  solution, so its bindings stay there: negation as failure compiled as
  `(G -> fail ; true)` (Aït-Kaci, 1991).  A body that might nest past
  `_MAX_LOOPS` loops continues in such a function too.
- The output, and a goal's node that is not a bound node, are built by
  direct `Element` and leaf calls that share the bound values: a bound
  subtree, attribute tuple or hedge is passed as it is, and `text(V)` is
  V's Text node when V holds one.

Errors keep the types and messages of the helpers they come from: where
a free variable, or a value of a kind its position cannot take, makes
`term_to_node` raise, the code calls `_unbuilt` for an output and
`_bound_node` for a goal's node, which raise that error through the term
layer itself; where the node can never be built, nothing follows the
call.  The index maps an element name or a leaf type to the rules whose
head can match such a node, in source order.  A rule whose head is a
variable, or an element with a variable name, is in every bucket it can
match.

Rule text reaches the generated source only as `repr()` literals and as
constants in the function's namespace; every name in the source is the
compiler's own.  A rule's function carries its line as its file name,
as in `<ltlx rule at line 3>`, so tracebacks and profiles name the rule.
"""

from __future__ import annotations

from typing import Callable

from .engine import _emit, _path_values, _values
from .errors import InstantiationError, ShapeError, TypeMismatchError, UnboundOutputError
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
from .rules import ApplyTemplates, Not, Rule, Transform, Unify
from .terms import _LEAF_FUNCTORS, _LEAF_NAMES, Anonymous, Atom, Compound, Int, Seq, Str, Term, Var
from .terms import _node_args, _occurs, _resolve, _walk, is_ground, term_to_node

Compiled = tuple[Rule, Callable]  # (rule, run)

# The steps an inlined path chains, at most _MAX_NODE_STEPS of them,
# before an optional @name or # step.  So a transform goal opens at most
# _MAX_NODE_STEPS + 1 loops, and a body that might nest more than
# _MAX_LOOPS continues in a function of its own.  CPython allows 20
# nested blocks in one function.
_NODE_STEPS = (ChildNamed, Children)
_MAX_NODE_STEPS = 3
_MAX_LOOPS = 16

# The term that the raw value a local holds stands for, by the kind of
# its binding: a name, a string, a count, an element's attribute tuple, a
# tuple or list of nodes, an index path, or under coercion a string or a
# node ("coerced").  The other kinds ("node", "Element", a node known to
# be an element, and "attr") hold the term itself.
_TERMS = {"Atom": "Atom({})", "Str": "Str({})", "Int": "Int({})", "attrs": "Seq({})", "hedge": "Seq({})",
          "index": "Seq(tuple(map(Int, {})))", "coerced": "(Str({0}) if type({0}) is str else {0})"}
_SCALARS = {"Atom": Atom, "Str": Str, "Int": Int, "coerced": Str}
_SEQS = ("attrs", "hedge", "index")


def _path_kind(path: PathExpr, coerce: bool) -> str:
    """The kind of every value a path that is not inlined offers (see `_TERMS`)."""
    steps = [type(step) for step in path.steps if type(step) is not Index]
    last = steps[-1] if steps else Children  # an index alone selects the start node, of any type
    if last.yields_values:
        return {CountChildren: "Int", Lvl: "index"}.get(last, "Str")
    if last in (ChildNamed, DescendantOrSelfNamed):
        return "Str" if coerce else "Element"
    return "coerced" if coerce else "node"


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


def _bound_node(theta: dict[str, Term], term: Term, what: str) -> None:
    """Raise what the term layer raises on a goal's node, `term` under `theta`, where the code cannot build it."""
    grounded = _resolve(term, theta)
    if not is_ground(grounded):
        raise InstantiationError(f"{what} is not fully bound: {grounded!r}")
    try:
        term_to_node(grounded)
    except ShapeError:
        raise TypeMismatchError(f"{what} is not a node: {grounded!r}") from None


def _unbuilt(output: tuple[Term, ...], theta: dict[str, Term], label: str) -> None:
    """Raise what `term_to_node` raises on `output` under `theta`, where the code cannot build it."""
    try:
        for template in output:
            term_to_node(template, theta)
    except UnboundOutputError as exc:
        raise UnboundOutputError(exc.variable, label) from None


# The names generated code uses, besides a rule's own constants.
_NAMESPACE = {x.__name__: x for x in (
    Atom, Attribute, Comment, Element, InstantiationError, Int, PI, Seq, Str, Text,
    _bound_node, _coerced_text, _emit, _path_values, _unbuilt, _values, unique_attributes,
)}


class _Source:
    """Locals and namespace constants of one rule's functions."""

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

    def __init__(self, local: str, kind: str, leaf: type | None = None):
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
        return wrap.format(self.value()) if wrap else self.value()


# A variable's binding, or the term it stands for.  The term layer's
# `_walk` and `_resolve` read a scope as bindings: a bound variable
# resolves to its _Binding, one that stands for a term to that term.
Scope = dict[str, "_Binding | Term"]


def _theta(src: _Source, scope: Scope) -> str:
    """The expression of the bindings in `scope` as the dict of terms the term layer reads."""
    terms = {name: b.term() if type(b) is _Binding else src.const(b) for name, b in sorted(scope.items())}
    return "{" + ", ".join(f"{name!r}: {term}" for name, term in terms.items()) + "}"


_FUNCTORS = {Element: "element", Attribute: "=", **_LEAF_NAMES}


def _term(t: Term) -> Term:
    """`t`, or the one-level term that a node or attribute in a rule built in Python reads as."""
    functor = _FUNCTORS.get(type(t))
    return t if functor is None else Compound(functor, _node_args(t, functor))


class _NoMatch(Exception):
    """No value can take a part of a pattern, so the match fails; or, holding
    the call that raises, a goal's node can never be built."""


class _Pattern:
    """Source that matches a pattern against a bound value as `_unify` does,
    binding its new variables to locals; gathered by a walk in `_unify`'s
    order.  A new variable takes the kind and leaf of the value it meets,
    a repeated one compares as a term (see `_Binding.term`), or as a raw
    value when both sides are names, strings or integers, and one that
    stands for a term meets the value as that term.  A node binding that
    an `element(...)` pattern meets is an "Element" after its guard.  It
    raises `_NoMatch` on a part that `_unify` fails on: no node, name,
    list, attribute or integer in its position can take it."""

    def __init__(self, src: _Source, scope: Scope):
        self.src, self.scope = src, scope
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

    def meet(self, p: Term, bound: _Binding, level: int = 0) -> None:
        """Walk `p` against the value `bound` holds."""
        p = _term(p)
        if type(p) is Var:
            self.var(p, bound, level)
        elif bound.reads("node") or bound.kind == "coerced" and type(p) is not Str:
            self.node(p, bound, level)
        elif bound.kind == "attr":
            self.attribute(p, bound.local, level)
        elif bound.kind in _SEQS:
            self.seq(p, bound, level)
        else:  # a name, a string or an integer, or a string literal that a coerced node never equals
            self.scalar(p, bound, level)

    def var(self, p: Var, bound: _Binding, level: int) -> None:
        """Bind `p` to the value `bound` holds, or compare it there."""
        known = self.bound.get(p.name) or self.scope.get(p.name)
        if known is None:
            local = bound.local
            if not local.isidentifier():
                local = self.src.local()
                self.binds.append(f"{local} = {bound.local}")
            self.bound[p.name] = _Binding(local, bound.kind, bound.leaf)
        elif type(known) is not _Binding:
            self.meet(known, bound, level)
        elif known.kind == bound.kind and known.kind in ("Atom", "Str", "Int"):  # terms of one class: their values
            self.checks.append(f"{known.value()} == {bound.value()}")
        else:  # the two terms, as `_unify` compares them
            self.checks.append(f"{known.term()} == {bound.term()}")

    def node(self, p: Term, bound: _Binding, level: int) -> None:
        value = bound.local
        leaf = _LEAF_FUNCTORS.get(p.functor) if type(p) is Compound and len(p.args) == 1 else None
        if type(p) is Compound and p.functor == "element" and len(p.args) == 3:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is Element"))
            if bound.kind == "node":
                bound.kind = "Element"  # for the code after the guard
            self.scalar(p.args[0], _Binding(f"{e}.name", "Atom"), level)
            self.seq(p.args[1], _Binding(f"{e}.attributes", "attrs"), level)
            self.seq(p.args[2], _Binding(f"{e}.children", "hedge"), level)
        elif leaf is not None:
            e = self.src.local()
            self.guards.append((level, 0, f"type({e} := {value}) is {leaf.__name__}"))
            self.scalar(p.args[0], _Binding(e, "Str", leaf), level)
        elif type(p) is not Anonymous:
            raise _NoMatch

    def scalar(self, p: Term, bound: _Binding, level: int) -> None:
        if type(p) is _SCALARS[bound.kind]:
            self.guards.append((level, 0, f"{bound.value()} == {p.value if type(p) is Int else p.text!r}"))
        elif type(p) is Var:
            self.var(p, bound, level)
        elif type(p) is not Anonymous:
            raise _NoMatch

    def seq(self, p: Term, bound: _Binding, level: int) -> None:
        if type(p) is Seq:
            s = self.src.local()
            self.guards.append((level, 1, f"len({s} := {bound.local}) == {len(p.items)}"))
            kind = {"attrs": "attr", "hedge": "node", "index": "Int"}[bound.kind]
            for i, q in enumerate(p.items):
                self.meet(q, _Binding(f"{s}[{i}]", kind), level + 1)
        elif type(p) is Var:
            self.var(p, bound, level)
        elif type(p) is not Anonymous:
            raise _NoMatch

    def attribute(self, p: Term, value: str, level: int) -> None:
        if type(p) is Compound and p.functor == "=" and len(p.args) == 2:
            self.scalar(p.args[0], _Binding(f"{value}.name", "Atom"), level)
            self.scalar(p.args[1], _Binding(f"{value}.value", "Str"), level)
        elif type(p) is not Anonymous:
            raise _NoMatch


class _Output:
    """The source that builds node terms, resolved in `scope` (so a bound
    variable is its _Binding): statements in term_to_node's order.  Where a
    free variable, or a binding of a kind that its position cannot take,
    makes term_to_node raise, it notes that it is `guarded` and, given the
    call that raises (`raises`, with `{}` for the bindings), emits that
    call there: under a test of the value's type or length, or as the
    statement that ends the body."""

    def __init__(self, src: _Source, scope: Scope, raises: str = ""):
        self.src, self.scope, self.raises = src, scope, raises
        self.body: list[str] = []
        self.checked = False  # whether the body checks attribute names as it runs
        self.guarded = False
        self.end: int | None = None  # the length of the body once it surely raises

    def lines(self, output: tuple[Term, ...]) -> list[str]:
        """Statements that append the hedge to `out`."""
        nodes = [self.node(_resolve(t, self.scope)).local for t in output]
        if self.end is not None:
            return self.body[: self.end]
        if len(nodes) == 1:
            return [*self.body, f"out.append({nodes[0]})"]
        return [*self.body, "out += (" + "".join(f"{node}, " for node in nodes) + ")"]

    def fail(self, test: str = "", value: str = "None") -> str:
        """Raise where `test` holds, or always; `value` then stands for the value."""
        self.guarded = True
        if self.raises and self.end is None:
            call = self.raises.format(_theta(self.src, self.scope))
            self.body += [f"if {test}:", f"    {call}"] if test else [call]
            self.end = None if test else len(self.body)
        return value

    def load(self, known: _Binding | Term, need: str) -> str:
        """An expression for a binding read as a value of kind `need`; any other term fails."""
        if type(known) is not _Binding:
            return self.fail()
        if known.reads(need):
            return known.value()
        if known.kind == "coerced" and need in ("Str", "node"):
            return self.fail(f"type({known.local}) is {'not ' * (need == 'Str')}str", known.local)
        if known.kind in _SEQS and need in _SEQS:  # only an empty one is a sequence of another kind
            return self.fail(known.local, "()")
        return self.fail()

    def scalar(self, t: Term, kind: type) -> str:
        return repr(t.text) if type(t) is kind else self.load(t, kind.__name__)

    def node(self, t: Term) -> _Binding:
        """Where the node that `t` builds lives: an element, or a node of any type."""
        t = _term(t)
        leaf = _LEAF_FUNCTORS.get(t.functor) if type(t) is Compound and len(t.args) == 1 else None
        if leaf is not None:
            content = t.args[0]
            if type(content) is _Binding and content.leaf is leaf:
                return _Binding(content.local, "node")  # the bound leaf itself
            return _Binding(f"{leaf.__name__}({self.scalar(content, Str)})", "node")
        if type(t) is not Compound or t.functor != "element" or len(t.args) != 3:
            return _Binding(self.load(t, "node"), "node")
        name_term, attrs, children = t.args
        name = self.scalar(name_term, Atom)
        attributes = self.attributes(attrs, name)
        if type(children) is Seq:
            kids = "(" + "".join(f"{self.node(c).local}, " for c in children.items) + ")"
        else:
            kids = self.load(children, "hedge")
        e = self.src.local()
        self.body.append(f"{e} = Element({name}, {attributes}, {kids})")
        return _Binding(e, "Element")

    def attributes(self, t: Term, name: str) -> str:
        """The attribute tuple, checked for a repeated name unless none can repeat."""
        if type(t) is not Seq:
            return self.load(t, "attrs")  # one element's own attributes, which the parser kept unique
        items = [_term(a) for a in t.items]
        attributes = "(" + "".join(f"{self.attribute(a)}, " for a in items) + ")"
        names = {a.args[0].text for a in items if type(a) is Compound and a.args and type(a.args[0]) is Atom}
        if len(names) == len(items):
            return attributes
        checked = self.src.local()
        self.body.append(f"{checked} = unique_attributes({name}, {attributes})")
        self.checked = True
        return checked

    def attribute(self, t: Term) -> str:
        if type(t) is Compound and t.functor == "=" and len(t.args) == 2:
            return f"Attribute({self.scalar(t.args[0], Atom)}, {self.scalar(t.args[1], Str)})"
        return self.load(t, "attr")


class _Function:
    """One generated function: its lines, indentation and open loops."""

    def __init__(self, name: str, params: list[str], collect: bool):
        self.lines = [f"def {name}({', '.join(params)}):"]
        self.depth = 1
        self.loops = 0
        self.collect = collect  # whether it appends every solution and returns whether there was one
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
            if self.collect:
                self.emit("found = False")
        self.emit(header)
        self.depth += 1
        self.loops += 1
        self.searching += 1

    def source(self) -> str:
        """The function's source, which fails where a loop of `exits` runs out."""
        for depth in reversed(self.exits):
            self.depth = depth
            self.emit("return found" if self.collect else "return None")
        return "\n".join(self.lines)


class _Rule:
    """The generated source of one rule's `run`, for one solution mode
    (`first`) and text coercion (`coerce`), and of the functions it calls."""

    def __init__(self, rule: Rule, first: bool, coerce: bool):
        self.rule, self.first, self.coerce = rule, first, coerce
        self.src = _Source(rule)
        self.functions: list[str] = []

    def source(self) -> str:
        fn = _Function("run", ["n", "rs", "R", "out"], not self.first)
        scope: Scope = {}
        if self.head(fn, scope):
            self.goals(fn, scope, self.rule.goals, self.output)
        return "\n".join([fn.source(), *self.functions])

    def head(self, fn: _Function, scope: Scope) -> bool:
        """Match the head against `n`; False when no node can match it."""
        try:
            self.match(fn, scope, self.rule.head, _Binding("n", "node"))
        except _NoMatch:
            fn.emit("return None")
            return False
        return True

    def match(self, fn: _Function, scope: Scope, pattern: Term, bound: _Binding) -> None:
        """Match `pattern` in place against the value `bound` holds."""
        gathered = _Pattern(self.src, scope)
        gathered.meet(pattern, bound)
        fn.emit(*gathered.lines(fn.fail()))
        scope.update(gathered.bound)

    def goals(self, fn: _Function, scope: Scope, goals: tuple, end: Callable) -> None:
        """Solve `goals` in place, and call `end` at each solution."""
        for i, goal in enumerate(goals):
            try:
                if isinstance(goal, Unify):
                    self.unify(fn, scope, goal.lhs, goal.rhs)
                elif isinstance(goal, ApplyTemplates):
                    self.template(fn, goal, scope)
                elif isinstance(goal, Not):  # its bindings, and what its tests learn, stay in its function
                    inner = {name: _Binding(b.local, b.kind, b.leaf) if type(b) is _Binding else b
                             for name, b in scope.items()}
                    call = self.function(inner, False, (goal.inner,), lambda f, _: f.emit("return True"))
                    fn.emit(f"if {call}:", f"    {fn.fail()}")
                elif goal.path.start not in scope:
                    unbound = f"transform path start {goal.path.start or '(implicit)'} is unbound"
                    return fn.emit(f"raise InstantiationError({unbound!r})")
                elif fn.loops + _MAX_NODE_STEPS + 1 > _MAX_LOOPS:  # the rest runs in a function of its own
                    call = self.function(scope, True, goals[i:], end)
                    lines = (f"if {call}:", "    found = True") if fn.searching else (f"return {call}",)
                    return fn.emit(*lines)
                else:
                    self.transform(fn, goal, scope)
            except _NoMatch as stop:  # no value can take a part of the goal, or its node can only raise
                return fn.emit(*stop.args or (fn.fail(),))
        end(fn, scope)

    def output(self, fn: _Function, scope: Scope) -> None:
        """Build the output at a solution."""
        built = _Output(self.src, scope, "_unbuilt(RULE.output, {}, RULE.label)")
        fn.emit(*built.lines(self.rule.output))
        if built.end is None:
            fn.emit("found = True" if fn.collect and fn.searching else "return True")

    def function(self, scope: Scope, collect: bool, goals: tuple, end: Callable) -> str:
        """Compile `goals` into a function of their own; the call that runs it."""
        name = self.src.local()
        params = ["rs", "R", "out", *dict.fromkeys(b.local for b in scope.values() if type(b) is _Binding)]
        fn = _Function(name, params, collect and not self.first)
        self.goals(fn, scope, goals, end)
        self.functions.append(fn.source())
        return f"{name}({', '.join(params)})"

    def unify(self, fn: _Function, scope: Scope, lhs: Term, rhs: Term) -> None:
        """Solve lhs = rhs as `_unify` does, in place."""
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if type(bound := _walk(side, scope)) is _Binding:  # the other side is a pattern for its value
                return self.match(fn, scope, other, bound)
        a, b = _walk(lhs, scope), _walk(rhs, scope)
        if type(a) is Anonymous or type(b) is Anonymous or a == b:
            return
        for var, other in ((a, b), (b, a)):
            if type(var) is Var:
                if _occurs(var.name, other, scope):
                    raise _NoMatch
                return self.assign(fn, scope, var.name, other)
        a, b = _term(a), _term(b)
        if type(a) is type(b) is Compound and (a.functor, len(a.args)) == (b.functor, len(b.args)):
            pairs = zip(a.args, b.args)
        elif type(a) is type(b) is Seq and len(a.items) == len(b.items):
            pairs = zip(a.items, b.items)
        else:
            raise _NoMatch  # two scalars that differ, or terms of another class, functor or length
        for x, y in pairs:
            self.unify(fn, scope, x, y)

    def assign(self, fn: _Function, scope: Scope, name: str, term: Term) -> None:
        """Bind the fresh variable `name` to `term`: a scalar literal, or a
        node that `_Output` builds with no run-time check; else `name`
        stands for `term`."""
        if type(term) in (Atom, Str, Int):
            bound = _Binding(repr(term.value if type(term) is Int else term.text), type(term).__name__)
        else:
            output = _Output(self.src, scope)
            bound = output.node(_resolve(term, scope))
            if output.checked or output.guarded:  # unification checks no attribute names
                scope[name] = term
                return
            fn.emit(*output.body)
        scope[name] = self.held(fn, bound)

    def held(self, fn: _Function, bound: _Binding) -> _Binding:
        """`bound`, its value put in a local of its own unless its expression is a name."""
        if bound.local.isidentifier():
            return bound
        local = self.src.local()
        fn.emit(f"{local} = {bound.local}")
        return _Binding(local, bound.kind)

    def node_of(self, fn: _Function, scope: Scope, term: Term, what: str) -> _Binding:
        """The binding of the node a goal starts from: a bound node, or a
        node built as an output is, where `_bound_node` raises if it cannot
        be built."""
        if type(known := _walk(term, scope)) is _Binding and known.reads("node"):
            return known
        built = _Output(self.src, scope, f"_bound_node({{}}, {self.src.const(term)}, {what!r})")
        node = built.node(_resolve(term, scope))
        if built.end is not None:  # it can only raise: the call alone, as the term layer reads the whole term
            raise _NoMatch(built.body[built.end - 1])
        fn.emit(*built.body)
        return self.held(fn, node)

    def transform(self, fn: _Function, goal: Transform, scope: Scope) -> None:
        what = f"transform path start {goal.path.start}"
        start = self.node_of(fn, scope, Var(goal.path.start), what)
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
                a = self.src.local()
                fn.emit(f"for {a} in {x}.attributes:", f"    if {a}.name == {step.name!r}:", "        break")
                fn.emit("else:", f"    {fn.fail()}")
                found = _Binding(f"{a}.value", "Str")
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
                found = _Binding(self.src.local(), "Str" if element else "coerced")
                fn.loop(f"for {found.local} in {'_coerced_text' if element else '_values'}({x}):")
        return found

    def template(self, fn: _Function, goal: ApplyTemplates, scope: Scope) -> None:
        node = self.node_of(fn, scope, goal.node, "template goal node")
        hedge = self.src.local()
        fn.emit(f"{hedge} = []", f"_emit(rs, {node.local}, R, {hedge})")
        self.match(fn, scope, goal.result, _Binding(hedge, "hedge"))


def _compile(rule: Rule, first: bool, coerce: bool) -> Compiled:
    generated = _Rule(rule, first, coerce)
    source = generated.source()
    exec(compile(source, f"<ltlx {rule.label}>", "exec"), generated.src.namespace)
    return rule, generated.src.namespace["run"]
