"""Rules compiled to Python functions, once per rule set.

`RuleSet.rules_for` calls `index_rules` on a rule set's first transform,
which compiles each rule and indexes the results; `with_options` copies
share them, and a rule's function reads the solution mode and text
coercion from the rule set it is called with.

Each rule becomes one function, `run(n, rs, R, out)`.  It matches the
head against node `n`, solves the goals left to right and, for each
solution, appends the output hedge to `out`; it returns a true value
exactly when the rule fired.  `R` is the document root the lvl step
reads index paths against.

- Variables live in Python locals.  A local holds what the binding dict
  of a Prolog environment would hold under that name, or None while the
  variable is free; a binding may be a term whose variables are bound in
  turn (triangular bindings).  A variable bound at a known position holds
  the raw value there instead of a term (see `_TERMS`): a name or string
  as a `str`, an attribute list or hedge as the tuple or list it came
  from, a `text(V)` content as the Text node itself.  The term is built
  only where a goal is handed to `_unify`, `_match` or `term_to_node`,
  in the binding dict made for it; what they bind is read back.
- A pattern that meets a ground value (the head, a template/2 result, or
  the term an `=` goal compares with a variable bound to a node) is
  matched in place.  Level by level, it first tests what can be read off
  the value without binding anything: node types, element names,
  attribute and child counts, literal names and strings.  Then it binds
  the new variables.  A repeated variable is compared by `_match`.  A
  head with a part that is not specialised here matches no node (see
  `_Pattern`); another pattern with such a part, or with a variable
  whose binding may hold free variables, goes to `_match` or `_unify`.
- An `=` goal that binds a fresh variable to a term is an assignment,
  and one that compares a ground binding with a term that binds nothing
  is a test, of the raw string where the binding holds one; any other
  goes to `_unify`.
- A transform goal whose path is at most three `/name` or `child` steps,
  then maybe `@name` or `#`, is inlined: a loop per step over
  `children`, a scan of `attributes`, a loop over text children.  The
  loops keep `eval_path`'s order, find nothing under a leaf, stand an
  element result for its text children under coercion (`_values`), and
  break after the first value in first-solution mode.  Any other path
  loops over `_path_values`, which runs `eval_path`.
- A template/2 goal is one call back into `engine._emit`.
- not(g) is a function of its own that says whether g has a solution;
  so is the rest of a body nested too deep in transform loops.
- The output is built by direct `Element` and leaf calls that share the
  bound values: a bound subtree, attribute tuple or hedge is passed as
  it is, and `text(V)` is V's Text node when V holds one.  A binding of
  unknown kind is type-checked first.  When a check fails, a binding is
  of another kind than its position reads, or the output has a part the
  builder does not specialise, `term_to_node` builds the whole hedge
  instead and raises its errors.

Errors keep the types and messages of the helpers they come from.  The
index maps an element name or a leaf type to the rules whose head can
match such a node, in source order.  A rule whose head is a variable, or
an element with a variable name, is in every bucket it can match.

Rule text reaches the generated source only as `repr()` literals and as
constants in the function's namespace; every name in the source is the
compiler's own.  A rule's functions carry its line as their file name,
as in `<ltlx rule at line 3>`, so tracebacks and profiles name the rule.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from .engine import _emit
from .errors import InstantiationError, ShapeError, TypeMismatchError, UnboundOutputError
from .nodes import Attribute, Comment, Element, Hedge, Node, PI, Text, unique_attributes
from .queryops import (
    ALL_SOLUTIONS,
    FIRST_ONLY,
    AttrValue,
    ChildNamed,
    Children,
    PathExpr,
    Result,
    TextValue,
    eval_path,
)
from .rules import ApplyTemplates, Goal, Not, Rule, Transform, Unify
from .terms import (
    _LEAF_FUNCTORS,
    Anonymous,
    Atom,
    Compound,
    Int,
    Seq,
    Str,
    Term,
    Var,
    _match,
    _resolve,
    _unify,
    _walk,
    is_ground,
    term_to_node,
    variables_of,
)

Compiled = tuple[Rule, Callable]  # (rule, run)

_NODE_TYPES = frozenset((Element, Text, PI, Comment))

# The steps an inlined path chains, at most _MAX_NODE_STEPS of them,
# before an optional @name or # step.  So a transform goal opens at most
# _MAX_NODE_STEPS + 1 loops, and one that might nest more than _MAX_LOOPS
# continues in a function of its own.  CPython allows 20 nested blocks.
_NODE_STEPS = (ChildNamed, Children)
_MAX_NODE_STEPS = 3
_MAX_LOOPS = 16

# What a local holds, by the kind of its variable's binding: the
# expression of the term it stands for.  Kind None is a term of any kind.
# Kinds missing here ("node", "attr" and None) hold the term itself.
_TERMS = {
    "Atom": "Atom({})",  # the name
    "Str": "Str({})",  # the string
    "Text": "Str({}.content)",  # the leaf that holds the string
    "PI": "Str({}.content)",
    "Comment": "Str({}.content)",
    "attrs": "Seq({})",  # an element's attribute tuple
    "hedge": "Seq({})",  # a tuple or list of nodes
}

# How a binding of a known kind is read where a position needs a value
# of kind `need`, keyed (kind, need); and how a term of unknown kind is
# read there, with the test that finds it unfit, keyed by need.
_READS = {
    **{(kind, kind): "{}" for kind in ("node", "attr", "Atom", "Str", "attrs", "hedge")},
    **{(leaf, "Str"): "{}.content" for leaf in ("Text", "PI", "Comment")},
}
_UNFIT = {
    "node": ("{}", "type({}) not in NODES"),
    "Atom": ("{}.text", "type({}) is not Atom"),
    "Str": ("{}.text", "type({}) is not Str"),
    "attr": ("{}", "type({}) is not Attribute"),
    "attrs": ("{}.items", "not _all({}, ATTRIBUTES)"),
    "hedge": ("{}.items", "not _all({}, NODES)"),
}


def _term(kind: str | None, local: str) -> str:
    """The expression of the term that `local`, of this kind, stands for."""
    return _TERMS.get(kind, "{}").format(local)


def _all(seq: object, types: frozenset) -> bool:
    return type(seq) is Seq and all(type(item) in types for item in seq.items)


def _interpret(output: tuple[Term, ...], theta: dict[str, Term], label: str) -> Hedge:
    try:
        return tuple([term_to_node(template, theta) for template in output])
    except UnboundOutputError as exc:
        raise UnboundOutputError(exc.variable, label) from None


def _bound_node(theta: dict[str, Term], term: Term, what: str) -> Node:
    """The node that `term` denotes under `theta`, for a transform start or
    a template/2 node that is not bound to a node outright."""
    term = _walk(term, theta)
    if isinstance(term, (Element, Text, PI, Comment)):
        return term
    grounded = _resolve(term, theta)
    if not is_ground(grounded):
        raise InstantiationError(f"{what} is not fully bound: {grounded!r}")
    try:
        return term_to_node(grounded)
    except ShapeError:
        raise TypeMismatchError(f"{what} is not a node: {grounded!r}") from None


def _values(result: Result, coerce: bool) -> tuple[Term, ...] | list[Term]:
    """The terms one path result offers a transform goal, one per solution:
    an element stands for its direct text children when coercion is on."""
    kind = type(result)
    if kind is Element:
        return [Str(c.content) for c in result.children if type(c) is Text] if coerce else (result,)
    if kind is str:
        return (Str(result),)
    if kind is int:
        return (Int(result),)
    if kind is tuple:
        return (Seq(tuple(Int(k) for k in result)),)
    return (result,)


def _path_values(node: Node, path: PathExpr, coerce: bool, root: Node, first: bool) -> Iterator[Term]:
    """The terms a transform goal whose path is not inlined offers."""
    results = eval_path(node, path, ALL_SOLUTIONS, coerce, root)
    values = (value for result in results for value in _values(result, coerce))
    return islice(values, 1) if first else values


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
    **{cls.__name__: cls for cls in (Atom, Attribute, Comment, Element, Int, PI, Seq, Str, Text)},
    **{
        f.__name__: f
        for f in (_all, _bound_node, _emit, _interpret, _match, _path_values, _unify, _values)
        + (unique_attributes,)
    },
    "InstantiationError": InstantiationError,
    "ATTRIBUTES": frozenset((Attribute,)),
    "NODES": _NODE_TYPES,
    "FIRST_ONLY": FIRST_ONLY,
}


class _Source:
    """Locals and namespace constants shared by the functions of one rule."""

    def __init__(self, rule: Rule):
        self.count = 0
        self.namespace = dict(_NAMESPACE, OUTPUT=rule.output, LABEL=rule.label)

    def local(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def const(self, value: object) -> str:
        self.count += 1
        self.namespace[f"K{self.count}"] = value
        return f"K{self.count}"


class _Binding:
    """Where a variable's binding lives while a function runs: its local;
    whether that is surely not None; whether the binding is ground (holds
    no variables); and its kind (see `_TERMS`), if known."""

    __slots__ = ("local", "sure", "ground", "kind")

    def __init__(self, local: str, sure: bool, ground: bool, kind: str | None):
        self.local, self.sure, self.ground, self.kind = local, sure, ground, kind

    def term(self) -> str:
        """The expression of the term the binding stands for."""
        return _term(self.kind, self.local)


class _Unspecialised(Exception):
    """A term holds a part that only the interpreted helpers handle."""


class _Pattern:
    """Source that matches a pattern against a ground value as `_match` does,
    binding its new variables to locals; gathered by a walk in `_match`'s
    order.  A part it raises `_Unspecialised` on, other than a variable
    bound to a non-ground term, is one that `_match` fails on: no node,
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

    def var(self, p: Var, kind: str, value: str) -> None:
        """Bind `p` to `value`, the raw value of its kind, or compare it there."""
        known = self.bound.get(p.name) or self.scope.get(p.name)
        if known is None:
            local = value
            if not value.isidentifier():
                local = self.src.local()
                self.binds.append(f"{local} = {value}")
            self.bound[p.name] = _Binding(local, True, True, kind)
        elif known.sure and known.ground:
            self.checks.append(f"_match({known.term()}, {_term(kind, value)}, {{}})")
        else:
            raise _Unspecialised

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
            if type(p.args[0]) is Var:
                self.var(p.args[0], leaf.__name__, e)  # the leaf holds the string
            else:
                self.scalar(p.args[0], f"{e}.content", Str, level)
        elif type(p) is Var:
            self.var(p, "node", value)
        elif type(p) in _NODE_TYPES:  # a node in a rule built in Python
            self.checks.append(f"{value} == {self.src.const(p)}")
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def scalar(self, p: Term, value: str, kind: type, level: int) -> None:
        if type(p) is kind:
            self.guards.append((level, 0, f"{value} == {p.text!r}"))
        elif type(p) is Var:
            self.var(p, kind.__name__, value)
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def seq(self, p: Term, value: str, item: Callable, kind: str, level: int) -> None:
        if type(p) is Seq:
            s = self.src.local()
            self.guards.append((level, 1, f"len({s} := {value}) == {len(p.items)}"))
            for i, q in enumerate(p.items):
                item(q, f"{s}[{i}]", level + 1)
        elif type(p) is Var:
            self.var(p, kind, value)
        elif type(p) is not Anonymous:
            raise _Unspecialised

    def attribute(self, p: Term, value: str, level: int) -> None:
        if type(p) is Compound and p.functor == "=" and len(p.args) == 2:
            self.scalar(p.args[0], f"{value}.name", Atom, level)
            self.scalar(p.args[1], f"{value}.value", Str, level)
        elif type(p) is Var:
            self.var(p, "attr", value)
        elif type(p) is Attribute:
            self.checks.append(f"{value} == {self.src.const(p)}")
        elif type(p) is not Anonymous:
            raise _Unspecialised


class _Output:
    """The source that builds one output hedge: statements in term_to_node's order."""

    def __init__(self, src: _Source, scope: dict[str, _Binding]):
        self.src = src
        self.scope = scope
        self.body: list[str] = []
        self.unfit: list[str] = []

    def lines(self, output: tuple[Term, ...], env: Callable[[], list[str]]) -> list[str]:
        """Statements that append the hedge to `out`; `env()` gives the
        statements that set `env` for `term_to_node`."""
        fallback = [*env(), "out += _interpret(OUTPUT, env, LABEL)"]
        try:
            nodes = [self.node(t) for t in output]
        except _Unspecialised:
            return fallback
        if len(nodes) == 1:
            built = [*self.body, f"out.append({nodes[0]})"]
        else:
            built = [*self.body, "out += (" + "".join(f"{node}, " for node in nodes) + ")"]
        if not self.unfit:
            return built
        indent = lambda lines: ["    " + line for line in lines]  # noqa: E731
        return [f"if {' or '.join(self.unfit)}:", *indent(fallback), "else:", *indent(built)]

    def load(self, name: str, need: str) -> str:
        """An expression for variable `name`'s binding, read as `need` says."""
        known = self.scope.get(name)
        if known is None:
            raise _Unspecialised  # a free variable: term_to_node reports it
        read = _READS.get((known.kind, need))
        if read is not None:
            return read.format(known.local)
        if known.kind is not None:
            raise _Unspecialised  # a binding of another kind: term_to_node takes it or reports it
        read, unfit = _UNFIT[need]
        test = unfit.format(known.local)
        if test not in self.unfit:
            self.unfit.append(test)
        return read.format(known.local)

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
            content = t.args[0]
            known = self.scope.get(content.name) if type(content) is Var else None
            if known is not None and known.kind == leaf.__name__:
                return known.local  # the bound leaf itself
            return f"{leaf.__name__}({self.scalar(content, Str)})"
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
        self.body.append(f"{e} = Element({name}, {attributes}, {kids})")
        return e

    def attributes(self, t: Term, name: str) -> str:
        """The attribute tuple, checked for a repeated name unless none can repeat."""
        if type(t) is Var:
            attributes = self.load(t.name, "attrs")
            if self.scope[t.name].kind == "attrs":
                return attributes  # one element's own attributes, which the parser kept unique
        elif type(t) is Seq:
            attributes = "(" + "".join(f"{self.attribute(a)}, " for a in t.items) + ")"
            names = {a.args[0].text for a in t.items if type(a) is Compound and type(a.args[0]) is Atom}
            if len(names) == len(t.items):
                return attributes
        else:
            raise _Unspecialised
        checked = self.src.local()
        self.body.append(f"{checked} = unique_attributes({name}, {attributes})")
        return checked

    def attribute(self, t: Term) -> str:
        if type(t) is Var:
            return self.load(t.name, "attr")
        if type(t) is Compound and t.functor == "=" and len(t.args) == 2:
            return f"Attribute({self.scalar(t.args[0], Atom)}, {self.scalar(t.args[1], Str)})"
        raise _Unspecialised


class _Function:
    """One generated function: its lines, indentation and open loops."""

    def __init__(self, name: str, params: list[str], no_solution: str):
        self.name = name
        self.lines = [f"def {name}({', '.join(params)}):"]
        self.depth = 1
        self.loops = 0
        self.no_solution = no_solution  # what the function returns when it finds none

    def emit(self, *lines: str) -> None:
        self.lines += ["    " * self.depth + line for line in lines]

    def fail(self) -> str:
        """The statement that backtracks: to the innermost loop, or out."""
        return "continue" if self.loops else f"return {self.no_solution}"

    def loop(self, header: str) -> None:
        """Open a loop; the statements emitted next run once per pass."""
        if not self.loops:
            self.emit("found = False")
        self.emit(header)
        self.depth += 1
        self.loops += 1


Scope = dict[str, _Binding]


class _Rule:
    """The generated source of one rule: `run` and the functions it calls."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.src = _Source(rule)
        self.functions: list[list[str]] = []
        self.moded = any(self.transforms(rule.goals))  # whether goals read C and FIRST

    def source(self) -> str:
        fn = _Function("run", ["n", "rs", "R", "out"], "None")
        scope: Scope = {}
        if self.head(fn, scope):
            if self.moded:
                fn.emit("C = rs.coerce_text", "FIRST = rs.solution_mode == FIRST_ONLY")
            self.goals(fn, self.rule.goals, scope, set(), self.succeed)
        self.finish(fn, "found")
        return "\n".join(line for lines in self.functions for line in lines)

    def transforms(self, goals: tuple[Goal, ...]) -> Iterator[Transform]:
        for goal in goals:
            if isinstance(goal, Not):
                yield from self.transforms((goal.inner,))
            elif isinstance(goal, Transform):
                yield goal

    def finish(self, fn: _Function, result: str) -> None:
        if fn.loops:
            fn.depth = 1
            fn.emit(f"return {result}")
        self.functions.append(fn.lines)

    # --- bindings ---

    def head(self, fn: _Function, scope: Scope) -> bool:
        """Match the head against `n`; False when no node can match it."""
        if self.match(fn, scope, self.rule.head, "n", _Pattern.node):
            return True
        fn.emit(f"return {fn.no_solution}")  # the head has a part that no node takes
        return False

    def match(self, fn: _Function, scope: Scope, pattern: Term, value: str, walk: Callable) -> bool:
        """Match `pattern` against the ground `value` in place, or say it cannot be."""
        gathered = _Pattern(self.src, scope)
        try:
            walk(gathered, pattern, value, 0)
        except _Unspecialised:
            return False
        fn.emit(*gathered.lines(fn.fail()))
        scope.update(gathered.bound)
        return True

    def env(self, scope: Scope, names: set[str]) -> list[str]:
        """Statements that set `env` to the bindings of `names`, as terms."""
        chosen = [name for name in sorted(scope) if name in names]
        sure = ", ".join(f"{name!r}: {scope[name].term()}" for name in chosen if scope[name].sure)
        lines = [f"env = {{{sure}}}"]
        for name in chosen:
            if not scope[name].sure:
                local = scope[name].local
                lines += [f"if {local} is not None:", f"    env[{name!r}] = {local}"]
        return lines

    def read_back(self, fn: _Function, scope: Scope, names: set[str]) -> None:
        """Copy what `_unify` or `_match` may have bound in `env` into locals."""
        for name in sorted(names):
            if name not in scope or not scope[name].sure:
                local = self.src.local()
                fn.emit(f"{local} = env.get({name!r})")
                scope[name] = _Binding(local, False, False, None)

    def interpreted(self, fn, scope, mentioned, call: str, pattern: Term, value: str) -> None:
        """`call` (`_match` or `_unify`) on `pattern` and `value` with a binding dict."""
        names = variables_of(pattern) | mentioned
        fn.emit(*self.env(scope, names))
        fn.emit(f"if not {call}({self.src.const(pattern)}, {value}, env):", f"    {fn.fail()}")
        self.read_back(fn, scope, names)

    # --- goals ---

    def goals(self, fn: _Function, goals: tuple[Goal, ...], scope: Scope, mentioned: set[str], succeed):
        """Solve `goals` from here, running `succeed` at each solution.

        `scope` holds the bound variables; `mentioned` the variables that
        a binding may hold, so that a variable outside both is fresh.
        """
        for i, goal in enumerate(goals):
            if isinstance(goal, Transform) and fn.loops + _MAX_NODE_STEPS + 1 > _MAX_LOOPS:
                rest = self.segment("more", scope, "None")
                self.goals(rest, goals[i:], dict(scope), set(mentioned), succeed)
                self.finish(rest, "found")
                fn.emit(f"if {self.call(rest, scope)}:", "    found = True")
                return
            if isinstance(goal, Unify):
                self.unify(fn, goal, scope, mentioned)
            elif isinstance(goal, Transform):
                if not self.transform(fn, goal, scope, mentioned):
                    return  # the goal always raises; nothing after it runs
            elif isinstance(goal, ApplyTemplates):
                self.template(fn, goal, scope, mentioned)
            else:
                inner = self.segment("not", scope, "False")
                self.goals(inner, (goal.inner,), dict(scope), set(mentioned), _found)
                self.finish(inner, "False")
                fn.emit(f"if {self.call(inner, scope)}:", f"    {fn.fail()}")
        succeed(fn, scope, mentioned)

    def succeed(self, fn: _Function, scope: Scope, mentioned: set[str]) -> None:
        roots = set().union(*map(variables_of, self.rule.output)) | mentioned
        output = _Output(self.src, scope)
        fn.emit(*output.lines(self.rule.output, lambda: self.env(scope, roots)))
        fn.emit("found = True" if fn.loops else "return True")

    def segment(self, kind: str, scope: Scope, no_solution: str) -> _Function:
        """A function for part of the body; it takes the current locals."""
        params = ["rs", "R", "C", "FIRST", "out", *_locals(scope)]
        return _Function(f"{kind}{self.src.local()}", params, no_solution)

    def call(self, fn: _Function, scope: Scope) -> str:
        moded = "C, FIRST" if self.moded else "None, None"
        locals_ = "".join(f"{local}, " for local in _locals(scope))
        return f"{fn.name}(rs, R, {moded}, out, {locals_})"

    def unify(self, fn: _Function, goal: Unify, scope: Scope, mentioned: set[str]) -> None:
        for var, other in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
            if type(var) is Var and var.name not in variables_of(other):
                if self.unify_var(fn, var, other, scope, mentioned):
                    return
        own = variables_of(goal.lhs) | variables_of(goal.rhs)
        fn.emit(*self.env(scope, own | mentioned))
        lhs, rhs = self.src.const(goal.lhs), self.src.const(goal.rhs)
        fn.emit(f"if not _unify({lhs}, {rhs}, env):", f"    {fn.fail()}")
        self.read_back(fn, scope, own | mentioned)
        mentioned |= own

    def unify_var(self, fn, var: Var, other: Term, scope: Scope, mentioned: set[str]) -> bool:
        """Unify `var` with `other`, which does not hold it, in place if that can be."""
        known = scope.get(var.name)
        if known is None:
            if var.name in mentioned or type(other) in (Var, Anonymous):
                return False
            # A fresh variable, which no binding holds, takes the term as it is.
            local = self.src.local()
            fn.emit(f"{local} = {self.src.const(other)}")
            scope[var.name] = _Binding(local, True, not variables_of(other), None)
            mentioned |= variables_of(other)
            return True
        if not (known.sure and known.ground):
            return False
        if not variables_of(other):  # a test: nothing can be bound
            fn.emit(f"if not {self.test(known, other)}:", f"    {fn.fail()}")
            return True
        # A node meets the term as its pattern.
        return known.kind == "node" and self.match(fn, scope, other, known.local, _Pattern.node)

    def test(self, known: _Binding, term: Term) -> str:
        """Whether the ground binding `known` unifies with `term`, which has no variables."""
        if type(term) in (Atom, Str):
            read = _READS.get((known.kind, type(term).__name__))
            if read is not None:
                return f"{read.format(known.local)} == {term.text!r}"
        return f"_unify({known.term()}, {self.src.const(term)}, {{}})"

    def node_of(self, fn: _Function, term: Term, scope: Scope, mentioned: set[str], what: str) -> str:
        """A local holding the node `term` denotes, for a goal that needs one."""
        known = scope.get(term.name) if type(term) is Var else None
        if known is not None and known.kind == "node":
            return known.local
        node = self.src.local()
        resolve = self.env(scope, variables_of(term) | mentioned)
        resolve.append(f"{node} = _bound_node(env, {self.src.const(term)}, {what!r})")
        if known is not None and known.kind is None:  # a term that may be a node already
            fn.emit(f"{node} = {known.local}", f"if type({node}) not in NODES:")
            resolve = ["    " + line for line in resolve]
        fn.emit(*resolve)
        return node

    def transform(self, fn: _Function, goal: Transform, scope: Scope, mentioned: set[str]) -> bool:
        start = goal.path.start
        if start not in scope:
            message = f"transform path start {start or '(implicit)'} is unbound"
            fn.emit(f"raise InstantiationError({message!r})")
            return False
        if not scope[start].sure:
            message = f"transform path start {start} is unbound"
            fn.emit(f"if {scope[start].local} is None:")
            fn.emit(f"    raise InstantiationError({message!r})")
        node = self.node_of(fn, Var(start), scope, mentioned, f"transform path start {start}")
        if _inlined(goal.path):
            value, kind = self.path(fn, goal.path, node)
        else:
            value, kind = self.src.local(), None
            fn.loop(f"for {value} in _path_values({node}, {self.src.const(goal.path)}, C, R, FIRST):")
        result = goal.result
        if type(result) is Var and result.name not in scope:
            scope[result.name] = _Binding(value, True, True, kind)
        elif type(result) is not Anonymous:
            self.interpreted(fn, scope, mentioned, "_match", result, _term(kind, value))
        return True

    def path(self, fn: _Function, path: PathExpr, node: str) -> tuple[str, str | None]:
        """Open the loops of an inlined path from `node`: the local that holds
        each value, and its kind.  In first-solution mode a flag set at the
        first value breaks every loop of the path on its next pass."""
        first = None

        def loop(header: str) -> None:
            nonlocal first
            if first is None:
                first = self.src.local()
                fn.emit(f"{first} = False")
            fn.loop(header)
            fn.emit(f"if {first}:", "    break")

        x, element = node, False  # the node the next step applies to; whether it is surely an element
        for step in path.steps:
            if type(step) is not TextValue and not element:  # a leaf has no children or attributes
                fn.emit(f"if type({x}) is not Element:", f"    {fn.fail()}")
            if type(step) in _NODE_STEPS:
                child = self.src.local()
                loop(f"for {child} in {x}.children:")
                if type(step) is ChildNamed:
                    test = f"type({child}) is not Element or {child}.name != {step.name!r}"
                    fn.emit(f"if {test}:", "    continue")
                x, element = child, type(step) is ChildNamed
            elif type(step) is AttrValue:
                a, value, kind = self.src.local(), self.src.local(), "Str"
                fn.emit(f"for {a} in {x}.attributes:", f"    if {a}.name == {step.name!r}:", "        break")
                fn.emit("else:", f"    {fn.fail()}", f"{value} = {a}.value")
            else:  # the text step: an element's text children under coercion, or a text node itself
                value, kind = self.src.local(), "Text"
                texts = f"{x}.children if C" + ("" if element else f" and type({x}) is Element")
                loop(f"for {value} in ({texts} else ({x},)):")
                fn.emit(f"if type({value}) is not Text:", "    continue")
        if type(path.steps[-1]) in _NODE_STEPS:
            value, kind = self.src.local(), None
            loop(f"for {value} in _values({x}, C):")
        if first is not None:
            fn.emit(f"{first} = FIRST")
        return value, kind

    def template(self, fn: _Function, goal: ApplyTemplates, scope: Scope, mentioned: set[str]):
        node = self.node_of(fn, goal.node, scope, mentioned, "template goal node")
        hedge = self.src.local()
        fn.emit(f"{hedge} = []", f"_emit(rs, {node}, R, {hedge})")
        if not self.match(fn, scope, goal.result, hedge, _hedge):
            self.interpreted(fn, scope, mentioned, "_match", goal.result, f"Seq({hedge})")


def _locals(scope: Scope) -> list[str]:
    """The locals that hold the bindings in `scope`, each once (two
    variables bound to one value share its local)."""
    return list(dict.fromkeys(scope[name].local for name in sorted(scope)))


def _found(fn: _Function, scope: Scope, mentioned: set[str]) -> None:
    fn.emit("return True")


def _hedge(pattern: _Pattern, result: Term, value: str, level: int) -> None:
    """Walk a template/2 result pattern against the list `value` of output nodes."""
    pattern.seq(result, value, pattern.node, "hedge", level)


def _compile(rule: Rule) -> Compiled:
    generated = _Rule(rule)
    exec(compile(generated.source(), f"<ltlx {rule.label}>", "exec"), generated.src.namespace)
    return rule, generated.src.namespace["run"]
