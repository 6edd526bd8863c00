r"""Rule files: the clause and term parser, and load-time checks.

Grammar (UTF-8, '.'-terminated clauses), over the tokens of
`syntax.tokenize`; `syntax` also parses the pathexpr of a transform goal:

    clause   := "template(" term "," "[" term-list "]" ")"
                    ( ":-" goal ("," goal)* )? "."
              | atom "(" scalar-list ")" "."                  (fact)
    goal     := term "=" term
              | "transform(" pathexpr "," term ")"
              | "template(" term "," term ")"
              | "not(" goal ")"
    term     := VAR | "_" | atom | INT | STRING
              | atom "(" term-list ")" | "[" term-list "]"
    term-list := ( item ("," item)* )?
    item     := term ( "=" term )?                    (name=value)

Fact clauses use any functor other than `template` and carry only scalar
arguments; they feed the relational algebra.
"""

from __future__ import annotations

from typing import Union

from .errors import FIRST_ONLY, RuleLoadError
# _Token is imported for the callers that name it here.
from .syntax import _Cursor, _Token, _expect_end, _fail, _int, _parse_path, tokenize
from .terms import Anonymous, Atom, Compound, Int, Seq, Str, Term, Var, anon, subterms, variables_of
from .values import Value


# --- clause model -----------------------------------------------------------


class Unify(Value):
    __slots__ = ("lhs", "rhs")

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


class Transform(Value):
    __slots__ = ("path", "result")

    def __repr__(self) -> str:
        return f"transform({self.path!r},{self.result!r})"


class ApplyTemplates(Value):
    __slots__ = ("node", "result")

    def __repr__(self) -> str:
        return f"template({self.node!r},{self.result!r})"


class Not(Value):
    __slots__ = ("inner",)

    def __repr__(self) -> str:
        return f"not({self.inner!r})"


Goal = Union[Unify, Transform, ApplyTemplates, Not]


class Rule(Value):
    __slots__ = ("head", "output", "goals", "line")

    def __init__(
        self, head: Term, output: tuple[Term, ...], goals: tuple[Goal, ...] = (), line: int = 0
    ) -> None:
        super().__init__(head, output, goals, line)

    @property
    def label(self) -> str:
        return f"rule at line {self.line}"


class Fact(Value):
    __slots__ = ("name", "values", "line")

    def __init__(self, name: str, values: tuple[Term, ...], line: int = 0) -> None:
        super().__init__(name, values, line)


class RuleSet(Value):
    """Rules in source order plus execution options.

    Matching tries rules in order; `solution_mode` picks between
    committing to the first goal solution and enumerating all of them.
    The rules are compiled for these options on the first transform (see
    `engine.apply_templates`); a copy made by `with_options` compiles its
    own.
    """

    __slots__ = ("rules", "facts", "solution_mode", "coerce_text", "default_copy_text", "_compiled")

    def __init__(
        self,
        rules: tuple[Rule, ...] = (),
        facts: tuple[Fact, ...] = (),
        solution_mode: str = FIRST_ONLY,
        coerce_text: bool = True,
        default_copy_text: bool = False,
    ) -> None:
        # _compiled holds the compiled index once the first transform has made it.
        super().__init__(rules, facts, solution_mode, coerce_text, default_copy_text, [])

    def with_options(self, **options) -> "RuleSet":
        fields = {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}
        return RuleSet(**{**fields, **options})


# --- parser -----------------------------------------------------------------

# Terms, and not(...) goals with the terms inside them, nested deeper
# than this are a ParseError at the bracket or parenthesis that opens
# one level too many.  At 100 levels the parser's own recursion and
# every later recursive walk of a term (repr at about five frames a
# level, matching, term_to_node) stay well inside Python's default
# recursion limit of 1000.  `variables_of`, `is_ground`, the load checks
# and the census walk a term through `terms.subterms`, with no recursion.
MAX_TERM_DEPTH = 100


def _open(cur: _Cursor, depth: int) -> None:
    """Consume the bracket or parenthesis that opens nesting level depth + 1."""
    tok = cur.next()
    if depth >= MAX_TERM_DEPTH:
        raise _fail(tok.line, tok.col, f"nested deeper than {MAX_TERM_DEPTH} levels")


def _parse_term(cur: _Cursor, depth: int = 0) -> Term:
    tok = cur.peek()
    if tok.kind == "var":
        cur.next()
        return Var(tok.value)
    if tok.kind == "punct" and tok.value == "_":
        cur.next()
        return anon()
    if tok.kind == "int":
        cur.next()
        return Int(_int(tok))
    if tok.kind == "string":
        cur.next()
        return Str(tok.value)
    if tok.kind == "punct" and tok.value == "[":
        _open(cur, depth)
        items = _parse_term_list(cur, "]", depth + 1)
        cur.expect("punct", "]")
        return Seq(tuple(items))
    if tok.kind == "atom":
        cur.next()
        if cur.at("punct", "("):
            _open(cur, depth)
            args = _parse_term_list(cur, ")", depth + 1)
            cur.expect("punct", ")")
            return Compound(tok.value, tuple(args))
        return Atom(tok.value)
    raise _fail(tok.line, tok.col, f"expected a term, got {tok.value or tok.kind!r}")


def _parse_term_list(cur: _Cursor, closer: str, depth: int = 0) -> list[Term]:
    items: list[Term] = []
    if cur.at("punct", closer):
        return items
    while True:
        item = _parse_term(cur, depth)
        if cur.at("punct", "="):  # name=value, as in an attribute list
            cur.next()
            item = Compound("=", (item, _parse_term(cur, depth)))
        items.append(item)
        if not cur.at("punct", ","):
            return items
        cur.next()


def _parse_goal(cur: _Cursor, depth: int = 0) -> Goal:
    tok = cur.peek()
    if tok.kind == "atom" and tok.value == "not" and cur.peek(1).value == "(":
        cur.next()
        _open(cur, depth)
        inner = _parse_goal(cur, depth + 1)
        cur.expect("punct", ")")
        return Not(inner)
    if tok.kind == "atom" and tok.value == "transform" and cur.peek(1).value == "(":
        cur.next()
        cur.next()
        path = _parse_path(cur, cur.expect("var").value)
        cur.expect("punct", ",")
        result = _parse_term(cur, depth)
        cur.expect("punct", ")")
        return Transform(path, result)
    if tok.kind == "atom" and tok.value == "template" and cur.peek(1).value == "(":
        cur.next()
        cur.next()
        node = _parse_term(cur, depth)
        cur.expect("punct", ",")
        result = _parse_term(cur, depth)
        cur.expect("punct", ")")
        return ApplyTemplates(node, result)
    lhs = _parse_term(cur, depth)
    cur.expect("punct", "=")
    rhs = _parse_term(cur, depth)
    return Unify(lhs, rhs)


def _check_bindings(rule: Rule, goals: tuple[Goal, ...], bound: set[str]) -> set[str]:
    """Range restriction, left to right: every transform start and every
    variable of a template/2 node must be bound by the head or an earlier
    goal.  Returns `bound` extended by `goals`; bindings made inside
    not(...) do not count."""
    for goal in goals:
        if isinstance(goal, Not):
            _check_bindings(rule, (goal.inner,), set(bound))
        elif isinstance(goal, Unify):
            bound |= variables_of(goal.lhs) | variables_of(goal.rhs)
        else:
            if isinstance(goal, Transform):
                what, needed = "transform path start", {goal.path.start}
            else:
                what, needed = "template goal node variable", variables_of(goal.node)
            for var in sorted(needed - bound):
                raise RuleLoadError(
                    f"{rule.label}: {what} {var} is not bound by the head or an earlier goal"
                )
            bound |= variables_of(goal.result)
    return bound


def _check_output(rule: Rule) -> None:
    """An output may not write the wildcard, which nothing binds, and an
    output element may not write one attribute name twice."""
    for term in subterms(Seq(rule.output)):  # the output's terms, in order
        if isinstance(term, Anonymous):
            raise RuleLoadError(f"{rule.label}: output wildcard _ is never bound")
        if (isinstance(term, Compound) and term.functor == "element" and len(term.args) == 3
                and isinstance(term.args[1], Seq)):
            names = [
                item.args[0].text
                for item in term.args[1].items
                if isinstance(item, Compound) and item.functor == "=" and len(item.args) == 2
                and isinstance(item.args[0], Atom)
            ]
            for name in [n for i, n in enumerate(names) if n in names[:i]][:1]:
                raise RuleLoadError(
                    f"{rule.label}: output element {term.args[0]!r} writes attribute {name} twice"
                )


def _parse_clause(cur: _Cursor, rules: list[Rule], facts: list[Fact]) -> None:
    name_tok = cur.expect("atom")
    if name_tok.value == "template":
        cur.expect("punct", "(")
        head = _parse_term(cur)
        cur.expect("punct", ",")
        cur.expect("punct", "[")
        output = tuple(_parse_term_list(cur, "]"))
        cur.expect("punct", "]")
        cur.expect("punct", ")")
        goals: tuple[Goal, ...] = ()
        if cur.at("punct", ":-"):
            cur.next()
            collected = [_parse_goal(cur)]
            while cur.at("punct", ","):
                cur.next()
                collected.append(_parse_goal(cur))
            goals = tuple(collected)
        cur.expect("punct", ".")
        rule = Rule(head, output, goals, name_tok.line)
        bindable = _check_bindings(rule, goals, variables_of(head))
        for term in output:
            for var in sorted(variables_of(term) - bindable):
                raise RuleLoadError(
                    f"{rule.label}: output variable {var} is never bound"
                )
        _check_output(rule)
        rules.append(rule)
        return
    cur.expect("punct", "(")
    values = _parse_term_list(cur, ")")
    for term in values:
        if not isinstance(term, (Atom, Int, Str)):
            raise _fail(name_tok.line, name_tok.col, f"fact arguments must be scalars: {term!r}")
    cur.expect("punct", ")")
    cur.expect("punct", ".")
    facts.append(Fact(name_tok.value, tuple(values), name_tok.line))


def parse_rules(source_text: str) -> RuleSet:
    """Parse rule-file text into a RuleSet, in source order.

    Raises ParseError with a 1-based position on syntax errors, and
    RuleLoadError when an output variable can never be bound, when an
    output writes the wildcard `_`, when a transform start or template/2
    node variable is not bound by the rule's head or an earlier goal, or
    when an output element writes one attribute name twice.
    """
    cur = _Cursor(tokenize(source_text))
    rules: list[Rule] = []
    facts: list[Fact] = []
    while not cur.at("eof"):
        _parse_clause(cur, rules, facts)
    return RuleSet(tuple(rules), tuple(facts))


def parse_term_text(text: str) -> Term:
    """Parse a single term, requiring it to span the whole input."""
    cur = _Cursor(tokenize(text))
    term = _parse_term(cur)
    _expect_end(cur)
    return term
