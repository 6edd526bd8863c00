r"""Rule files: tokenizer, term/path/clause parser, and load-time checks.

Grammar (UTF-8, '.'-terminated clauses):

    clause   := "template(" term "," "[" term-list "]" ")"
                    ( ":-" goal ("," goal)* )? "."
              | atom "(" scalar-list ")" "."                  (fact)
    goal     := term "=" term
              | "transform(" pathexpr "," term ")"
              | "template(" term "," term ")"
              | "not(" goal ")"
    pathexpr := VAR step+
    step     := "/" name | "//" (name | "*") | "@" name | "#" | "#" INT
              | "?" | "child" | "descendant" | "last" | "count" | "lvl"
              | "id" "(" scalar ")"
    term     := VAR | "_" | atom | INT | STRING
              | atom "(" term-list ")" | "[" term-list "]"
    term-list := ( item ("," item)* )?
    item     := term ( "=" term )?                    (name=value)

Lexical rules (the table `_TOKEN`):

    VAR      := an uppercase letter, then letters, digits or underscores
    atom     := any other letter, then letters, digits or underscores
    INT      := a run of decimal digits, of any script ("٣" is 3); "#" INT
                counts from 1
    STRING   := '"' chars '"', where \n is a newline, \t a tab, and a
                backslash before any other character (\" and \\ among
                them) stands for that character; a raw newline ends the
                string as unterminated

Spaces, tabs and carriage returns separate tokens, and "%" starts a
comment that runs to the end of the line.  An identifier starts with a
letter, so "²" (a digit, but not a decimal one) starts no token.

A "/" in front of a non-name step ("//p#1/#") is a cosmetic separator.
Fact clauses use any functor other than `template` and carry only scalar
arguments; they feed the relational algebra.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import ParseDiagnostic, ParseError, RuleLoadError
from .nodes import Element, Node
from .queryops import (
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    DescendantOrSelfNamed,
    FIRST_ONLY,
    Index,
    PathExpr,
    Step,
)
from .terms import Atom, Compound, Int, Seq, Str, Term, Var, anon, variables_of
from .values import Value, slot_setters

# Steps written as their bare symbol, such as "?" or "child".
_BARE_STEPS = {cls.symbol: cls for cls in Step.__subclasses__() if not cls.__slots__}


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
    The rules are compiled on the first transform (see `rules_for`).
    """

    __slots__ = ("rules", "facts", "solution_mode", "coerce_text", "default_copy_text", "_compiled")

    def __init__(
        self,
        rules: tuple[Rule, ...] = (),
        facts: tuple[Fact, ...] = (),
        solution_mode: str = FIRST_ONLY,
        coerce_text: bool = True,
        default_copy_text: bool = False,
        _compiled: list | None = None,
    ) -> None:
        # _compiled is [(rules, compiled index)], filled by rules_for on first
        # use; with_options copies share the list, and so the compiled code.
        compiled = [] if _compiled is None else _compiled
        super().__init__(rules, facts, solution_mode, coerce_text, default_copy_text, compiled)

    def with_options(self, **options) -> "RuleSet":
        fields = {name: getattr(self, name) for name in self.__slots__}
        return RuleSet(**{**fields, **options})

    def rules_for(self, node: Node) -> tuple:
        """The compiled rules whose heads can match `node`, in source order,
        as (rule, head matcher, output builder) triples."""
        rules, index = self._compiled[0] if self._compiled else (None, None)
        if rules is not self.rules:
            from .compiler import index_rules  # loaded by the first transform only

            index = index_rules(self.rules)
            self._compiled[:] = [(self.rules, index)]
        if type(node) is Element:
            return index.get(node.name) or index[Element]
        return index.get(type(node)) or index[None]


# --- tokenizer --------------------------------------------------------------

_TOKEN = re.compile(
    r"""
      (?P<word>[^\W\d_]\w*)
    | (?P<punct>:- | // | [()\[\],.=@#?*/] | _(?!\w))
    | (?P<skip>[ \t\r]+ | %[^\n]*)
    | (?P<newline>\n)
    | (?P<string>"(?: [^"\\\n] | \\[\s\S] )*")
    | (?P<int>\d+)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")
_UNESCAPE = {"n": "\n", "t": "\t"}

# Why a character starts no token, keyed on that character.
_ERRORS = {
    ":": "expected ':-'",
    "_": "named wildcards are not supported; use '_'",
    '"': "unterminated string",
}


class _Token(Value):
    __slots__ = ("kind", "value", "line", "col")  # kind: atom var int string punct eof

    def __init__(self, kind: str, value: str, line: int, col: int) -> None:
        # One per token: set directly, not through Value's generic __init__.
        _set_kind(self, kind)
        _set_value(self, value)
        _set_line(self, line)
        _set_col(self, col)


_set_kind, _set_value, _set_line, _set_col = slot_setters(_Token)


def _fail(line: int, col: int, message: str) -> ParseError:
    return ParseError(ParseDiagnostic(line=line, column=col, message=message))


def tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind, text = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "word" and text[0].isalpha():
            tokens.append(_Token("var" if text[0].isupper() else "atom", text, line, col))
        elif kind in ("word", "bad"):  # a word may start with a digit such as "²"
            raise _fail(line, col, _ERRORS.get(text[0], f"unexpected character {text[0]!r}"))
        elif kind == "string":
            value = _ESCAPE.sub(lambda m: _UNESCAPE.get(m[1], m[1]), text[1:-1])
            tokens.append(_Token(kind, value, line, col))
            if "\n" in text:  # an escaped newline
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
        else:
            tokens.append(_Token(kind, text, line, col))
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise _fail(tok.line, tok.col, f"expected {want!r}, got {tok.value or tok.kind!r}")
        return self.next()

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)


# --- parser -----------------------------------------------------------------


# Terms, and not(...) goals with the terms inside them, nested deeper
# than this are a ParseError at the bracket or parenthesis that opens
# one level too many.  At 100 levels the parser's own recursion and
# every later recursive walk of a term (variables_of, the census, repr
# at about five frames a level, matching, term_to_node) stay well inside
# Python's default recursion limit of 1000.
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


def _int(tok: _Token) -> int:
    try:
        return int(tok.value)
    except ValueError:  # more digits than int() converts
        raise _fail(tok.line, tok.col, "integer has too many digits") from None


def _scalar_text(term: Term, tok: _Token) -> str:
    if isinstance(term, Atom) or isinstance(term, Str):
        return term.text
    if isinstance(term, Int):
        return str(term.value)
    raise _fail(tok.line, tok.col, "expected an atom, number, or string")


def _parse_path(cur: _Cursor, start: str | None) -> PathExpr:
    """The steps after `start`, as a PathExpr that needs at least one step.

    A ValueError from Index or PathExpr becomes a ParseError at the token
    of the step that caused it.
    """
    steps: list[Step] = []
    while True:
        if cur.at("punct", "/") and cur.peek(1).kind != "atom":
            cur.next()  # separator before a symbolic step, as in //p#1/#
        tok = cur.peek()
        word = tok.value if tok.kind in ("punct", "atom") else None
        try:
            if word == "/":
                cur.next()
                steps.append(ChildNamed(cur.next().value))
            elif word == "//":
                cur.next()
                if cur.at("punct", "*"):
                    cur.next()
                    steps.append(DescendantOrSelfNamed(None))
                else:
                    steps.append(DescendantOrSelfNamed(cur.expect("atom").value))
            elif word == "@":
                cur.next()
                steps.append(AttrValue(cur.expect("atom").value))
            elif word == "#" and cur.peek(1).kind == "int":
                cur.next()
                steps.append(Index(_int(cur.next())))
            elif word == "id":
                cur.next()
                cur.expect("punct", "(")
                value_tok = cur.peek()
                steps.append(AttrNameByValue(_scalar_text(_parse_term(cur), value_tok)))
                cur.expect("punct", ")")
            elif word in _BARE_STEPS:
                cur.next()
                steps.append(_BARE_STEPS[word]())
            else:
                return PathExpr(start, tuple(steps))
            PathExpr(start, tuple(steps[-2:]))  # checks the new step against the one before
        except ValueError as exc:
            raise _fail(tok.line, tok.col, str(exc)) from None


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


def _check_output_attributes(rule: Rule) -> None:
    """An output element may not write one attribute name twice."""
    stack = list(reversed(rule.output))
    while stack:
        term = stack.pop()
        if isinstance(term, Compound):
            if term.functor == "element" and len(term.args) == 3 and isinstance(term.args[1], Seq):
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
            stack.extend(reversed(term.args))
        elif isinstance(term, Seq):
            stack.extend(reversed(term.items))


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
        _check_output_attributes(rule)
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
    RuleLoadError when an output variable can never be bound, when a
    transform start or template/2 node variable is not bound by the
    rule's head or an earlier goal, or when an output element writes one
    attribute name twice.
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


def parse_path_text(text: str) -> PathExpr:
    """Parse a path expression; the leading variable is optional (CLI form)."""
    cur = _Cursor(tokenize(text))
    path = _parse_path(cur, cur.next().value if cur.at("var") else None)
    _expect_end(cur)
    return path


def _expect_end(cur: _Cursor) -> None:
    tok = cur.peek()
    if tok.kind != "eof":
        raise _fail(tok.line, tok.col, f"unexpected trailing {tok.value!r}")
