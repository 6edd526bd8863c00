"""Rule files: tokenizer, term/path/clause parser, and load-time checks.

Grammar (UTF-8, '.'-terminated clauses, '%' line comments):

    clause   := "template(" term "," "[" term-list "]" ")"
                    ( ":-" goal ("," goal)* )? "."
              | atom "(" scalar-list ")" "."                  (fact)
    goal     := term "=" term
              | "transform(" pathexpr "," term ")"
              | "template(" term "," term ")"
              | "not(" goal ")"
    pathexpr := VAR step*
    step     := "/" name | "//" (name | "*") | "@" name | "#" | "#" INT
              | "?" | "child" | "descendant" | "last" | "count" | "lvl"
              | "id" "(" scalar ")"
    term     := VAR | "_" | atom | INT | STRING
              | atom "(" term-list ")" | "[" term-list "]"
    term-list := ( item ("," item)* )?
    item     := term ( "=" term )?                    (name=value)
    VAR      := uppercase letter, then letters/digits/underscores
    atom     := lowercase letter, then letters/digits/underscores

A "/" in front of a non-name step ("//p#1/#") is a cosmetic separator.
Fact clauses use any functor other than `template` and carry only scalar
arguments; they feed the relational algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .errors import ParseDiagnostic, ParseError, RuleLoadError
from .queryops import (
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    Children,
    CountChildren,
    DescendantOrSelfNamed,
    Descendants,
    FIRST_ONLY,
    Index,
    LastChild,
    Lvl,
    PathExpr,
    PIValue,
    Step,
    TextValue,
)
from .terms import Atom, Compound, Int, Seq, Str, Term, Var, anon, variables_of

_WORD_STEPS = {
    "child": Children,
    "descendant": Descendants,
    "last": LastChild,
    "count": CountChildren,
    "lvl": Lvl,
}


# --- clause model -----------------------------------------------------------


@dataclass(frozen=True)
class Unify:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


@dataclass(frozen=True)
class Transform:
    path: PathExpr
    result: Term

    def __repr__(self) -> str:
        return f"transform({self.path!r},{self.result!r})"


@dataclass(frozen=True)
class ApplyTemplates:
    node: Term
    result: Term

    def __repr__(self) -> str:
        return f"template({self.node!r},{self.result!r})"


@dataclass(frozen=True)
class Not:
    inner: "Goal"

    def __repr__(self) -> str:
        return f"not({self.inner!r})"


Goal = Union[Unify, Transform, ApplyTemplates, Not]


@dataclass(frozen=True)
class Rule:
    head: Term
    output: tuple[Term, ...]
    goals: tuple[Goal, ...] = ()
    line: int = 0

    @property
    def label(self) -> str:
        return f"rule at line {self.line}"


@dataclass(frozen=True)
class Fact:
    name: str
    values: tuple[Term, ...]
    line: int = 0


@dataclass(frozen=True)
class RuleSet:
    """Rules in source order plus execution options.

    Matching tries rules in order; `solution_mode` picks between
    committing to the first goal solution and enumerating all of them.
    """

    rules: tuple[Rule, ...] = ()
    facts: tuple[Fact, ...] = ()
    solution_mode: str = FIRST_ONLY
    coerce_text: bool = True
    default_copy_text: bool = False

    def with_options(self, **options) -> "RuleSet":
        return replace(self, **options)


# --- tokenizer --------------------------------------------------------------

_PUNCT = {"(", ")", "[", "]", ",", ".", "=", "@", "#", "?", "*"}


@dataclass(frozen=True)
class _Token:
    kind: str  # atom var int string punct eof
    value: str
    line: int
    col: int


def _fail(line: int, col: int, message: str) -> ParseError:
    return ParseError(ParseDiagnostic(line=line, column=col, message=message))


def tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == ":":
            if source[i : i + 2] != ":-":
                raise _fail(line, col, "expected ':-'")
            tokens.append(_Token("punct", ":-", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "/":
            if source[i : i + 2] == "//":
                tokens.append(_Token("punct", "//", start_line, start_col))
                i += 2
                col += 2
            else:
                tokens.append(_Token("punct", "/", start_line, start_col))
                i += 1
                col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "_":
            if i + 1 < n and (source[i + 1].isalnum() or source[i + 1] == "_"):
                raise _fail(line, col, "named wildcards are not supported; use '_'")
            tokens.append(_Token("punct", "_", start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            chars: list[str] = []
            while True:
                if i >= n or source[i] == "\n":
                    raise _fail(start_line, start_col, "unterminated string")
                c = source[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise _fail(start_line, start_col, "unterminated string")
                    esc = source[i + 1]
                    chars.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    i += 2
                    col += 2
                    continue
                chars.append(c)
                i += 1
                col += 1
            tokens.append(_Token("string", "".join(chars), start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "var" if word[0].isupper() else "atom"
            tokens.append(_Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise _fail(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
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


def _parse_term(cur: _Cursor) -> Term:
    tok = cur.peek()
    if tok.kind == "var":
        cur.next()
        return Var(tok.value)
    if tok.kind == "punct" and tok.value == "_":
        cur.next()
        return anon()
    if tok.kind == "int":
        cur.next()
        return Int(int(tok.value))
    if tok.kind == "string":
        cur.next()
        return Str(tok.value)
    if tok.kind == "punct" and tok.value == "[":
        cur.next()
        items = _parse_term_list(cur, "]")
        cur.expect("punct", "]")
        return Seq(tuple(items))
    if tok.kind == "atom":
        cur.next()
        if cur.at("punct", "("):
            cur.next()
            args = _parse_term_list(cur, ")")
            cur.expect("punct", ")")
            return Compound(tok.value, tuple(args))
        return Atom(tok.value)
    raise _fail(tok.line, tok.col, f"expected a term, got {tok.value or tok.kind!r}")


def _parse_term_list(cur: _Cursor, closer: str) -> list[Term]:
    items: list[Term] = []
    if cur.at("punct", closer):
        return items
    while True:
        item = _parse_term(cur)
        if cur.at("punct", "="):  # name=value, as in an attribute list
            cur.next()
            item = Compound("=", (item, _parse_term(cur)))
        items.append(item)
        if not cur.at("punct", ","):
            return items
        cur.next()


def _scalar_text(term: Term, tok: _Token) -> str:
    if isinstance(term, Atom) or isinstance(term, Str):
        return term.text
    if isinstance(term, Int):
        return str(term.value)
    raise _fail(tok.line, tok.col, "expected an atom, number, or string")


def _parse_steps(cur: _Cursor) -> list[Step]:
    steps: list[Step] = []
    while True:
        tok = cur.peek()
        if tok.kind == "punct" and tok.value == "/":
            if cur.peek(1).kind == "atom":
                cur.next()
                steps.append(ChildNamed(cur.next().value))
            else:
                cur.next()  # separator before a symbolic step, as in //p#1/#
            continue
        if tok.kind == "punct" and tok.value == "//":
            cur.next()
            if cur.at("punct", "*"):
                cur.next()
                steps.append(DescendantOrSelfNamed(None))
            else:
                steps.append(DescendantOrSelfNamed(cur.expect("atom").value))
            continue
        if tok.kind == "punct" and tok.value == "@":
            cur.next()
            steps.append(AttrValue(cur.expect("atom").value))
            continue
        if tok.kind == "punct" and tok.value == "#":
            cur.next()
            if cur.at("int"):
                steps.append(Index(int(cur.next().value)))
            else:
                steps.append(TextValue())
            continue
        if tok.kind == "punct" and tok.value == "?":
            cur.next()
            steps.append(PIValue())
            continue
        if tok.kind == "atom" and tok.value in _WORD_STEPS:
            cur.next()
            steps.append(_WORD_STEPS[tok.value]())
            continue
        if tok.kind == "atom" and tok.value == "id":
            cur.next()
            cur.expect("punct", "(")
            value_tok = cur.peek()
            value = _scalar_text(_parse_term(cur), value_tok)
            cur.expect("punct", ")")
            steps.append(AttrNameByValue(value))
            continue
        return steps


def _parse_path(cur: _Cursor) -> PathExpr:
    start_tok = cur.expect("var")
    steps = _parse_steps(cur)
    if not steps:
        tok = cur.peek()
        raise _fail(tok.line, tok.col, "path expression needs at least one step")
    try:
        return PathExpr(start_tok.value, tuple(steps))
    except ValueError as exc:
        raise _fail(start_tok.line, start_tok.col, str(exc)) from None


def _parse_goal(cur: _Cursor) -> Goal:
    tok = cur.peek()
    if tok.kind == "atom" and tok.value == "not" and cur.peek(1).value == "(":
        cur.next()
        cur.next()
        inner = _parse_goal(cur)
        cur.expect("punct", ")")
        return Not(inner)
    if tok.kind == "atom" and tok.value == "transform" and cur.peek(1).value == "(":
        cur.next()
        cur.next()
        path = _parse_path(cur)
        cur.expect("punct", ",")
        result = _parse_term(cur)
        cur.expect("punct", ")")
        return Transform(path, result)
    if tok.kind == "atom" and tok.value == "template" and cur.peek(1).value == "(":
        cur.next()
        cur.next()
        node = _parse_term(cur)
        cur.expect("punct", ",")
        result = _parse_term(cur)
        cur.expect("punct", ")")
        return ApplyTemplates(node, result)
    lhs = _parse_term(cur)
    cur.expect("punct", "=")
    rhs = _parse_term(cur)
    return Unify(lhs, rhs)


def _bindable_variables(head: Term, goals: tuple[Goal, ...]) -> set[str]:
    names = variables_of(head)
    for goal in goals:
        if isinstance(goal, Unify):
            names |= variables_of(goal.lhs) | variables_of(goal.rhs)
        elif isinstance(goal, (Transform, ApplyTemplates)):
            names |= variables_of(goal.result)
    return names


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
        bindable = _bindable_variables(head, goals)
        for term in output:
            for var in sorted(variables_of(term) - bindable):
                raise RuleLoadError(
                    f"{rule.label}: output variable {var} is never bound"
                )
        rules.append(rule)
        return
    cur.expect("punct", "(")
    values: list[Term] = []
    if not cur.at("punct", ")"):
        while True:
            tok = cur.peek()
            term = _parse_term(cur)
            if not isinstance(term, (Atom, Int, Str)):
                raise _fail(tok.line, tok.col, "fact arguments must be scalars")
            values.append(term)
            if cur.at("punct", ","):
                cur.next()
                continue
            break
    cur.expect("punct", ")")
    cur.expect("punct", ".")
    facts.append(Fact(name_tok.value, tuple(values), name_tok.line))


def parse_rules(source_text: str) -> RuleSet:
    """Parse rule-file text into a RuleSet, in source order.

    Raises ParseError with a 1-based position on syntax errors, and
    RuleLoadError when an output variable can never be bound.
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
    tok = cur.peek()
    if tok.kind != "eof":
        raise _fail(tok.line, tok.col, f"unexpected trailing {tok.value!r}")
    return term


def parse_path_text(text: str) -> PathExpr:
    """Parse a path expression; the leading variable is optional (CLI form)."""
    cur = _Cursor(tokenize(text))
    start = cur.next().value if cur.at("var") else None
    steps = _parse_steps(cur)
    tok = cur.peek()
    if tok.kind != "eof":
        raise _fail(tok.line, tok.col, f"unexpected trailing {tok.value!r}")
    if not steps:
        raise _fail(tok.line, tok.col, "path expression needs at least one step")
    try:
        return PathExpr(start, tuple(steps))
    except ValueError as exc:
        raise _fail(1, 1, str(exc)) from None
