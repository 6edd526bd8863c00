r"""The scanner and the path grammar, which `rules` builds its parser on.

    pathexpr := VAR? step+                  (the VAR is required in a rule)
    step     := "/" name | "//" (name | "*") | "@" name | "#" | "#" INT
              | "?" | "child" | "descendant" | "last" | "count" | "lvl"
              | "id" "(" scalar ")"
    scalar   := atom | INT | STRING

A "/" in front of a non-name step ("//p#1/#") is a cosmetic separator.

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
"""

from __future__ import annotations

import re

from .errors import ParseDiagnostic, ParseError
from .queryops import AttrNameByValue, AttrValue, ChildNamed, DescendantOrSelfNamed, Index, PathExpr, Step
from .values import Value, slot_setters

# Steps written as their bare symbol, such as "?" or "child".
_BARE_STEPS = {cls.symbol: cls for cls in Step.__subclasses__() if not cls.__slots__}


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


# --- path grammar -----------------------------------------------------------


def _int(tok: _Token) -> int:
    try:
        return int(tok.value)
    except ValueError:  # more digits than int() converts
        raise _fail(tok.line, tok.col, "integer has too many digits") from None


def _scalar_text(cur: _Cursor) -> str:
    """The text of a scalar: an atom that opens no compound, an integer or a string.  Any
    other term is parsed by the rule parser, so its errors read as in a rule, then refused."""
    tok, after = cur.peek(), cur.peek(1)
    if tok.kind in ("int", "string") or tok.kind == "atom" and (after.kind, after.value) != ("punct", "("):
        cur.next()
        return str(_int(tok)) if tok.kind == "int" else tok.value
    from .rules import _parse_term  # only a path with a malformed id(...) loads the rule parser
    _parse_term(cur)
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
                steps.append(AttrNameByValue(_scalar_text(cur)))
                cur.expect("punct", ")")
            elif word in _BARE_STEPS:
                cur.next()
                steps.append(_BARE_STEPS[word]())
            else:
                return PathExpr(start, tuple(steps))
            PathExpr(start, tuple(steps[-2:]))  # checks the new step against the one before
        except ValueError as exc:
            raise _fail(tok.line, tok.col, str(exc)) from None


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
