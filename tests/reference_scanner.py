"""The character-loop rule-file scanner, kept as a reference for tokenize.

This is `ltlx.rules.tokenize` as it stood before the scanner became one
regular-expression table.  The function below is that loop verbatim;
only the imports and the punctuation set are local.  tests/test_scanner.py
runs it and the current scanner on the same seeded strings and requires
the same tokens or the same ParseError message, apart from three
differences that test pins one by one.
"""

from __future__ import annotations

from ltlx.rules import _fail, _Token

_PUNCT = {"(", ")", "[", "]", ",", ".", "=", "@", "#", "?", "*"}


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
