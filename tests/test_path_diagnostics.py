"""What `parse_path_text` reports for the argument of an id(...) step.

The table pins (line, column, message) of each error, and the value of
each accepted argument, so that the path grammar keeps every diagnostic
wherever its code lives.
"""

import pytest

from ltlx import parse_path_text
from ltlx.errors import ParseError
from ltlx.queryops import AttrNameByValue

NOT_SCALAR = "expected an atom, number, or string"

ERRORS = [
    ("//sec id(V)", (1, 10, NOT_SCALAR)),
    ("//sec id(_)", (1, 10, NOT_SCALAR)),
    ("//sec id([a])", (1, 10, NOT_SCALAR)),
    ("//sec id([])", (1, 10, NOT_SCALAR)),
    ("//sec id(f(a))", (1, 10, NOT_SCALAR)),
    ("//sec id([a", (1, 12, "expected ']', got 'eof'")),
    ("//sec id(f(", (1, 12, "expected a term, got 'eof'")),
    ("//sec id(f(a,)", (1, 14, "expected a term, got ')'")),
    ("//sec id(" + "[" * 101 + "]" * 101 + ")", (1, 110, "nested deeper than 100 levels")),
    ("//sec id(" + "9" * 5000 + ")", (1, 10, "integer has too many digits")),
    ("//sec id()", (1, 10, "expected a term, got ')'")),
    ("//sec id(a", (1, 11, "expected ')', got 'eof'")),
    ("//sec id(a b)", (1, 12, "expected ')', got 'b'")),
    ('//sec id(a "(")', (1, 12, "expected ')', got '('")),
    ("//sec id(a=b)", (1, 11, "expected ')', got '='")),
    ('//sec id("a\\"b") x', (1, 18, "unexpected trailing 'x'")),
    ("//sec#2 lvl x", (1, 13, "unexpected trailing 'x'")),
    ("id(a(", (1, 6, "expected a term, got 'eof'")),
    ("", (1, 1, "path expression needs at least one step")),
    ("X", (1, 2, "path expression needs at least one step")),
]

ACCEPTED = [
    ("//sec id(a)", "a"),
    ("//sec id(12)", "12"),
    ("//sec id(007)", "7"),
    ("//sec id(٣)", "3"),
    ('//sec id("a\\"b")', 'a"b'),
    ('//sec id("x\\qy\\n")', "xqy\n"),
]


@pytest.mark.parametrize("text, expected", ERRORS)
def test_id_argument_errors(text, expected):
    with pytest.raises(ParseError) as info:
        parse_path_text(text)
    diagnostic = info.value.diagnostic
    assert (diagnostic.line, diagnostic.column, diagnostic.message) == expected


@pytest.mark.parametrize("text, value", ACCEPTED)
def test_id_argument_values(text, value):
    step = parse_path_text(text).steps[-1]
    assert step == AttrNameByValue(value)
