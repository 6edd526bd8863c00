"""The rule-file scanner against the character loop it replaced.

tests/reference_scanner.py keeps that loop verbatim.  Both must give the
same (kind, value, line, col) tokens, or the same ParseError message,
except in three ways, each pinned by its own test below:

1. the eof column after a trailing % comment (the loop never advanced
   its column over a comment);
2. a digit that is not a decimal digit, such as "²": the loop read it
   as an integer, which int() then refused with a ValueError, while the
   table rejects it where it stands;
3. the positions of tokens after a backslash-newline inside a string:
   the string is accepted by both, but only the table counts the line.
"""

import random
import re
from pathlib import Path

import pytest

from ltlx import Int, ParseError, parse_rules, parse_term_text
from ltlx.rules import tokenize
from reference_scanner import tokenize as reference_tokenize

# Every token class, Unicode letters of every case, decimal and
# non-decimal digits, and the characters that end or escape a token.
CHARS = list(
    "abzAZ_éΩωßǅ中²٣½019 \t\r\n%\"\\:-/()[],.=@#?*!\u00a0"
)
FRAGMENTS = [
    "template", "child", "X1", ":-", "//", "_", "\\\n", '"a\\"b"', '"\\n\\t"',
    "% note\n", "#1", "id(",
]
ALPHABET = CHARS + FRAGMENTS


def scan(tokenizer, source):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenizer(source)]
    except ParseError as exc:
        return str(exc)


def offset(source, message):
    """The offset of a `line:col: …` position; every newline counts."""
    line, col = (int(n) for n in message.split(":", 2)[:2])
    starts = [0] + [m.end() for m in re.finditer("\n", source)]
    return starts[line - 1] + col - 1


def is_non_decimal_digit(char):
    return char.isdigit() and not char.isdecimal()


def assert_agrees(source):
    old, new = scan(reference_tokenize, source), scan(tokenize, source)
    if old == new:
        return
    bad = re.search(r"unexpected character '(.)'$", new) if isinstance(new, str) else None
    if bad and is_non_decimal_digit(bad[1]):
        # Difference 2: the old loop took the digit into an int token and
        # either returned it or failed further on; up to it both agree.
        at = offset(source, new)
        assert source[at] == bad[1]
        assert isinstance(old, str) or any(
            kind == "int" and not value.isdecimal() for kind, value, _, _ in old
        )
        assert_agrees(source[:at])
    elif isinstance(new, str):
        # Difference 3: the same message, at a position the old loop
        # reckoned without a backslash-newline before it.
        assert isinstance(old, str) and "\\\n" in source[: offset(source, new)], (old, new)
        assert old.split(": ", 1)[1] == new.split(": ", 1)[1]
    else:
        assert isinstance(old, list), (old, new)
        assert [t[:2] for t in old] == [t[:2] for t in new]
        strings = [i for i, t in enumerate(new) if t[0] == "string" and "\n" in t[1]]
        if strings and "\\\n" in source:
            # Difference 3: positions agree up to the first string that
            # holds a newline.
            assert old[: strings[0] + 1] == new[: strings[0] + 1]
        else:
            # Difference 1: only the eof column, after a comment on the last line.
            assert old[:-1] == new[:-1] and old[-1][:3] == new[-1][:3]
            assert "%" in source.rsplit("\n", 1)[-1] and old[-1][3] < new[-1][3]


def test_agrees_with_the_reference_scanner():
    rng = random.Random(7)
    for _ in range(100_000):
        assert_agrees("".join(rng.choices(ALPHABET, k=rng.randrange(16))))


def test_agrees_on_the_samples():
    for path in (Path(__file__).parent.parent / "samples").glob("*/*.ltl"):
        source = path.read_text(encoding="utf-8")
        assert scan(tokenize, source) == scan(reference_tokenize, source)


def test_eof_column_after_a_trailing_comment():
    assert tokenize("a % note")[-1].col == 9
    assert reference_tokenize("a % note")[-1].col == 3


def test_non_decimal_digit_is_a_parse_error():
    assert [t.value for t in reference_tokenize("r(²).")][2] == "²"
    with pytest.raises(ParseError) as err:
        tokenize("r(²).")
    assert str(err.value) == "1:3: unexpected character '²'"
    with pytest.raises(ParseError):
        parse_rules("r(²).")
    with pytest.raises(ParseError):
        parse_term_text("1²")


def test_backslash_newline_in_a_string_counts_the_line():
    source = '"a\\\nb" c'
    new, old = tokenize(source), reference_tokenize(source)
    assert new[0].value == old[0].value == "a\nb"
    assert (new[1].line, new[1].col) == (2, 4)
    assert (old[1].line, old[1].col) == (1, 8)


def test_decimal_digits_of_any_script_are_integers():
    assert [(t.kind, t.value) for t in tokenize("٣")][0] == ("int", "٣")
    assert parse_term_text("٣2") == Int(32)
