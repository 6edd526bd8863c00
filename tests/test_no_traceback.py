"""No input makes the CLI end in a Python traceback.

Seeded random edits to copies of the `samples/*/rules.ltl` texts, to the
sample documents and to a few path expressions go through `ltlx.cli.run`
in process, with `transform`, `query`, `canon` and `encode`.  Every call
must return an exit code from 0 to 3, let no exception escape, and write
at most one `ltlx: error:` line to stderr.
"""

import io
import random
from pathlib import Path

import pytest

from ltlx.cli import run

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
CASES = [
    (path.read_text(encoding="utf-8"), (path.parent / "input.xml").read_bytes())
    for path in sorted(SAMPLES.glob("*/rules.ltl"))
]
DOCUMENTS = [doc for _, doc in CASES] + [
    b'<r a="1" b="&amp;"><!--c--><?p d?><s><![CDATA[x<y]]></s>t</r>',
    b"<a><b><c>x</c></b><b/></a>",
]
PATHS = ("//p#1/#", "child/name#", "//*", "@flag", "/item count", "//b lvl", 'id("1")', "child last ?")
# What an edit inserts: rule and path syntax, markup, and characters that
# no rule, path or document may hold where they land.
PIECES = list("()[],.:-_=\"'%#@/?*<>&;!\\ \n\tAXa9٣é\x00\x01") + [
    ":-", "template(", "transform(", "not(", "element(", "text(", "<a>", "</a>", "&#0;", "]]>",
]
OPTIONS = ((), ("--solutions", "all"), ("--no-coerce-text",), ("--default-copy-text",), ("--wrap-root", "w"))


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one to four random edits: a deletion, an insertion, a
    repeated slice or a swap of two characters."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif edit == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif j - i >= 2:
            text = text[:i] + text[j - 1] + text[i + 1 : j - 1] + text[i] + text[j:]
    return text


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """A document with edits to its text, and now and then a byte that no
    UTF-8 text holds."""
    data = mutate(rng, data.decode("utf-8")).encode("utf-8")
    if rng.random() < 0.1:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + bytes([rng.choice((0x80, 0xC3, 0xFF))]) + data[i:]
    return data


def assert_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)  # an escaping exception fails the test
    errors = [line for line in err.getvalue().splitlines() if "ltlx: error:" in line]
    assert 0 <= code <= 3 and len(errors) <= 1, (argv, code, err.getvalue())
    return code


@pytest.mark.parametrize("seed", range(4))
def test_edited_rule_files_and_documents(seed, tmp_path):
    rng = random.Random(seed)
    rules, doc = tmp_path / "rules.ltl", tmp_path / "doc.xml"
    codes = set()
    for _ in range(150):
        text, data = rng.choice(CASES)
        rules.write_text(mutate(rng, text), encoding="utf-8")
        doc.write_bytes(mutate_bytes(rng, data) if rng.random() < 0.3 else data)
        argv = ["transform", *rng.choice(OPTIONS), "-r", str(rules), str(doc)]
        codes.add(assert_no_traceback(argv))
    assert {0, 1} <= codes  # most edits load and run; some are reported


@pytest.mark.parametrize("seed", range(4))
def test_edited_documents_and_paths(seed, tmp_path):
    rng = random.Random(100 + seed)
    doc = tmp_path / "doc.xml"
    codes = set()
    for _ in range(150):
        data = rng.choice(DOCUMENTS)
        doc.write_bytes(mutate_bytes(rng, data) if rng.random() < 0.5 else data)
        command = rng.choice(("query", "canon", "encode"))
        options = []
        if command == "query":
            path = rng.choice(PATHS)
            options = [f"--path={mutate(rng, path) if rng.random() < 0.5 else path}"]
            options += rng.choice(((), ("--solutions", "first"), ("--no-coerce-text",)))
        codes.add(assert_no_traceback([command, *options, str(doc)]))
    assert {0, 1} <= codes
