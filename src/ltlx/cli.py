"""Command-line front end.

Subcommands: canon, encode, decode, query, transform, metrics, relalg.
Exit codes: 0 success, 1 parse/load error, 2 usage error, 3 transform
output that is not a well-formed document (the result is still emitted).

Each subcommand imports its own layers when it runs (`canon` only `nodes` and `xmlio`).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Sequence

from .errors import ALL_SOLUTIONS, DIALECT_LTL, DIALECT_XSLT, FIRST_ONLY, LtlxError

SENTINEL_ENV = "LTL_SENTINELS"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_WELL_FORMED = 3

# The Name production of XML 1.0 (Fifth Edition), section 2.3.  It is
# compiled on first use, by `re`'s cache: its ranges take some 5-7 ms.
_NAME_START = (
    ":A-Z_a-z\xc0-\xd6\xd8-\xf6\xf8-\u02ff\u0370-\u037d\u037f-\u1fff\u200c\u200d\u2070-\u218f"
    "\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff"
)
_XML_NAME = f"[{_NAME_START}][{_NAME_START}\\-.0-9\xb7\u0300-\u036f\u203f\u2040]*"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_xml(path: str) -> bytes | str:
    """An XML input as bytes, so that expat honours its encoding declaration.

    A standard input that is a text stream without a byte buffer is read
    as text.
    """
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    with open(path, "rb") as handle:
        return handle.read()


def _emit(text: str, out_path: str | None, stdout) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        stdout.write(text)


def _sentinels(option: str | None):
    from .encoding import SentinelConfig
    raw = option if option is not None else os.environ.get(SENTINEL_ENV)
    if raw is None:
        return SentinelConfig()
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise LtlxError("sentinels must be three comma-separated hex code points")
    try:
        marks = [chr(int(p, 16)) for p in parts]
    except (ValueError, OverflowError):
        raise LtlxError(f"bad sentinel code point in {raw!r}") from None
    try:
        return SentinelConfig(*marks)
    except ValueError as exc:  # repeated code points
        raise LtlxError(f"{exc}: {raw!r}") from None


def _xml_name(text: str) -> str:
    """`text`, which must be an XML Name; argparse reports any other as a usage error."""
    if not re.fullmatch(_XML_NAME, text):
        raise argparse.ArgumentTypeError(f"not an XML name: {text!r}")
    return text


def _format_result(value, declaration: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return "[" + ",".join(str(k) for k in value) + "]"
    from .xmlio import serialize
    return serialize(value, xml_declaration=declaration)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlx", description="Logic-template transformations for XML documents."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument(
            "--xml-declaration",
            action="store_true",
            help="prefix serialized documents with an XML declaration",
        )

    p = sub.add_parser("canon", help="parse, canonicalize attributes, serialize")
    add_common(p)

    p = sub.add_parser("encode", help="rewrite into element/text-only form")
    add_common(p)
    p.add_argument("--sentinels", help="three hex code points, e.g. E000,E001,E002")

    p = sub.add_parser("decode", help="invert an element/text-only encoding")
    add_common(p)
    p.add_argument("--sentinels", help="three hex code points, e.g. E000,E001,E002")

    p = sub.add_parser("query", help="evaluate a path expression from the root")
    add_common(p)
    p.add_argument("-p", "--path", required=True, help='path such as "//p#1/#"')
    p.add_argument(
        "--solutions",
        choices=(FIRST_ONLY, ALL_SOLUTIONS),
        default=ALL_SOLUTIONS,
        help="emit only the first result or all of them (default: all)",
    )
    p.add_argument(
        "--no-coerce-text",
        action="store_true",
        help="make # fail on elements instead of reading their text children",
    )

    p = sub.add_parser("transform", help="apply a rule file to a document")
    add_common(p)
    p.add_argument("-r", "--rules", required=True, help="rule file")
    p.add_argument(
        "--solutions",
        choices=(FIRST_ONLY, ALL_SOLUTIONS),
        default=FIRST_ONLY,
        help="commit to first goal solutions (default) or enumerate all",
    )
    p.add_argument(
        "--no-coerce-text",
        action="store_true",
        help="bind transform results as raw nodes, never as their text",
    )
    p.add_argument(
        "--default-copy-text",
        action="store_true",
        help="copy unmatched text nodes to the output, XSL-T style",
    )
    p.add_argument(
        "--wrap-root",
        metavar="NAME",
        type=_xml_name,
        help="wrap a non-well-formed output hedge in a synthetic root element",
    )

    p = sub.add_parser("metrics", help="token census and size measures of a script")
    p.add_argument("input", help="script file, or - for stdin")
    p.add_argument(
        "--dialect", choices=(DIALECT_LTL, DIALECT_XSLT), default=DIALECT_LTL
    )
    p.add_argument(
        "--machine", action="store_true", help="emit key=value lines only"
    )

    p = sub.add_parser("relalg", help="evaluate a relational expression over facts")
    p.add_argument("-r", "--relations", required=True, help="fact clause file")
    p.add_argument(
        "-e", "--expr", required=True, help='expression such as "union(r,s)"'
    )
    return parser


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):  # argparse's usage, errors and help
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args, stdout)
    except (LtlxError, OSError, UnicodeError) as exc:
        print(f"ltlx: error: {exc}", file=stderr)
        return EXIT_ERROR
    except RecursionError:
        print("ltlx: error: input nested too deeply to process", file=stderr)
        return EXIT_ERROR
    except MemoryError:
        pass  # reported once the handler has let go of the traceback, and of the output its frames hold
    print("ltlx: error: out of memory", file=stderr)
    return EXIT_ERROR


def _dispatch(args: argparse.Namespace, stdout) -> int:
    if args.command == "relalg":
        from .relalg import eval_expr, relations_from_facts
        from .rules import parse_rules
        ruleset = parse_rules(_read(args.relations))
        relations = relations_from_facts(ruleset.facts)
        relation = eval_expr(args.expr, relations)
        rows = sorted(",".join(map(repr, row)) for row in relation.tuples)
        stdout.write("".join(row + "\n" for row in rows))
        return EXIT_OK

    from .xmlio import XML_DECLARATION, parse, serialize  # relalg, above, reads no XML
    if args.command == "canon":
        from .nodes import canonicalize
        doc = canonicalize(parse(_read_xml(args.input)))
        _emit(serialize(doc, args.xml_declaration) + "\n", args.output, stdout)
        return EXIT_OK

    if args.command in ("encode", "decode"):
        from .encoding import decode_core, encode_core, split_sentinel_text
        config = _sentinels(args.sentinels)
        doc = parse(_read_xml(args.input))
        if args.command == "encode":
            result = encode_core(doc, config)
        else:
            result = decode_core(split_sentinel_text(doc, config), config)
        _emit(serialize(result, args.xml_declaration) + "\n", args.output, stdout)
        return EXIT_OK

    if args.command == "query":
        from .queryops import eval_path
        from .syntax import parse_path_text
        doc = parse(_read_xml(args.input))
        path = parse_path_text(args.path)
        results = eval_path(
            doc, path, mode=args.solutions, coerce_text=not args.no_coerce_text
        )
        lines = [_format_result(r, args.xml_declaration) for r in results]
        _emit("".join(line + "\n" for line in lines), args.output, stdout)
        return EXIT_OK

    if args.command == "transform":
        from .engine import transform_document
        from .nodes import Element
        from .rules import parse_rules
        ruleset = parse_rules(_read(args.rules)).with_options(
            solution_mode=args.solutions,
            coerce_text=not args.no_coerce_text,
            default_copy_text=args.default_copy_text,
        )
        doc = parse(_read_xml(args.input))
        result = transform_document(ruleset, doc)
        nodes = result.nodes
        if not result.well_formed and args.wrap_root:
            nodes = (Element(args.wrap_root, (), nodes),)
        text = "".join(serialize(n) for n in nodes)
        if args.xml_declaration:
            text = XML_DECLARATION + text
        _emit(text + "\n", args.output, stdout)
        return EXIT_OK if result.well_formed else EXIT_NOT_WELL_FORMED

    if args.command == "metrics":
        from .metrics import CENSUS_RULE, compute_metrics, count_tokens
        counts = count_tokens(_read(args.input), args.dialect)
        report = compute_metrics(counts)
        pairs = [
            ("eta1", counts.eta1),
            ("eta2", counts.eta2),
            ("n1_total", counts.n1_total),
            ("n2_total", counts.n2_total),
            ("N", report.N),
            ("N_T", report.N_T),
            ("eta", report.eta),
            ("V", report.V),
            ("L", report.L),
            ("lambda", report.lam),
            ("delta_N", report.delta_N),
        ]
        if args.machine:
            stdout.write("".join(f"{k}={v}\n" for k, v in pairs))
        else:
            stdout.write(f"# census: {CENSUS_RULE}\n")
            stdout.write(f"# dialect: {args.dialect}\n")
            for key, value in pairs:
                shown = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else value
                stdout.write(f"{key:9} {shown}\n")
        return EXIT_OK

    raise LtlxError(f"unknown command {args.command!r}")  # pragma: no cover


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
