"""Logic-template transformations for XML documents.

Documents are immutable node trees; transformation rules are Horn-clause
templates whose heads unify with document nodes; queries are chains of
path steps equivalent to the usual XPath axes.  Fact tables embed Codd's
relational algebra, and a Halstead-style census measures script size.

The package root holds the names of the README's library example and
the pipeline around it; every other name is imported from its module
(`ltlx.terms`, `ltlx.relalg`, `ltlx.metrics`, ...).  `import ltlx` loads
no other module: a root name imports its module on first use (PEP 562).
"""

__version__ = "0.1.0"

_HOMES = {  # each root name, and the module that defines it
    **dict.fromkeys(("element", "text", "canonicalize"), "nodes"),
    **dict.fromkeys(("parse", "serialize"), "xmlio"),
    **dict.fromkeys(("encode_core", "decode_core", "split_sentinel_text"), "encoding"),
    "parse_rules": "rules",
    "parse_path_text": "syntax",
    "transform_document": "engine",
    "eval_path": "queryops",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_HOMES[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
