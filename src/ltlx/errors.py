"""Exception types, and the option names the CLI offers without loading the layers that use them."""

from __future__ import annotations

from .values import Value

FIRST_ONLY, ALL_SOLUTIONS = "first", "all"  # solution modes (queryops)
DIALECT_LTL, DIALECT_XSLT = "ltl", "xslt"  # census dialects (metrics)


class ParseDiagnostic(Value):
    """Position and message of a parse failure. Lines and columns are 1-based."""

    __slots__ = ("line", "column", "message")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class LtlxError(Exception):
    """Base class for every error raised by this package."""


class ParseError(LtlxError):
    """Input text (XML or rule source) is not well-formed."""

    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class DuplicateAttributeError(LtlxError):
    """Two attributes of one element share a name."""

    def __init__(self, element: str, attribute: str):
        super().__init__(f"duplicate attribute {attribute!r} on element {element!r}")
        self.element = element
        self.attribute = attribute


class SentinelCollisionError(LtlxError):
    """Input text already contains a sentinel character reserved for encoding."""

    def __init__(self, sentinel: str, location: str):
        super().__init__(f"sentinel U+{ord(sentinel):04X} found in {location}")
        self.sentinel = sentinel
        self.location = location


class DecodeError(LtlxError):
    """Document is not a valid sentinel encoding."""


class TypeMismatchError(LtlxError):
    """An operation received a node variant it is not defined on."""


class BadIndexPathError(LtlxError):
    """An index path does not denote a node of the document."""


class SerializeError(LtlxError):
    """A node has no XML text: a comment or processing instruction that would not read back."""


class ShapeError(LtlxError):
    """A term is not shaped like a node."""


class UnboundOutputError(LtlxError):
    """A variable survived to a position that requires a ground term."""

    def __init__(self, variable: str, context: str = ""):
        where = f" in {context}" if context else ""
        super().__init__(f"unbound variable {variable}{where}")
        self.variable = variable
        self.context = context


class InstantiationError(LtlxError):
    """A goal needed a bound variable that is still free."""


class RuleLoadError(LtlxError):
    """A rule file parsed but violates a load-time invariant."""


class ArityError(LtlxError):
    """Relations of different arity were combined."""


class ColumnError(LtlxError):
    """A projection index is outside the relation's columns."""
