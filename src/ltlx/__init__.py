"""Logic-template transformations for XML documents.

Documents are immutable node trees; transformation rules are Horn-clause
templates whose heads unify with document nodes; queries are chains of
path steps equivalent to the usual XPath axes.  Fact tables embed Codd's
relational algebra, and a Halstead-style census measures script size.

The package root holds the names of the README's library example and
the pipeline around it; every other name is imported from its module
(`ltlx.terms`, `ltlx.relalg`, `ltlx.metrics`, ...).
"""

from .encoding import decode_core, encode_core, split_sentinel_text
from .engine import transform_document
from .nodes import canonicalize, element, text
from .queryops import eval_path
from .rules import parse_path_text, parse_rules
from .xmlio import parse, serialize

__version__ = "0.1.0"
