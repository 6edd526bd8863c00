"""Logic-template transformations for XML documents.

Documents are immutable node trees; transformation rules are Horn-clause
templates whose heads unify with document nodes; queries are chains of
path steps equivalent to the usual XPath axes.  Fact tables embed Codd's
relational algebra, and a Halstead-style census measures script size.
"""

from .encoding import (
    DEFAULT_SENTINELS,
    SentinelConfig,
    decode_core,
    encode_core,
    is_core,
    split_sentinel_text,
)
from .engine import TransformResult, apply_templates, solve_goals, transform_document
from .errors import (
    ArityError,
    BadIndexPathError,
    ColumnError,
    DecodeError,
    DuplicateAttributeError,
    InstantiationError,
    LtlxError,
    ParseDiagnostic,
    ParseError,
    RuleLoadError,
    SentinelCollisionError,
    ShapeError,
    TypeMismatchError,
    UnboundOutputError,
)
from .metrics import (
    DIALECT_LTL,
    DIALECT_XSLT,
    MetricsReport,
    TokenCounts,
    compute_metrics,
    count_tokens,
    measure,
)
from .nodes import (
    Attribute,
    Comment,
    Element,
    Hedge,
    Node,
    PI,
    Text,
    canonicalize,
    comment,
    document_order,
    element,
    node_count,
    node_equal,
    pi,
    text,
)
from .queryops import (
    ALL_SOLUTIONS,
    FIRST_ONLY,
    AttrNameByValue,
    AttrValue,
    ChildNamed,
    Children,
    CountChildren,
    DescendantOrSelfNamed,
    Descendants,
    Down,
    Index,
    IndexPath,
    LastChild,
    Lvl,
    PIValue,
    PathExpr,
    Step,
    TextValue,
    UP,
    Up,
    attr_name_by_value,
    attr_value,
    child_by_name,
    children,
    copy,
    copy_of,
    count_children,
    descendant_or_self_by_name,
    descendants,
    eval_path,
    follow_index_path,
    last_child,
    lvl,
    reachable,
    rem,
    rem_el,
    text_value,
    pi_value,
)
from .relalg import (
    Relation,
    cartesian,
    difference,
    eval_expr,
    project,
    relations_from_facts,
    rename,
    select,
    union,
)
from .rules import (
    ApplyTemplates,
    Fact,
    Goal,
    Not,
    Rule,
    RuleSet,
    Transform,
    Unify,
    parse_path_text,
    parse_rules,
    parse_term_text,
)
from .terms import (
    Anonymous,
    Atom,
    Compound,
    Int,
    Seq,
    Str,
    Substitution,
    Term,
    Var,
    anon,
    apply_subst,
    is_ground,
    match,
    term_to_node,
    unify,
    variables_of,
)
from .xmlio import parse, serialize

__version__ = "0.1.0"
