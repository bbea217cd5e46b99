"""Reference tooling for the finite-trace temporal logics LTLf, LDLf, PLTLf,
and PLDLf: tokeniser, precedence-table parsers, canonical printer, JSON
serialisation, and trace evaluation."""

from .formulas import *  # noqa: F401,F403
from .formulas import __all__ as _formulas_all
from .lexer import (
    KEYWORDS,
    LexError,
    LexErrorKind,
    Logic,
    SourceError,
    Token,
    TokenKind,
    tokenize,
)
from .parser import (
    Assoc,
    Level,
    ParseError,
    ParseErrorKind,
    parse,
    parse_ldlf,
    parse_ltlf,
    parse_pldlf,
    parse_pltlf,
    table_for,
)
from .printer import Style, UnprintableAtomError, format_formula
from .semantics import (
    EmptyTraceError,
    PositionOutOfRangeError,
    Trace,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    eval_prop,
    regex_reach,
    satisfies,
)
from .serialize import formula_to_dict

__all__ = list(_formulas_all) + [
    "KEYWORDS",
    "LexError",
    "LexErrorKind",
    "Logic",
    "SourceError",
    "Token",
    "TokenKind",
    "tokenize",
    "Assoc",
    "Level",
    "ParseError",
    "ParseErrorKind",
    "parse",
    "parse_ldlf",
    "parse_ltlf",
    "parse_pldlf",
    "parse_pltlf",
    "table_for",
    "Style",
    "UnprintableAtomError",
    "format_formula",
    "EmptyTraceError",
    "PositionOutOfRangeError",
    "Trace",
    "eval_ldlf",
    "eval_ltlf",
    "eval_pldlf",
    "eval_pltlf",
    "eval_prop",
    "regex_reach",
    "satisfies",
    "formula_to_dict",
]

__version__ = "0.1.0"
