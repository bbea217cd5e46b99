"""Reference tooling for the finite-trace temporal logics LTLf, LDLf, PLTLf,
and PLDLf: tokeniser, precedence-table parsers, canonical printer, JSON
serialisation, and trace evaluation."""

import importlib.util
import sys

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
from .serialize import formula_to_dict

# The evaluator is compiled and run on the first read of one of its names, so
# a command that only parses or prints never loads it.  It is in sys.modules
# from the start, so ``import tracelang.semantics`` finds this same module.
_spec = importlib.util.find_spec(__name__ + ".semantics")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
semantics = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(semantics)
del _spec


def __getattr__(name: str) -> object:
    if name not in __all__:  # the names of __all__ not bound above are the evaluator's
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for unbound in [key for key in __all__ if key not in namespace]:
        namespace[unbound] = getattr(semantics, unbound)
    # CPython specialises attribute reads only on a module without __getattr__
    namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))


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
