"""Tokenisation for the four finite-trace temporal logics.

Each logic activates its own slice of the shared token inventory, and the
scanner is maximal-munch over the active spellings only.  That is what makes
``FGa`` three tokens, ``<<`` a single back-diamond under PLDLf but two
diamonds under LDLf, and ``<->`` an equivalence arrow everywhere.
"""

from __future__ import annotations

import enum
import functools
import re
from itertools import repeat
from typing import Callable, NamedTuple, Sequence


class Logic(enum.Enum):
    """Selects which logic's surface syntax is accepted."""

    LTLF = "ltlf"
    LDLF = "ldlf"
    PLTLF = "pltlf"
    PLDLF = "pldlf"

    # members are singletons and compare by identity, so they may hash by it
    # too, in C, where Enum's own __hash__ is a Python call on every lookup
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class TokenKind(enum.Enum):
    __hash__ = object.__hash__  # as Logic's: the parser looks kinds up on every token

    # constants and atoms
    TRUE = enum.auto()
    FALSE = enum.auto()
    TT = enum.auto()
    FF = enum.auto()
    LAST = enum.auto()
    END = enum.auto()
    FIRST = enum.auto()
    START = enum.auto()
    ATOM = enum.auto()
    # boolean connectives and grouping
    NOT = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    IMPL = enum.auto()
    EQUIV = enum.auto()
    XOR = enum.auto()
    LPAREN = enum.auto()
    RPAREN = enum.auto()
    # future-time temporal operators
    WEAK_NEXT = enum.auto()
    STRONG_NEXT = enum.auto()
    UNTIL = enum.auto()
    WEAK_UNTIL = enum.auto()
    RELEASE = enum.auto()
    STRONG_RELEASE = enum.auto()
    EVENTUALLY = enum.auto()
    ALWAYS = enum.auto()
    # past-time temporal operators
    BEFORE = enum.auto()
    SINCE = enum.auto()
    ONCE = enum.auto()
    HISTORICALLY = enum.auto()
    # dynamic-logic modal brackets
    LDIAM = enum.auto()
    RDIAM = enum.auto()
    LBOX = enum.auto()
    RBOX = enum.auto()
    LBDIAM = enum.auto()
    RBDIAM = enum.auto()
    LBBOX = enum.auto()
    RBBOX = enum.auto()
    # regular-expression operators
    TEST = enum.auto()
    CONCAT = enum.auto()
    UNION = enum.auto()
    STAR = enum.auto()


class Token(NamedTuple):
    """One lexeme with its kind and 1-based source position."""

    kind: TokenKind
    lexeme: str
    line: int
    column: int


class LexErrorKind(enum.Enum):
    ILLEGAL_CHARACTER = enum.auto()
    UNTERMINATED_QUOTE = enum.auto()
    MALFORMED_STRONG_NEXT = enum.auto()
    UNKNOWN_OPERATOR = enum.auto()


class SourceError(Exception):
    """A positioned error in formula text; ``str()`` renders ``LINE:COL: message``."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LexError(SourceError):
    def __init__(self, kind: LexErrorKind, message: str, line: int, column: int, offending: str):
        super().__init__(message, line, column)
        self.kind = kind
        self.offending = offending


_K = TokenKind

# The 20 reserved words.  Lowercase ones follow Name syntax; uppercase ones are
# single letters and lex one at a time, which is what allows "FGa" to scan as
# three tokens.
_WORD_KEYWORDS = {
    "true": _K.TRUE,
    "false": _K.FALSE,
    "tt": _K.TT,
    "ff": _K.FF,
    "last": _K.LAST,
    "end": _K.END,
    "first": _K.FIRST,
    "start": _K.START,
}
_LETTER_KEYWORDS = {
    "F": _K.EVENTUALLY,
    "G": _K.ALWAYS,
    "H": _K.HISTORICALLY,
    "M": _K.STRONG_RELEASE,
    "O": _K.ONCE,
    "R": _K.RELEASE,
    "S": _K.SINCE,
    "U": _K.UNTIL,
    "V": _K.RELEASE,
    "W": _K.WEAK_UNTIL,
    "X": _K.WEAK_NEXT,
    "Y": _K.BEFORE,
}
KEYWORDS = frozenset(_WORD_KEYWORDS) | frozenset(_LETTER_KEYWORDS)

# Symbolic spellings, longest first so the scan below is maximal-munch.
_SYMBOL_OPS = (
    ("<->", _K.EQUIV),
    ("<=>", _K.EQUIV),
    ("->", _K.IMPL),
    ("=>", _K.IMPL),
    ("&&", _K.AND),
    ("||", _K.OR),
    ("<<", _K.LBDIAM),
    (">>", _K.RBDIAM),
    ("[[", _K.LBBOX),
    ("]]", _K.RBBOX),
    ("!", _K.NOT),
    ("~", _K.NOT),
    ("&", _K.AND),
    ("|", _K.OR),
    ("^", _K.XOR),
    ("(", _K.LPAREN),
    (")", _K.RPAREN),
    ("<", _K.LDIAM),
    (">", _K.RDIAM),
    ("[", _K.LBOX),
    ("]", _K.RBOX),
    ("?", _K.TEST),
    (";", _K.CONCAT),
    ("+", _K.UNION),
    ("*", _K.STAR),
)

_COMMON = frozenset(
    {
        _K.TRUE,
        _K.FALSE,
        _K.TT,
        _K.FF,
        _K.ATOM,
        _K.NOT,
        _K.AND,
        _K.OR,
        _K.IMPL,
        _K.EQUIV,
        _K.XOR,
        _K.LPAREN,
        _K.RPAREN,
    }
)
REGEX_KINDS = frozenset({_K.TEST, _K.CONCAT, _K.UNION, _K.STAR})

ACTIVE_KINDS: dict[Logic, frozenset[TokenKind]] = {
    Logic.LTLF: _COMMON
    | {
        _K.LAST,
        _K.END,
        _K.WEAK_NEXT,
        _K.STRONG_NEXT,
        _K.UNTIL,
        _K.WEAK_UNTIL,
        _K.RELEASE,
        _K.STRONG_RELEASE,
        _K.EVENTUALLY,
        _K.ALWAYS,
    },
    Logic.PLTLF: _COMMON
    | {_K.FIRST, _K.START, _K.BEFORE, _K.SINCE, _K.ONCE, _K.HISTORICALLY},
    Logic.LDLF: _COMMON | REGEX_KINDS | {_K.LDIAM, _K.RDIAM, _K.LBOX, _K.RBOX},
    Logic.PLDLF: _COMMON | REGEX_KINDS | {_K.LBDIAM, _K.RBDIAM, _K.LBBOX, _K.RBBOX},
}

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
_NAME_CONT = _NAME_START | frozenset("0123456789")


def is_input_char(c: str) -> bool:
    """True for the characters formula text may contain: tab, LF, CR, printable ASCII."""
    return c in "\t\n\r" or 0x20 <= ord(c) <= 0x7E


@functools.cache
def _scanner(logic: Logic) -> tuple[Callable[[str], list[tuple[str, str, str]]], dict]:
    """The logic's scanner, built on first use, and its spellings and words to
    their kinds; an inactive word maps to None.

    The scanner's pattern reads the whitespace before a token and the token.
    Group 1 is the whitespace, group 2 an active token, group 3 a lexeme that
    must be rejected; at the end of the text only group 1 can be non-empty.
    Active spellings come before inactive ones, each in ``_SYMBOL_OPS`` order,
    so the first alternative that matches is the longest active spelling, or
    failing that the longest inactive one.  Each alternative repeats at most
    one character class and one alternative always matches after the
    whitespace, so a match takes time linear in its length.
    """
    if not isinstance(logic, Logic):  # refused here, so a valid logic checks once
        raise ValueError(f"unknown logic: {logic!r}")
    active = ACTIVE_KINDS[logic]
    letters = {c: kind for c, kind in _LETTER_KEYWORDS.items() if kind in active}
    symbols = {s: kind for s, kind in _SYMBOL_OPS if kind in active}
    on = "".join(letters)
    off = "".join(c for c in _LETTER_KEYWORDS if c not in letters)
    token = [re.escape(s) for s in symbols]
    reject = [re.escape(s) for s, _ in _SYMBOL_OPS if s not in symbols]
    if "X" in on:  # "X[" commits to "X[!]", with no interior whitespace
        on = on.replace("X", "")
        token += [r"X\[!\]", r"X(?!\[)"]
        reject.append(r"X\[")
        symbols["X[!]"] = _K.STRONG_NEXT
    token += [f"[{on}]"] if on else []
    reject += [f"[{off}]"] if off else []
    # a quoted atom holds printable ASCII other than its own quote; a quote
    # left open takes along the character that stopped it unless that is a
    # tab or a line break
    token += ["[a-z_][a-z0-9_]*", '"[ !#-~]*"', "'[ -&(-~]*'"]
    reject += ['"[ !#-~]*[^\t\n\r]?', "'[ -&(-~]*[^\t\n\r]?", "[^ \t\n\r]"]
    pattern = re.compile(f"([ \t\n\r]*)(?:({'|'.join(token)})|({'|'.join(reject)})|\\Z)")
    words = {w: kind if kind in active else None for w, kind in _WORD_KEYWORDS.items()}
    return pattern.findall, {**words, **letters, **symbols}


def _rejection(lexeme: str, logic: Logic, line: int, column: int) -> LexError:
    """The error for a lexeme that group 3 matched, or for an inactive word."""
    if lexeme in KEYWORDS:
        return LexError(
            LexErrorKind.UNKNOWN_OPERATOR,
            f"reserved keyword '{lexeme}' is not part of {logic} syntax; "
            f"quote it to use it as an atom",
            line, column, lexeme,
        )
    if lexeme == "X[":
        return LexError(
            LexErrorKind.MALFORMED_STRONG_NEXT,
            "malformed strong next operator: expected 'X[!]'",
            line, column + 1, lexeme,
        )
    if lexeme[0] in "\"'":
        if not is_input_char(lexeme[-1]):
            return LexError(
                LexErrorKind.ILLEGAL_CHARACTER,
                f"illegal character {lexeme[-1]!r} inside quoted atom",
                line, column + len(lexeme) - 1, lexeme[-1],
            )
        return LexError(
            LexErrorKind.UNTERMINATED_QUOTE, "unterminated quoted atom", line, column, lexeme[0]
        )
    if lexeme in dict(_SYMBOL_OPS):
        return LexError(
            LexErrorKind.UNKNOWN_OPERATOR,
            f"operator '{lexeme}' is not part of {logic} syntax",
            line, column, lexeme,
        )
    return LexError(
        LexErrorKind.ILLEGAL_CHARACTER, f"illegal character {lexeme!r}", line, column, lexeme
    )


def tokenize(text: str, logic: Logic) -> list[Token]:
    """Split ``text`` into tokens under ``logic``'s syntax.

    Raises :class:`LexError` at the first character that cannot start or
    complete an active token.  Whitespace separates tokens and is otherwise
    insignificant; joining the returned lexemes with the original whitespace
    reconstructs the input exactly.
    """
    try:
        return _tokenize(text, logic)
    except SourceError as error:  # re-raised from a frame that holds no scan
        raise error.with_traceback(None)


def _tokenize(text: str, logic: Logic) -> list[Token]:
    findall, kinds = _scanner(logic)
    atom, tokens = _K.ATOM, []
    append, make = tokens.append, tuple.__new__  # a Token without its Python __new__
    line = column = 1
    for space, lexeme, rejected in findall(text):
        if space:
            if "\n" in space:
                line += space.count("\n")
                column = len(space) - space.rfind("\n")
            else:
                column += len(space)
        if lexeme:
            kind = kinds.get(lexeme, atom)
            if kind is None:
                raise _rejection(lexeme, logic, line, column)
            append(make(Token, (kind, lexeme, line, column)))
            column += len(lexeme)
        elif rejected:
            raise _rejection(rejected, logic, line, column)
    return tokens


def _scan(text: str, logic: Logic) -> tuple[tuple[str, ...], tuple[str, ...], list]:
    """``text`` as ``tokenize`` reads it, without positions or tokens: the
    whitespace before each token, the lexemes and their kinds, where a
    ``None`` kind marks the end of the text.  A lexical error raises the
    :class:`LexError` that ``tokenize`` raises."""
    findall, spellings = _scanner(logic)
    spaces, lexemes, rejected = zip(*findall(text))
    kinds = list(map(spellings.get, lexemes, repeat(_K.ATOM)))
    if None in kinds or any(rejected):
        tokenize(text, logic)  # raises at the first lexical error, with its position
    kinds[lexemes.index("")] = None  # trailing whitespace leaves two empty matches
    return spaces, lexemes, kinds


def _position(text: str, spaces: Sequence[str], lexemes: Sequence[str], i: int) -> tuple[int, int]:
    """The line and column where lexeme ``i`` of a scan starts or, at the
    end of the text, where the last lexeme ends (``1:1`` if there is none)."""
    offset = sum(map(len, spaces[:i])) + sum(map(len, lexemes[:i]))
    if lexemes[i]:
        offset += len(spaces[i])
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
