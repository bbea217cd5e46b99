"""Tokenisation for the four finite-trace temporal logics.

Each logic activates its own slice of the shared token inventory, and the
scanner is maximal-munch over the active spellings only.  That is what makes
``FGa`` three tokens, ``<<`` a single back-diamond under PLDLf but two
diamonds under LDLf, and ``<->`` an equivalence arrow everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Logic(enum.Enum):
    """Selects which logic's surface syntax is accepted."""

    LTLF = "ltlf"
    LDLF = "ldlf"
    PLTLF = "pltlf"
    PLDLF = "pldlf"

    def __str__(self) -> str:
        return self.value


class TokenKind(enum.Enum):
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


@dataclass(frozen=True)
class Token:
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
_WHITESPACE = frozenset(" \t\n\r")
_QUOTES = frozenset("\"'")


def is_input_char(c: str) -> bool:
    """True for the characters formula text may contain: tab, LF, CR, printable ASCII."""
    return c in "\t\n\r" or 0x20 <= ord(c) <= 0x7E


class _Lexer:
    def __init__(self, text: str, logic: Logic):
        self.text = text
        self.logic = logic
        self.active = ACTIVE_KINDS[logic]
        self.pos = 0
        self.line = 1
        self.column = 1
        self.tokens: list[Token] = []

    def error(self, kind: LexErrorKind, message: str, offending: str,
              line: int | None = None, column: int | None = None) -> LexError:
        return LexError(
            kind,
            message,
            self.line if line is None else line,
            self.column if column is None else column,
            offending,
        )

    def emit(self, kind: TokenKind, lexeme: str) -> None:
        self.tokens.append(Token(kind, lexeme, self.line, self.column))
        self.pos += len(lexeme)
        self.column += len(lexeme)

    def run(self) -> list[Token]:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in _WHITESPACE:
                self.pos += 1
                if c == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
            elif not is_input_char(c):
                raise self.error(
                    LexErrorKind.ILLEGAL_CHARACTER, f"illegal character {c!r}", c
                )
            elif c in _NAME_START:
                self.scan_name()
            elif c in _LETTER_KEYWORDS:
                self.scan_letter_keyword(c)
            elif c in _QUOTES:
                self.scan_quoted()
            else:
                self.scan_symbol()
        return self.tokens

    def scan_name(self) -> None:
        text, start = self.text, self.pos
        end = start
        while end < len(text) and text[end] in _NAME_CONT:
            end += 1
        word = text[start:end]
        kind = _WORD_KEYWORDS.get(word)
        if kind is None:
            self.emit(_K.ATOM, word)
        elif kind in self.active:
            self.emit(kind, word)
        else:
            raise self.error(
                LexErrorKind.UNKNOWN_OPERATOR,
                f"reserved keyword '{word}' is not part of {self.logic} syntax; "
                f"quote it to use it as an atom",
                word,
            )

    def scan_letter_keyword(self, c: str) -> None:
        kind = _LETTER_KEYWORDS[c]
        if kind not in self.active:
            raise self.error(
                LexErrorKind.UNKNOWN_OPERATOR,
                f"reserved keyword '{c}' is not part of {self.logic} syntax; "
                f"quote it to use it as an atom",
                c,
            )
        # "X[" commits to the strong-next operator, with no interior whitespace.
        if c == "X" and self.text.startswith("[", self.pos + 1):
            if self.text.startswith("X[!]", self.pos):
                self.emit(_K.STRONG_NEXT, "X[!]")
            else:
                raise self.error(
                    LexErrorKind.MALFORMED_STRONG_NEXT,
                    "malformed strong next operator: expected 'X[!]'",
                    "X[",
                    column=self.column + 1,
                )
        else:
            self.emit(kind, c)

    def scan_quoted(self) -> None:
        text, start = self.text, self.pos
        quote = text[start]
        end = start + 1
        while end < len(text):
            c = text[end]
            if c == quote:
                self.emit(_K.ATOM, text[start : end + 1])
                return
            if c in "\n\t\r":
                break
            if not is_input_char(c):
                raise self.error(
                    LexErrorKind.ILLEGAL_CHARACTER,
                    f"illegal character {c!r} inside quoted atom",
                    c,
                    column=self.column + (end - start),
                )
            end += 1
        raise self.error(
            LexErrorKind.UNTERMINATED_QUOTE, "unterminated quoted atom", quote
        )

    def scan_symbol(self) -> None:
        text, pos = self.text, self.pos
        inactive_match: str | None = None
        for spelling, kind in _SYMBOL_OPS:
            if text.startswith(spelling, pos):
                if kind in self.active:
                    self.emit(kind, spelling)
                    return
                if inactive_match is None:
                    inactive_match = spelling
        if inactive_match is not None:
            raise self.error(
                LexErrorKind.UNKNOWN_OPERATOR,
                f"operator '{inactive_match}' is not part of {self.logic} syntax",
                inactive_match,
            )
        raise self.error(
            LexErrorKind.ILLEGAL_CHARACTER, f"illegal character {text[pos]!r}", text[pos]
        )


def tokenize(text: str, logic: Logic) -> list[Token]:
    """Split ``text`` into tokens under ``logic``'s syntax.

    Raises :class:`LexError` at the first character that cannot start or
    complete an active token.  Whitespace separates tokens and is otherwise
    insignificant; joining the returned lexemes with the original whitespace
    reconstructs the input exactly.
    """
    return _Lexer(text, logic).run()
