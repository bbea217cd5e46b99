"""Parsers for the four logics, driven by one operator table and one precedence order.

``OPERATORS`` gives each node class its token, canonical spelling and JSON
name; ``PRECEDENCE`` orders every operator of the four logics, loosest-binding
first.  Each logic's table is that order cut down to the tokens the logic
has, and a row's index is its binding strength.  The same precedence-climbing
engine interprets the formula rows, the regular-expression rows (LDLf and
PLDLf only), and the propositional sub-grammar used for single-step regexes.
The printer and the JSON serialiser read the same two facts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    BackBox,
    BackDiamond,
    Before,
    Box,
    Contradiction,
    Diamond,
    End,
    Equiv,
    Eventually,
    FalseConst,
    First,
    Historically,
    Implies,
    Last,
    Node,
    Not,
    Once,
    Or,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Release,
    Since,
    Start,
    StrongNext,
    StrongRelease,
    Tautology,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    Xor,
    Always,
)
from .lexer import (
    ACTIVE_KINDS,
    REGEX_KINDS,
    Logic,
    SourceError,
    Token,
    TokenKind,
    tokenize,
)

_K = TokenKind


class Assoc(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    PREFIX = "prefix"
    POSTFIX = "postfix"
    MODALITY = "modality"


@dataclass(frozen=True)
class Level:
    """One precedence row: the operator tokens that share it and how they group."""

    kinds: frozenset[TokenKind]
    assoc: Assoc


def _level(assoc: Assoc, *kinds: TokenKind) -> Level:
    return Level(frozenset(kinds), assoc)


@dataclass(frozen=True)
class Operator:
    """How one node class is written and named.

    ``kind`` is the token that builds the node, ``spelling`` its canonical
    text and ``json`` its name in serialised trees.  A modality's spelling is
    its bracket pair and ``closer`` the token of the closing bracket; a regex
    step has no operator, so no kind and no spelling.
    """

    kind: TokenKind | None
    spelling: str | tuple[str, str] | None
    json: str
    closer: TokenKind | None = None


# One row per node class; only Atom, which has a name instead, is handled apart.
OPERATORS: dict[type, Operator] = {
    TrueConst: Operator(_K.TRUE, "true", "true"),
    FalseConst: Operator(_K.FALSE, "false", "false"),
    Tautology: Operator(_K.TT, "tt", "tt"),
    Contradiction: Operator(_K.FF, "ff", "ff"),
    Last: Operator(_K.LAST, "last", "last"),
    End: Operator(_K.END, "end", "end"),
    First: Operator(_K.FIRST, "first", "first"),
    Start: Operator(_K.START, "start", "start"),
    Not: Operator(_K.NOT, "!", "not"),
    And: Operator(_K.AND, "&", "and"),
    Or: Operator(_K.OR, "|", "or"),
    Implies: Operator(_K.IMPL, "->", "impl"),
    Equiv: Operator(_K.EQUIV, "<->", "equiv"),
    Xor: Operator(_K.XOR, "^", "xor"),
    WeakNext: Operator(_K.WEAK_NEXT, "X", "weak_next"),
    StrongNext: Operator(_K.STRONG_NEXT, "X[!]", "next"),
    Until: Operator(_K.UNTIL, "U", "until"),
    WeakUntil: Operator(_K.WEAK_UNTIL, "W", "weak_until"),
    Release: Operator(_K.RELEASE, "R", "release"),
    StrongRelease: Operator(_K.STRONG_RELEASE, "M", "strong_release"),
    Eventually: Operator(_K.EVENTUALLY, "F", "eventually"),
    Always: Operator(_K.ALWAYS, "G", "always"),
    Before: Operator(_K.BEFORE, "Y", "before"),
    Since: Operator(_K.SINCE, "S", "since"),
    Once: Operator(_K.ONCE, "O", "once"),
    Historically: Operator(_K.HISTORICALLY, "H", "historically"),
    Diamond: Operator(_K.LDIAM, ("<", ">"), "diamond", _K.RDIAM),
    Box: Operator(_K.LBOX, ("[", "]"), "box", _K.RBOX),
    BackDiamond: Operator(_K.LBDIAM, ("<<", ">>"), "back_diamond", _K.RBDIAM),
    BackBox: Operator(_K.LBBOX, ("[[", "]]"), "back_box", _K.RBBOX),
    RegexProp: Operator(None, None, "prop"),
    RegexTest: Operator(_K.TEST, "?", "test"),
    RegexConcat: Operator(_K.CONCAT, ";", "concat"),
    RegexUnion: Operator(_K.UNION, "+", "union"),
    RegexStar: Operator(_K.STAR, "*", "star"),
}

# All operators of all four logics, loosest-binding first.  A logic's table
# keeps the operators it has, so a row's index orders the same rows in every
# logic, and the printer can use it as a binding strength for any tree.
PRECEDENCE: tuple[Level, ...] = (
    _level(Assoc.RIGHT, _K.IMPL, _K.EQUIV),
    _level(Assoc.LEFT, _K.XOR),
    _level(Assoc.LEFT, _K.OR),
    _level(Assoc.LEFT, _K.AND),
    _level(Assoc.RIGHT, _K.UNTIL, _K.WEAK_UNTIL, _K.STRONG_RELEASE, _K.RELEASE, _K.SINCE),
    _level(Assoc.MODALITY, _K.LDIAM, _K.LBOX, _K.LBDIAM, _K.LBBOX),
    _level(Assoc.PREFIX, _K.EVENTUALLY, _K.ALWAYS, _K.ONCE, _K.HISTORICALLY),
    _level(Assoc.PREFIX, _K.WEAK_NEXT, _K.STRONG_NEXT, _K.BEFORE),
    # regex-internal rows: concatenation binds loosest, so "a + b ; c"
    # concatenates the union with c
    _level(Assoc.LEFT, _K.CONCAT),
    _level(Assoc.LEFT, _K.UNION),
    _level(Assoc.POSTFIX, _K.STAR),
    _level(Assoc.POSTFIX, _K.TEST),
    _level(Assoc.PREFIX, _K.NOT),
)

TABLES: dict[Logic, tuple[Level, ...]] = {
    logic: tuple(
        Level(level.kinds & ACTIVE_KINDS[logic], level.assoc)
        for level in PRECEDENCE
        if level.kinds & ACTIVE_KINDS[logic]
    )
    for logic in Logic
}


def table_for(logic: Logic) -> tuple[Level, ...]:
    return TABLES[logic]


_ASSOC = {kind: level.assoc for level in PRECEDENCE for kind in level.kinds}


def _nodes(*assocs: Assoc | None, regex: bool = False) -> dict[TokenKind, type]:
    """Token kind to node class for the operators whose rows group as ``assocs``."""
    return {
        op.kind: cls
        for cls, op in OPERATORS.items()
        if op.kind is not None
        and _ASSOC.get(op.kind) in assocs
        and (op.kind in REGEX_KINDS) is regex
    }


BINARY_NODES = _nodes(Assoc.LEFT, Assoc.RIGHT)
PREFIX_NODES = _nodes(Assoc.PREFIX)
MODAL_NODES: dict[TokenKind, tuple[type, TokenKind]] = {
    op.kind: (cls, op.closer) for cls, op in OPERATORS.items() if op.closer is not None
}
REGEX_BINARY_NODES = _nodes(Assoc.LEFT, regex=True)
CONST_NODES = _nodes(None)  # the tokens of no precedence row

# the propositional steps inside a regex use the connectives every logic has
_BOOLEAN_BINARY = frozenset(BINARY_NODES).intersection(*ACTIVE_KINDS.values())
_CLOSER_TEXT = {
    _K.RPAREN: ")",
    **{op.closer: op.spelling[1] for op in OPERATORS.values() if op.closer is not None},
}


class ParseErrorKind(enum.Enum):
    UNEXPECTED_TOKEN = enum.auto()
    UNEXPECTED_END = enum.auto()
    RESERVED_WORD = enum.auto()
    ATOM_NOT_ALLOWED_HERE = enum.auto()
    UNBALANCED_DELIMITER = enum.auto()


class ParseError(SourceError):
    def __init__(self, kind: ParseErrorKind, message: str, line: int, column: int,
                 found: str | None = None):
        super().__init__(message, line, column)
        self.kind = kind
        self.found = found


def _describe(token: Token) -> str:
    if token.lexeme[:1].isalpha():
        return f"keyword '{token.lexeme}'"
    return f"'{token.lexeme}'"


class _Parser:
    def __init__(self, text: str, logic: Logic):
        self.logic = logic
        self.tokens = tokenize(text, logic)
        self.i = 0
        if self.tokens:
            tail = self.tokens[-1]
            self.end_line, self.end_column = tail.line, tail.column + len(tail.lexeme)
        else:
            self.end_line, self.end_column = 1, 1

        self.formula_binary: dict[TokenKind, tuple[int, Assoc]] = {}
        self.prefix_level: dict[TokenKind, int] = {}
        self.modal_level: dict[TokenKind, int] = {}
        self.regex_binary: dict[TokenKind, tuple[int, Assoc]] = {}
        self.regex_postfix: dict[TokenKind, int] = {}
        for index, level in enumerate(TABLES[logic]):
            for kind in level.kinds:
                if level.assoc is Assoc.PREFIX:
                    self.prefix_level[kind] = index
                elif level.assoc is Assoc.MODALITY:
                    self.modal_level[kind] = index
                elif level.assoc is Assoc.POSTFIX:
                    self.regex_postfix[kind] = index
                elif kind in REGEX_BINARY_NODES:
                    self.regex_binary[kind] = (index, level.assoc)
                else:
                    self.formula_binary[kind] = (index, level.assoc)
        self.prop_binary = {
            k: v for k, v in self.formula_binary.items() if k in _BOOLEAN_BINARY
        }
        self.not_level = self.prefix_level[_K.NOT]

    # ------------------------------------------------------------- stream

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    # ------------------------------------------------------------- errors

    def err_end(self, expected: str) -> ParseError:
        return ParseError(
            ParseErrorKind.UNEXPECTED_END,
            f"{expected}, but the input ended",
            self.end_line,
            self.end_column,
        )

    def err_at(self, token: Token, kind: ParseErrorKind, message: str) -> ParseError:
        return ParseError(kind, message, token.line, token.column, token.lexeme)

    def require_operand(self, operator: Token, what: str = "a formula") -> None:
        if self.peek() is None:
            raise self.err_end(f"expected {what} after {_describe(operator)}")

    def expect_closer(self, kind: TokenKind, opener: Token) -> None:
        text = _CLOSER_TEXT[kind]
        token = self.peek()
        where = f"'{opener.lexeme}' at {opener.line}:{opener.column}"
        if token is None:
            raise ParseError(
                ParseErrorKind.UNBALANCED_DELIMITER,
                f"missing '{text}' to match {where}",
                self.end_line,
                self.end_column,
            )
        if token.kind is not kind:
            raise self.err_at(
                token,
                ParseErrorKind.UNBALANCED_DELIMITER,
                f"expected '{text}' to match {where}, found '{token.lexeme}'",
            )
        self.advance()

    # ------------------------------------------------------------ formulas

    def parse_formula(self, min_level: int = 0) -> Node:
        lhs = self.formula_unit()
        while True:
            token = self.peek()
            if token is None:
                break
            entry = self.formula_binary.get(token.kind)
            if entry is None:
                break
            level, assoc = entry
            if level < min_level:
                break
            self.advance()
            self.require_operand(token)
            rhs = self.parse_formula(level + 1 if assoc is Assoc.LEFT else level)
            lhs = BINARY_NODES[token.kind](lhs, rhs)
        return lhs

    def formula_unit(self) -> Node:
        token = self.peek()
        if token is None:
            raise self.err_end("expected a formula")
        kind = token.kind
        if kind in self.prefix_level:
            self.advance()
            self.require_operand(token)
            return PREFIX_NODES[kind](self.parse_formula(self.prefix_level[kind]))
        if kind in self.modal_level:
            return self.modality(token)
        if kind is _K.LPAREN:
            self.advance()
            inner = self.parse_formula(0)
            self.expect_closer(_K.RPAREN, token)
            return inner
        if kind is _K.ATOM:
            if self.logic in (Logic.LDLF, Logic.PLDLF):
                raise self.err_at(
                    token,
                    ParseErrorKind.ATOM_NOT_ALLOWED_HERE,
                    f"atom {token.lexeme!r} cannot appear at formula level in "
                    f"{self.logic}; atoms belong inside a modality's regular expression",
                )
            self.advance()
            return self.make_atom(token)
        if kind in (_K.TRUE, _K.FALSE) and self.logic in (Logic.LDLF, Logic.PLDLF):
            raise self.err_at(
                token,
                ParseErrorKind.ATOM_NOT_ALLOWED_HERE,
                f"propositional constant '{token.lexeme}' cannot appear at formula "
                f"level in {self.logic}; use 'tt' or 'ff' here, or move it inside "
                f"a modality's regular expression",
            )
        if kind in CONST_NODES:
            self.advance()
            return CONST_NODES[kind]()
        if kind in self.formula_binary and token.lexeme[:1].isalpha():
            raise self.err_at(
                token,
                ParseErrorKind.RESERVED_WORD,
                f"reserved keyword '{token.lexeme}' cannot begin a formula; "
                f"quote it to use it as an atom",
            )
        raise self.err_at(
            token,
            ParseErrorKind.UNEXPECTED_TOKEN,
            f"expected a formula, found '{token.lexeme}'",
        )

    def make_atom(self, token: Token) -> Atom:
        if token.lexeme[:1] in "\"'":
            return Atom(token.lexeme[1:-1], quoted=True)
        return Atom(token.lexeme)

    def modality(self, opener: Token) -> Node:
        self.advance()
        ctor, closer = MODAL_NODES[opener.kind]
        self.require_operand(opener, "a regular expression")
        regex = self.parse_regex(0)
        self.expect_closer(closer, opener)
        if self.peek() is None:
            raise self.err_end(f"expected a formula after '{_CLOSER_TEXT[closer]}'")
        return ctor(regex, self.parse_formula(self.modal_level[opener.kind]))

    # ---------------------------------------------------- regular expressions

    def parse_regex(self, min_level: int = 0) -> Node:
        lhs = self.regex_unit()
        while True:
            token = self.peek()
            if token is None:
                break
            kind = token.kind
            if kind in self.regex_binary:
                level, assoc = self.regex_binary[kind]
                if level < min_level:
                    break
                self.advance()
                self.require_operand(token, "a regular expression")
                rhs = self.parse_regex(level + 1 if assoc is Assoc.LEFT else level)
                lhs = REGEX_BINARY_NODES[kind](lhs, rhs)
            elif kind in self.regex_postfix:
                if self.regex_postfix[kind] < min_level:
                    break
                if kind is _K.STAR:
                    self.advance()
                    lhs = RegexStar(lhs)
                else:
                    raise self.err_at(
                        token,
                        ParseErrorKind.UNEXPECTED_TOKEN,
                        "the test operator '?' must follow a formula, not a "
                        "regular expression",
                    )
            else:
                break
        return lhs

    def regex_unit(self) -> Node:
        """One regex operand: a propositional step, a formula test, or a group.

        The three readings are tried in that order with backtracking; if all
        fail, the error that progressed furthest is reported.
        """
        token = self.peek()
        if token is None:
            raise self.err_end("expected a regular expression")
        start = self.i
        failures: list[ParseError] = []

        try:
            return RegexProp(self.parse_prop(0))
        except ParseError as error:
            failures.append(error)
            self.i = start

        try:
            formula = self.parse_formula(0)
            mark = self.peek()
            if mark is None:
                raise self.err_end("expected '?' after a formula used inside a regular expression")
            if mark.kind is not _K.TEST:
                raise self.err_at(
                    mark,
                    ParseErrorKind.UNEXPECTED_TOKEN,
                    f"a formula used inside a regular expression must be followed "
                    f"by '?', found '{mark.lexeme}'",
                )
            self.advance()
            return RegexTest(formula)
        except ParseError as error:
            failures.append(error)
            self.i = start

        if token.kind is _K.LPAREN:
            try:
                self.advance()
                inner = self.parse_regex(0)
                self.expect_closer(_K.RPAREN, token)
                return inner
            except ParseError as error:
                failures.append(error)
                self.i = start

        raise max(failures, key=lambda e: (e.line, e.column))

    # ------------------------------------------------- propositional steps

    def parse_prop(self, min_level: int = 0) -> Node:
        lhs = self.prop_unit()
        while True:
            token = self.peek()
            if token is None:
                break
            entry = self.prop_binary.get(token.kind)
            if entry is None:
                break
            level, assoc = entry
            if level < min_level:
                break
            self.advance()
            self.require_operand(token, "a propositional formula")
            rhs = self.parse_prop(level + 1 if assoc is Assoc.LEFT else level)
            lhs = BINARY_NODES[token.kind](lhs, rhs)
        return lhs

    def prop_unit(self) -> Node:
        token = self.peek()
        if token is None:
            raise self.err_end("expected a propositional formula")
        kind = token.kind
        if kind is _K.NOT:
            self.advance()
            self.require_operand(token, "a propositional formula")
            return Not(self.parse_prop(self.not_level))
        if kind is _K.LPAREN:
            self.advance()
            inner = self.parse_prop(0)
            self.expect_closer(_K.RPAREN, token)
            return inner
        if kind is _K.ATOM:
            self.advance()
            return self.make_atom(token)
        if kind in (_K.TRUE, _K.FALSE):
            self.advance()
            return CONST_NODES[kind]()
        raise self.err_at(
            token,
            ParseErrorKind.UNEXPECTED_TOKEN,
            f"expected a propositional formula, found '{token.lexeme}'",
        )


def parse(text: str, logic: Logic) -> Node:
    """Parse ``text`` as a formula of ``logic``.

    Raises :class:`~tracelang.lexer.LexError` or :class:`ParseError` with a
    1-based position; the whole input must be consumed.
    """
    parser = _Parser(text, logic)
    node = parser.parse_formula(0)
    token = parser.peek()
    if token is not None:
        if token.kind in _CLOSER_TEXT:
            raise parser.err_at(
                token,
                ParseErrorKind.UNBALANCED_DELIMITER,
                f"unmatched '{token.lexeme}'",
            )
        raise parser.err_at(
            token,
            ParseErrorKind.UNEXPECTED_TOKEN,
            f"expected end of input, found '{token.lexeme}'",
        )
    return node


def parse_ltlf(text: str) -> Node:
    return parse(text, Logic.LTLF)


def parse_ldlf(text: str) -> Node:
    return parse(text, Logic.LDLF)


def parse_pltlf(text: str) -> Node:
    return parse(text, Logic.PLTLF)


def parse_pldlf(text: str) -> Node:
    return parse(text, Logic.PLDLF)
