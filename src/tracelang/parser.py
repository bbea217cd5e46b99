"""Parsers for the four logics, driven by one operator table and one precedence order.

``OPERATORS`` gives each node class its token, canonical spelling and JSON
name; ``PRECEDENCE`` orders every operator of the four logics, loosest-binding
first, and a row's index is its binding strength.  One precedence-climbing
engine reads both layers of the grammar, formulas and the regular expressions
inside LDLf and PLDLf modalities, in one pass: each regex operand is read
once, as a propositional step, a formula test or a group.  It reads the
kinds and lexemes of one scan of the text (``lexer._scan``), which holds
only the kinds the logic has, so its lookups serve all four logics; it
builds no ``Token`` and works out a line and column only for an error.  The
printer and the JSON serialiser read the same two facts, and the evaluator
reads ``OPERATORS`` with the lexer's ``ACTIVE_KINDS`` to admit, in each
logic, exactly the node classes that its tokens build.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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
    MAX_DEPTH,
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
    TokenKind,
    _position,
    _scan,
)

_K = TokenKind
# the kinds the parser's units test, bound once: an enum member read off its
# class costs several times a module-level name
_ATOM, _LPAREN, _RPAREN, _TEST = _K.ATOM, _K.LPAREN, _K.RPAREN, _K.TEST


class Assoc(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    PREFIX = "prefix"
    POSTFIX = "postfix"
    MODALITY = "modality"


class Level(NamedTuple):
    """One precedence row: the operator tokens that share it and how they group."""

    kinds: frozenset[TokenKind]
    assoc: Assoc


def _level(assoc: Assoc, *kinds: TokenKind) -> Level:
    return Level(frozenset(kinds), assoc)


class Operator(NamedTuple):
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
    if not isinstance(logic, Logic):
        raise ValueError(f"unknown logic: {logic!r}")
    return TABLES[logic]


_ASSOC = {kind: level.assoc for level in PRECEDENCE for kind in level.kinds}
_ROW = {kind: index for index, level in enumerate(PRECEDENCE) for kind in level.kinds}


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

# The operators that follow an operand in each layer, formulas and regexes:
# token kind to row, the loosest row of the operators that its right operand
# may hold (none for a postfix operator), and node class.  A logic's table
# keeps PRECEDENCE's order, so these rows compare as its own would.
_FORMULA, _REGEX = (
    {
        kind: (row, {Assoc.LEFT: row + 1, Assoc.RIGHT: row}.get(_ASSOC[kind]), cls)
        for kind, cls in nodes.items()
        for row in (_ROW[kind],)
    }
    for nodes in (BINARY_NODES, _nodes(Assoc.LEFT, Assoc.POSTFIX, regex=True))
)

_CLOSER_TEXT = {
    _K.RPAREN: ")",
    **{op.closer: op.spelling[1] for op in OPERATORS.values() if op.closer is not None},
}

# Leaves that settle a regex operand: a step has atoms, `true` and `false`,
# a test `tt`, `ff` and modalities.  A logic without regexes has no steps.
_STEP_LEAVES = {
    logic: frozenset({_K.ATOM, _K.TRUE, _K.FALSE} if REGEX_KINDS <= ACTIVE_KINDS[logic] else ())
    for logic in Logic
}
_TEST_LEAVES = frozenset({_K.TT, _K.FF, *MODAL_NODES})


class ParseErrorKind(enum.Enum):
    UNEXPECTED_TOKEN = enum.auto()
    UNEXPECTED_END = enum.auto()
    RESERVED_WORD = enum.auto()
    ATOM_NOT_ALLOWED_HERE = enum.auto()
    UNBALANCED_DELIMITER = enum.auto()
    NESTING_TOO_DEEP = enum.auto()


class ParseError(SourceError):
    def __init__(self, kind: ParseErrorKind, message: str, line: int, column: int,
                 found: str | None = None):
        super().__init__(message, line, column)
        self.kind = kind
        self.found = found


def _spelled(lexeme: str) -> str:
    return f"keyword '{lexeme}'" if lexeme[:1].isalpha() else f"'{lexeme}'"


class _Parser:
    """Precedence climbing over both layers of the grammar, in one pass with
    no rewind: ``climb`` reads the binary and postfix operators of a formula
    (``_FORMULA``) or a regex (``_REGEX``), and every logic uses the same
    lookups.  ``i`` indexes the scan's lexemes and kinds, whose ``None`` kind
    is the end of the text; an error helper takes the index of its token.

    ``step`` and ``test`` say which readings of the regex operand being read
    are still open; outside regexes only the test reading, plain formula
    syntax, is.  ``depth`` is the level of the node being read, the root's
    being 1, and ``parens`` the number of open parentheses.
    """

    def __init__(self, text: str, logic: Logic):
        self.logic, self.text = logic, text
        self.spaces, self.lexemes, self.kinds = _scan(text, logic)
        self.i = 0
        self.step_leaves = _STEP_LEAVES[logic]
        self.step, self.test = False, True
        self.depth = 1
        self.parens = 0

    # ------------------------------------------------------------- errors

    def where(self, i: int) -> tuple[int, int]:
        return _position(self.text, self.spaces, self.lexemes, i)

    def err_end(self, expected: str) -> ParseError:
        return ParseError(
            ParseErrorKind.UNEXPECTED_END, f"{expected}, but the input ended", *self.where(self.i)
        )

    def err_operand(self, operator: int, what: str) -> ParseError:
        return self.err_end(f"expected {what} after {_spelled(self.lexemes[operator])}")

    def err_at(self, i: int, kind: ParseErrorKind, message: str) -> ParseError:
        return ParseError(kind, message, *self.where(i), self.lexemes[i])

    def err_expected(self, i: int, what: str) -> ParseError:
        return self.err_at(
            i, ParseErrorKind.UNEXPECTED_TOKEN, f"expected {what}, found '{self.lexemes[i]}'"
        )

    def too_deep(self, i: int, what: str = "the formula nests") -> ParseError:
        return self.err_at(
            i, ParseErrorKind.NESTING_TOO_DEEP, f"{what} deeper than {MAX_DEPTH} levels"
        )

    def open_paren(self, i: int) -> None:
        self.parens += 1
        if self.parens > MAX_DEPTH:
            raise self.too_deep(i, "parentheses nest")

    def expect_closer(self, kind: TokenKind, opener: int) -> None:
        found = self.kinds[self.i]
        if found is kind:
            self.i += 1
            return
        text = _CLOSER_TEXT[kind]
        where = "'%s' at %d:%d" % (self.lexemes[opener], *self.where(opener))
        if found is None:
            raise ParseError(
                ParseErrorKind.UNBALANCED_DELIMITER,
                f"missing '{text}' to match {where}",
                *self.where(self.i),
            )
        raise self.err_at(
            self.i,
            ParseErrorKind.UNBALANCED_DELIMITER,
            f"expected '{text}' to match {where}, found '{self.lexemes[self.i]}'",
        )

    # ------------------------------------------------------------ climbing

    def climb(self, layer: dict, min_level: int = 0, lhs: Node | None = None) -> Node:
        """A formula or regex, as ``layer`` says, of operators binding at
        ``min_level`` or tighter, from its first unit, or going on from
        ``lhs`` if that has been read."""
        if lhs is None:
            lhs = self.formula_unit() if layer is _FORMULA else self.regex_unit()
        kinds = self.kinds
        while True:
            entry = layer.get(kinds[self.i])  # None at the end of the text
            if entry is None:
                break
            level, rhs_level, node = entry
            if level < min_level:
                break
            i = self.i
            self.i = i + 1
            if rhs_level is None:
                if node is RegexTest:
                    raise self.err_at(
                        i,
                        ParseErrorKind.UNEXPECTED_TOKEN,
                        "the test operator '?' must follow a formula, not a regular expression",
                    )
            elif kinds[i + 1] is None:
                raise self.err_operand(
                    i,
                    "a regular expression" if layer is _REGEX
                    else "a propositional formula" if self.step else "a formula",
                )
            if self.depth + lhs.depth > MAX_DEPTH:  # the left operand goes a level down
                raise self.too_deep(i)
            if rhs_level is None:
                lhs = node(lhs)
            else:
                self.depth += 1
                lhs = node(lhs, self.climb(layer, rhs_level))
                self.depth -= 1
        return lhs

    # ------------------------------------------------------------ formulas

    def formula_unit(self) -> Node:
        i = self.i
        kind = self.kinds[i]
        what = "a propositional formula" if self.step else "a formula"
        if kind is None:
            raise self.err_end(f"expected {what}")
        if kind in PREFIX_NODES:
            self.i = i + 1
            if self.kinds[i + 1] is None:
                raise self.err_operand(i, what)
            if self.depth >= MAX_DEPTH:
                raise self.too_deep(i)
            self.depth += 1
            arg = self.climb(_FORMULA, _ROW[kind])
            self.depth -= 1
            return PREFIX_NODES[kind](arg)
        if kind is _LPAREN:
            self.i = i + 1
            self.open_paren(i)
            inner = self.climb(_FORMULA)
            self.expect_closer(_RPAREN, i)
            self.parens -= 1
            return inner
        lexeme = self.lexemes[i]
        if kind in self.step_leaves:
            if not self.step:
                raise self.err_at(
                    i,
                    ParseErrorKind.ATOM_NOT_ALLOWED_HERE,
                    f"atom {lexeme!r} cannot appear at formula level in "
                    f"{self.logic}; atoms belong inside a modality's regular expression"
                    if kind is _ATOM else
                    f"propositional constant '{lexeme}' cannot appear at formula "
                    f"level in {self.logic}; use 'tt' or 'ff' here, or move it inside "
                    f"a modality's regular expression",
                )
            self.test = False
        elif kind in _TEST_LEAVES:
            if not self.test:
                raise self.err_expected(i, what)
            self.step = False
        if kind in MODAL_NODES:
            return self.modality(i)
        if kind is _ATOM:
            self.i = i + 1
            return Atom(lexeme[1:-1], quoted=True) if lexeme[0] in "\"'" else Atom(lexeme)
        if kind in CONST_NODES:
            self.i = i + 1
            return CONST_NODES[kind]()
        if kind in _FORMULA and lexeme[0].isalpha():
            raise self.err_at(
                i,
                ParseErrorKind.RESERVED_WORD,
                f"reserved keyword '{lexeme}' cannot begin a formula; "
                f"quote it to use it as an atom",
            )
        raise self.err_expected(i, what)

    def modality(self, opener: int) -> Node:
        self.i = opener + 1
        kind = self.kinds[opener]
        ctor, closer = MODAL_NODES[kind]
        if self.kinds[self.i] is None:
            raise self.err_operand(opener, "a regular expression")
        if self.depth >= MAX_DEPTH:
            raise self.too_deep(opener)
        self.depth += 1
        regex = self.climb(_REGEX)
        self.expect_closer(closer, opener)
        if self.kinds[self.i] is None:
            raise self.err_end(f"expected a formula after '{_CLOSER_TEXT[closer]}'")
        arg = self.climb(_FORMULA, _ROW[kind])
        self.depth -= 1
        return ctor(regex, arg)

    # ---------------------------------------------------- regular expressions

    def regex_unit(self) -> Node:
        """One regex operand: a propositional step, a formula test, or a group.

        The operand is read once.  A step or a test is read with the formula
        grammar, whose leaves close one of the two readings: a step has only
        atoms, ``true``, ``false`` and boolean connectives, a test no atom
        and no ``true`` or ``false``.  A rejection is reported where the
        last open reading fails.
        """
        if self.depth >= MAX_DEPTH:
            raise self.too_deep(self.i)
        outer = self.step, self.test
        self.step = self.test = True
        self.depth += 1  # the formula of a step or a test is a level down
        node, closed = self.regex_operand()
        self.depth -= 1
        if not closed:
            node = self.close_operand(node)
        self.step, self.test = outer
        return node

    def regex_operand(self) -> tuple[Node, bool]:
        """The formula of a step or a test, or a whole group, then ``True``.

        A leading '(' opens a group only when its first inner operand is
        followed by something other than ')'; otherwise it parenthesises a
        formula, which goes on after the ')'.
        """
        opener = self.i
        if self.kinds[opener] is not _LPAREN:
            return self.climb(_FORMULA), False
        self.i = opener + 1
        self.open_paren(opener)
        inner, closed = self.regex_operand()
        kind = self.kinds[self.i]
        if not closed:
            if kind is _RPAREN:
                self.i += 1
                self.parens -= 1
                return self.climb(_FORMULA, 0, inner), False
            if self.step is (kind is _TEST):
                # the open reading cannot take the token: the ')' is missing
                self.expect_closer(_RPAREN, opener)
            inner = self.close_operand(inner)
        self.depth -= 1  # the group stands where the operand does
        regex = self.climb(_REGEX, 0, inner)
        self.depth += 1
        self.expect_closer(_RPAREN, opener)
        self.parens -= 1
        return regex, True

    def close_operand(self, formula: Node) -> Node:
        """A step if that reading is open, else a test, which needs its '?'."""
        if self.step:
            return RegexProp(formula)
        kind = self.kinds[self.i]
        if kind is None:
            raise self.err_end("expected '?' after a formula used inside a regular expression")
        if kind is not _TEST:
            raise self.err_at(
                self.i,
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"a formula used inside a regular expression must be followed "
                f"by '?', found '{self.lexemes[self.i]}'",
            )
        self.i += 1
        return RegexTest(formula)


def parse(text: str, logic: Logic) -> Node:
    """Parse ``text`` as a formula of ``logic``.

    Raises :class:`~tracelang.lexer.LexError` or :class:`ParseError` with a
    1-based position; the whole input must be consumed, and the tree may
    nest at most :data:`MAX_DEPTH` levels deep
    (:attr:`ParseErrorKind.NESTING_TOO_DEEP`).  A lexical error anywhere in
    the text is raised before any parse error.
    """
    try:
        return _parse(text, logic)
    except SourceError as error:  # re-raised from a frame that holds no scan or parser
        raise error.with_traceback(None)


def _parse(text: str, logic: Logic) -> Node:
    parser = _Parser(text, logic)
    node = parser.climb(_FORMULA)
    i = parser.i
    kind = parser.kinds[i]
    if kind is not None:
        lexeme = parser.lexemes[i]
        if kind in _CLOSER_TEXT:
            raise parser.err_at(i, ParseErrorKind.UNBALANCED_DELIMITER, f"unmatched '{lexeme}'")
        raise parser.err_at(
            i, ParseErrorKind.UNEXPECTED_TOKEN, f"expected end of input, found '{lexeme}'"
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
