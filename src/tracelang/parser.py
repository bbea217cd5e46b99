"""Parsers for the four logics, driven by one operator table and one precedence order.

``OPERATORS`` gives each node class its token, canonical spelling and JSON
name; ``PRECEDENCE`` orders every operator of the four logics, loosest-binding
first, and a row's index is its binding strength.  One precedence-climbing
engine reads both layers of the grammar, formulas and the regular expressions
inside LDLf and PLDLf modalities, in one pass: each regex operand is read
once, as a propositional step, a formula test or a group.  Its lookups serve
all four logics, since ``tokenize`` emits only the tokens a logic has.  The
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

# The most levels a syntax tree may have, and the most parentheses that may
# nest.  The parser recurses deepest: two frames a parenthesis and up to four
# a level, against two a level for the printer and the serialiser and one for
# the evaluator.  At this limit each of them, and ``hash``, runs within
# Python's default recursion limit when called from a stack 100 frames deep.
MAX_DEPTH = 150


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


def _describe(token: Token) -> str:
    if token.lexeme[:1].isalpha():
        return f"keyword '{token.lexeme}'"
    return f"'{token.lexeme}'"


class _Parser:
    """Precedence climbing over both layers of the grammar, in one pass with
    no rewind: ``climb`` reads the binary and postfix operators of a formula
    (``_FORMULA``) or a regex (``_REGEX``), and every logic uses the same
    lookups.

    ``step`` and ``test`` say which readings of the regex operand being read
    are still open; outside regexes only the test reading, plain formula
    syntax, is.  ``depth`` is the level of the node being read, the root's
    being 1, ``reach`` the deepest level of the subtree read last, and
    ``parens`` the number of open parentheses.  A binary or postfix node
    puts its left operand a level further down, so ``reach`` grows along
    left-associative chains, which the parser reads in a loop.
    """

    def __init__(self, text: str, logic: Logic):
        self.logic = logic
        self.tokens = tokenize(text, logic)
        self.i = 0
        if self.tokens:
            tail = self.tokens[-1]
            self.end_line, self.end_column = tail.line, tail.column + len(tail.lexeme)
        else:
            self.end_line, self.end_column = 1, 1
        self.step_leaves = _STEP_LEAVES[logic]
        self.step, self.test = False, True
        self.depth = self.reach = 1
        self.parens = 0

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

    def err_expected(self, token: Token, what: str) -> ParseError:
        return self.err_at(
            token, ParseErrorKind.UNEXPECTED_TOKEN, f"expected {what}, found '{token.lexeme}'"
        )

    def too_deep(self, token: Token, what: str = "the formula nests") -> ParseError:
        return self.err_at(
            token, ParseErrorKind.NESTING_TOO_DEEP, f"{what} deeper than {MAX_DEPTH} levels"
        )

    def open_paren(self, token: Token) -> None:
        self.parens += 1
        if self.parens > MAX_DEPTH:
            raise self.too_deep(token, "parentheses nest")

    def require_operand(self, operator: Token, what: str) -> None:
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

    # ------------------------------------------------------------ climbing

    def climb(self, layer: dict, min_level: int = 0, lhs: Node | None = None) -> Node:
        """A formula or regex, as ``layer`` says, of operators binding at
        ``min_level`` or tighter, from its first unit, or going on from
        ``lhs`` if that has been read."""
        if lhs is None:
            lhs = self.formula_unit() if layer is _FORMULA else self.regex_unit()
        while True:
            token = self.peek()
            if token is None:
                break
            entry = layer.get(token.kind)
            if entry is None:
                break
            level, rhs_level, node = entry
            if level < min_level:
                break
            self.advance()
            if rhs_level is None:
                if node is RegexTest:
                    raise self.err_at(
                        token,
                        ParseErrorKind.UNEXPECTED_TOKEN,
                        "the test operator '?' must follow a formula, not a regular expression",
                    )
            elif layer is _REGEX:
                self.require_operand(token, "a regular expression")
            else:
                self.require_operand(token, "a propositional formula" if self.step else "a formula")
            if self.reach >= MAX_DEPTH:  # the left operand goes a level down
                raise self.too_deep(token)
            reach = self.reach + 1
            if rhs_level is None:
                lhs = node(lhs)
            else:
                self.depth += 1
                lhs = node(lhs, self.climb(layer, rhs_level))
                self.depth -= 1
            self.reach = max(reach, self.reach)
        return lhs

    # ------------------------------------------------------------ formulas

    def formula_unit(self) -> Node:
        token = self.peek()
        what = "a propositional formula" if self.step else "a formula"
        if token is None:
            raise self.err_end(f"expected {what}")
        kind = token.kind
        if kind in PREFIX_NODES:
            self.advance()
            self.require_operand(token, what)
            if self.depth >= MAX_DEPTH:
                raise self.too_deep(token)
            self.depth += 1
            arg = self.climb(_FORMULA, _ROW[kind])
            self.depth -= 1
            return PREFIX_NODES[kind](arg)
        if kind is _LPAREN:
            self.advance()
            self.open_paren(token)
            inner = self.climb(_FORMULA)
            self.expect_closer(_RPAREN, token)
            self.parens -= 1
            return inner
        if kind in self.step_leaves:
            if not self.step:
                raise self.err_at(
                    token,
                    ParseErrorKind.ATOM_NOT_ALLOWED_HERE,
                    f"atom {token.lexeme!r} cannot appear at formula level in "
                    f"{self.logic}; atoms belong inside a modality's regular expression"
                    if kind is _ATOM else
                    f"propositional constant '{token.lexeme}' cannot appear at formula "
                    f"level in {self.logic}; use 'tt' or 'ff' here, or move it inside "
                    f"a modality's regular expression",
                )
            self.test = False
        elif kind in _TEST_LEAVES:
            if not self.test:
                raise self.err_expected(token, what)
            self.step = False
        if kind in MODAL_NODES:
            return self.modality(token)
        self.reach = self.depth
        if kind is _ATOM:
            self.advance()
            return self.make_atom(token)
        if kind in CONST_NODES:
            self.advance()
            return CONST_NODES[kind]()
        if kind in _FORMULA and token.lexeme[:1].isalpha():
            raise self.err_at(
                token,
                ParseErrorKind.RESERVED_WORD,
                f"reserved keyword '{token.lexeme}' cannot begin a formula; "
                f"quote it to use it as an atom",
            )
        raise self.err_expected(token, what)

    def make_atom(self, token: Token) -> Atom:
        if token.lexeme[:1] in "\"'":
            return Atom(token.lexeme[1:-1], quoted=True)
        return Atom(token.lexeme)

    def modality(self, opener: Token) -> Node:
        self.advance()
        ctor, closer = MODAL_NODES[opener.kind]
        self.require_operand(opener, "a regular expression")
        if self.depth >= MAX_DEPTH:
            raise self.too_deep(opener)
        self.depth += 1
        regex = self.climb(_REGEX)
        reach = self.reach
        self.expect_closer(closer, opener)
        if self.peek() is None:
            raise self.err_end(f"expected a formula after '{_CLOSER_TEXT[closer]}'")
        arg = self.climb(_FORMULA, _ROW[opener.kind])
        self.depth -= 1
        self.reach = max(reach, self.reach)
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
            raise self.too_deep(self.peek())  # type: ignore[arg-type]
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
        opener = self.peek()
        if opener is None or opener.kind is not _LPAREN:
            return self.climb(_FORMULA), False
        self.advance()
        self.open_paren(opener)
        inner, closed = self.regex_operand()
        token = self.peek()
        if not closed:
            if token is not None and token.kind is _RPAREN:
                self.advance()
                self.parens -= 1
                return self.climb(_FORMULA, 0, inner), False
            if self.step is (token is not None and token.kind is _TEST):
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
        mark = self.peek()
        if mark is None:
            raise self.err_end("expected '?' after a formula used inside a regular expression")
        if mark.kind is not _TEST:
            raise self.err_at(
                mark,
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"a formula used inside a regular expression must be followed "
                f"by '?', found '{mark.lexeme}'",
            )
        self.advance()
        return RegexTest(formula)


def parse(text: str, logic: Logic) -> Node:
    """Parse ``text`` as a formula of ``logic``.

    Raises :class:`~tracelang.lexer.LexError` or :class:`ParseError` with a
    1-based position; the whole input must be consumed, and the tree may
    nest at most :data:`MAX_DEPTH` levels deep
    (:attr:`ParseErrorKind.NESTING_TOO_DEEP`).
    """
    parser = _Parser(text, logic)
    node = parser.climb(_FORMULA)
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
