"""The parser tracelang shipped before it read each regex operand once,
kept as a differential oracle for the single-pass parser.

``_Parser`` is the earlier class verbatim.  Its ``regex_unit`` tries each
regex operand three ways (a propositional step, a formula test, a group),
rewinding between tries and reporting the failure that got furthest, so
nested tests cost time exponential in their depth: it is only fit for short
inputs.  It reads the shared operator tables of ``tracelang.parser``, and
keeps the propositional sub-grammar's connectives here.
"""

from __future__ import annotations

from tracelang.formulas import Atom, Node, Not, RegexProp, RegexStar, RegexTest
from tracelang.lexer import ACTIVE_KINDS, Logic, Token, TokenKind, tokenize
from tracelang.parser import (
    BINARY_NODES,
    CONST_NODES,
    MODAL_NODES,
    PREFIX_NODES,
    REGEX_BINARY_NODES,
    TABLES,
    _CLOSER_TEXT,
    Assoc,
    ParseError,
    ParseErrorKind,
    _spelled,
)

_K = TokenKind


def _describe(token: Token) -> str:
    return _spelled(token.lexeme)


# the propositional steps inside a regex use the connectives every logic has
_BOOLEAN_BINARY = frozenset(BINARY_NODES).intersection(*ACTIVE_KINDS.values())


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
