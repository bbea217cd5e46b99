"""The tokeniser tracelang shipped before it scanned with one compiled pattern
per logic, kept as a differential oracle for that scanner.

``_Lexer`` is the earlier class verbatim.  It walks the text one character
at a time and tries every symbolic spelling with ``str.startswith`` at each
symbol, so it is slow but plain to read.  It reads the shared keyword,
spelling and activation tables of ``tracelang.lexer``, and keeps the
character sets that only it uses here.
"""

from __future__ import annotations

from tracelang.lexer import (
    _LETTER_KEYWORDS,
    _NAME_CONT,
    _NAME_START,
    _SYMBOL_OPS,
    _WORD_KEYWORDS,
    ACTIVE_KINDS,
    LexError,
    LexErrorKind,
    Logic,
    Token,
    TokenKind,
    is_input_char,
)

_K = TokenKind
_WHITESPACE = frozenset(" \t\n\r")
_QUOTES = frozenset("\"'")


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
    return _Lexer(text, logic).run()
