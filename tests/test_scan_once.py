"""``parse`` scans its text once and builds no tokens.

The parser reads the kinds and lexemes of one scan; only a lexical error
sends it to ``tokenize``, which raises that error with its position.  So a
lexical error anywhere in the text is reported before any parse error,
even one that comes earlier in the text.
"""

from __future__ import annotations

import pytest

import tracelang.lexer
import tracelang.parser
from tracelang import LexError, Logic, ParseError, ParseErrorKind, parse, tokenize


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Count the calls to ``tokenize`` made through either module's name for it."""
    calls = []

    def counted(text, logic):
        calls.append(text)
        return tokenize(text, logic)

    monkeypatch.setattr(tracelang.lexer, "tokenize", counted)
    monkeypatch.setattr(tracelang.parser, "tokenize", counted, raising=False)
    return calls


def test_an_accepted_input_makes_no_tokenize_call(tokenize_calls):
    parse("G(a -> F b) & X[!] 'c'\n", Logic.LTLF)
    parse("<(a ; b)* + tt?>tt", Logic.LDLF)
    assert tokenize_calls == []


@pytest.mark.parametrize(
    ("text", "kind"),
    [
        ("a &\n  (b |", ParseErrorKind.UNEXPECTED_END),
        ("a b", ParseErrorKind.UNEXPECTED_TOKEN),
        ("(a", ParseErrorKind.UNBALANCED_DELIMITER),
        ("(" * 10_000 + "a" + ")" * 10_000, ParseErrorKind.NESTING_TOO_DEEP),
    ],
    ids=["end", "token", "closer", "deep"],
)
def test_a_parse_error_makes_no_tokenize_call(tokenize_calls, text, kind):
    with pytest.raises(ParseError) as error:
        parse(text, Logic.LTLF)
    assert error.value.kind is kind
    assert tokenize_calls == []


def lex_error(call, text: str):
    with pytest.raises(LexError) as error:
        call(text, Logic.LTLF)
    e = error.value
    return type(e), e.kind, e.message, e.line, e.column, e.offending


@pytest.mark.parametrize("text", ["a & $", "a\n  & 'b", "F first", "a & [b]"], ids=repr)
def test_a_lexical_error_makes_one_tokenize_call(tokenize_calls, text):
    assert lex_error(parse, text) == lex_error(tokenize, text)
    assert tokenize_calls == [text]


@pytest.mark.parametrize(
    "text", [") @", "a b $", "(" * 200 + "@"], ids=["unmatched", "extra", "deep"]
)
def test_a_lexical_error_wins_over_an_earlier_parse_error(text):
    assert lex_error(parse, text) == lex_error(tokenize, text)
