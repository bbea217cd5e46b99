"""The pattern scanner against the character-at-a-time lexer it replaced, and
inputs that would make a backtracking pattern slow.

Both must return the same tokens, kind, lexeme and position alike, or raise
the same ``LexError``: kind, message, position and offending text.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from tracelang import LexError, LexErrorKind, Logic, Style, format_formula, tokenize
from formula_gen import gen_formula
from scanning_oracle import tokenize as oracle_tokenize

# every character of a symbolic spelling, the letters and quotes that start
# the other tokens, whitespace, and characters formula text may not contain
SYMBOL_CHARACTERS = "<->=&|[]!~^()?;+*"
ALPHABET = SYMBOL_CHARACTERS + "Xa1B\"' \t\n\r\x00é"
MUTATIONS = ("delete", "insert", "replace", "swap", "duplicate")
# lexemes a mutant may bring in besides the text's own
STRAYS = ('"', "'", "X[", "X[!]", "<<", "[[", "-", "=", "1", "B", "\x00", "\x0b", "\xa0", "é", "\n", "\r")
LARGE = 10**5


def outcome(lex, text: str, logic: Logic):
    try:
        return lex(text, logic)  # both lexers build tracelang's Token
    except LexError as error:
        return error.kind, error.message, error.line, error.column, error.offending


def disagreements(texts, logic: Logic) -> list[str]:
    return [
        f"{logic} {text!r}: {old} became {new}"
        for text in texts
        if (old := outcome(oracle_tokenize, text, logic)) != (new := outcome(tokenize, text, logic))
    ]


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_every_short_string_lexes_alike(logic):
    texts = (
        "".join(chars)
        for length in range(1, 5)
        for chars in itertools.product(ALPHABET, repeat=length)
    )
    problems = disagreements(texts, logic)
    assert not problems, problems[:5]


def mutant(text: str, logic: Logic, kind: str, rng: random.Random) -> str:
    """``text`` with one token deleted, inserted, replaced, swapped or doubled,
    the whitespace around it kept."""
    spans = [(t.column - 1, t.column - 1 + len(t.lexeme)) for t in tokenize(text, logic)]
    lexemes = [text[a:b] for a, b in spans] + list(STRAYS)
    i = rng.randrange(len(spans))
    start, end = spans[i]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "insert":
        return text[:start] + rng.choice(lexemes) + text[start:]
    if kind == "replace":
        return text[:start] + rng.choice(lexemes) + text[end:]
    if kind == "swap" and i + 1 < len(spans):
        after, after_end = spans[i + 1]
        return text[:start] + text[after:after_end] + text[end:after] + text[start:end] + text[after_end:]
    return text[:start] + text[start:end] + text[start:]


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_generated_formulas_and_their_mutants_lex_alike(logic):
    rng = random.Random(f"scanning {logic.value}")
    texts = [
        format_formula(gen_formula(rng, logic, depth=rng.choice((2, 3, 4, 5))), style)
        for _ in range(60)
        for style in Style
    ]
    mutants = [mutant(text, logic, kind, rng) for text in texts for kind in MUTATIONS]
    problems = disagreements(texts + mutants, logic)
    assert not problems, problems[:5]


# ------------------------------------------------------------ linear time


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_long_inputs_lex_in_linear_time(logic):
    # the smaller size first, so that a quadratic scanner fails in seconds
    for size in (LARGE // 10, LARGE):
        for text in [
            "(" * size,
            "a" * size,
            '"' + "a" * size,
            " " * size + "#",
            "<" * size,
            "a" + " " * size,
        ]:
            start = time.perf_counter()
            outcome(tokenize, text, logic)
            seconds = time.perf_counter() - start
            assert seconds < 1.0, (logic, size, text[:3], seconds)


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_long_inputs_lex_to_the_expected_result(logic):
    assert len(tokenize("(" * LARGE, logic)) == LARGE
    assert tokenize("a" * LARGE, logic)[0].lexeme == "a" * LARGE
    assert outcome(tokenize, "'" + "a" * LARGE, logic) == (
        LexErrorKind.UNTERMINATED_QUOTE, "unterminated quoted atom", 1, 1, "'"
    )
    assert outcome(tokenize, " " * LARGE + "#", logic) == (
        LexErrorKind.ILLEGAL_CHARACTER, "illegal character '#'", 1, LARGE + 1, "#"
    )


def test_a_long_run_of_inactive_diamonds_fails_at_its_start():
    assert outcome(tokenize, "<" * LARGE, Logic.LTLF) == (
        LexErrorKind.UNKNOWN_OPERATOR, "operator '<<' is not part of ltlf syntax", 1, 1, "<<"
    )
