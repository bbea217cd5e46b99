"""Parse-error positions on text spread over several lines.

``parse`` works out a line and column only for an error, from the scan's
whitespace and lexemes.  Generated formulas and their one-token mutants are
spelled with random runs of tabs, spaces, LF and CRLF between, before and
after the tokens, and every position ``parse`` reports is checked against
the tokens ``tokenize`` returns for the same text.
"""

from __future__ import annotations

import random
import re

import pytest

from tracelang import Logic, ParseError, Style, format_formula, parse, tokenize
from formula_gen import gen_formula

SEPARATORS = (" ", "\t", "\n", "\r\n", "  \n\t")
MUTATIONS = ("delete", "insert", "replace", "swap", "duplicate")
OPENER_AT = re.compile(r" at (\d+):(\d+)")


def lexeme_lists(logic: Logic, rng: random.Random) -> list[list[str]]:
    """The lexemes of generated formulas, and of one mutant of each per mutation."""
    texts = []
    for _ in range(40):
        tree = gen_formula(rng, logic, depth=rng.choice((1, 2, 3, 4, 5)))
        texts.extend(format_formula(tree, style) for style in Style)
    lexed = [[token.lexeme for token in tokenize(text, logic)] for text in texts]
    vocabulary = sorted({lexeme for lexemes in lexed for lexeme in lexemes})
    mutants = []
    for lexemes, kind in ((lexemes, kind) for lexemes in lexed for kind in MUTATIONS):
        out, i = list(lexemes), rng.randrange(len(lexemes))
        if kind == "delete":
            del out[i]
        elif kind == "insert":
            out.insert(i, rng.choice(vocabulary))
        elif kind == "replace":
            out[i] = rng.choice(vocabulary)
        elif kind == "swap" and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        elif kind == "duplicate":
            out.insert(i, out[i])
        mutants.append(out)
    return lexed + mutants + [[]]


def spelled(lexemes: list[str], rng: random.Random) -> str:
    """``lexemes`` with a random separator between each two, and maybe before and after."""
    text = "".join(rng.choice(SEPARATORS) + lexeme for lexeme in lexemes)
    text = text if rng.random() < 0.7 else text.lstrip(" \t\r\n")
    return text + rng.choice(SEPARATORS + ("",))


def outcome(text: str, logic: Logic):
    try:
        return repr(parse(text, logic)), None
    except ParseError as error:
        return None, error


def end_of_last_token(text: str, logic: Logic) -> tuple[int, int]:
    tokens = tokenize(text, logic)
    if not tokens:
        return 1, 1
    return tokens[-1].line, tokens[-1].column + len(tokens[-1].lexeme)


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_positions_on_multiline_text(logic):
    rng = random.Random(f"multi-line positions {logic.value}")
    problems, errors = [], 0
    for lexemes in lexeme_lists(logic, rng):
        text = spelled(lexemes, rng)
        tree, error = outcome(text, logic)
        flat_tree, flat = outcome(" ".join(lexemes), logic)
        if error is None or flat is None:
            if (tree, error) != (flat_tree, flat):
                problems.append(f"{text!r}: {tree or error} but spaced {flat_tree or flat}")
            continue
        errors += 1
        at = {(token.line, token.column): token.lexeme for token in tokenize(text, logic)}
        if error.found is not None:
            if at.get((error.line, error.column)) != error.found:
                problems.append(f"{text!r}: {error} names {error.found!r}, not a token there")
        elif (error.line, error.column) != end_of_last_token(text, logic):
            problems.append(f"{text!r}: {error} is not at the end of the last token")
        for opener in OPENER_AT.finditer(error.message):
            if (int(opener[1]), int(opener[2])) not in at:
                problems.append(f"{text!r}: {error} quotes an opener where no token starts")
        if (error.kind, error.found, OPENER_AT.sub("", error.message)) != (
            flat.kind, flat.found, OPENER_AT.sub("", flat.message)
        ):
            problems.append(f"{text!r}: {error!r} ({error.kind}), spaced {flat!r} ({flat.kind})")
    assert not problems, problems[:5]
    assert errors > 100


@pytest.mark.parametrize("text", ["", " ", "\n", "\r\n\t", "  \n\t\r\n"], ids=repr)
def test_blank_text_ends_at_its_start(text):
    with pytest.raises(ParseError) as error:
        parse(text, Logic.LTLF)
    assert (error.value.line, error.value.column, error.value.found) == (1, 1, None)


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("a &\r\n  (b |\r\n", "2:7: expected a formula after '|', but the input ended"),
        ("\n\n  (a\n\t& b\n\n", "4:5: missing ')' to match '(' at 3:3"),
        ("a\r\n\r\n)", "3:1: unmatched ')'"),
        ("\tG\n\t\tF\n", "2:4: expected a formula after keyword 'F', but the input ended"),
    ],
    ids=repr,
)
def test_crlf_and_tab_positions(text, expected):
    with pytest.raises(ParseError) as error:
        parse(text, Logic.LTLF)
    assert str(error.value) == expected
