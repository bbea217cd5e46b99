"""The single-pass parser against the backtracking parser it replaced, and
the nested-test input that made the backtracking one exponential.

The two parsers must accept the same inputs and build the same trees.  A
rejection reported at the same position must have the same kind and
message.  The single pass may report a rejection later than the backtracking
parser, never earlier: it follows a parenthesised step past its ')' where
the old parser fell back to reading the parentheses as a group.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from tracelang import LexError, Logic, ParseError, Style, format_formula, parse, tokenize
from backtracking_oracle import parse as backtracking_parse
from formula_gen import gen_formula

DYNAMIC = (Logic.LDLF, Logic.PLDLF)
MUTATIONS = ("delete", "insert", "replace", "swap", "duplicate")


def outcome(parser, text: str, logic: Logic):
    try:
        return repr(parser(text, logic)), None
    except (LexError, ParseError) as error:
        return None, error


def disagreement(text: str, logic: Logic) -> str | None:
    """How the two parsers break the rule above on ``text``, or None."""
    old_tree, old = outcome(backtracking_parse, text, logic)
    new_tree, new = outcome(parse, text, logic)
    if old is None or new is None:
        if (old_tree, str(old)) != (new_tree, str(new)):
            return f"{logic} {text!r}: {old_tree or old} became {new_tree or new}"
        return None
    old_at, new_at = (old.line, old.column), (new.line, new.column)
    if new_at < old_at:
        return f"{logic} {text!r}: rejected earlier: {old} became {new}"
    if new_at == old_at and (type(old), old.kind, old.message) != (type(new), new.kind, new.message):
        return f"{logic} {text!r}: {old!r} ({old.kind}) became {new!r} ({new.kind})"
    return None


def generated_texts(logic: Logic) -> list[str]:
    rng = random.Random(f"single pass {logic.value}")
    texts = []
    for _ in range(60):
        tree = gen_formula(rng, logic, depth=rng.choice((2, 3, 4, 5)))
        texts.extend(format_formula(tree, style) for style in Style)
    return texts


def mutant(lexemes: list[str], kind: str, vocabulary: list[str], rng: random.Random) -> str:
    out = list(lexemes)
    i = rng.randrange(len(out))
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
    return " ".join(out)


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_generated_formulas_and_their_mutants_parse_alike(logic):
    rng = random.Random(f"mutants {logic.value}")
    texts = generated_texts(logic)
    lexed = [[token.lexeme for token in tokenize(text, logic)] for text in texts]
    vocabulary = sorted({lexeme for lexemes in lexed for lexeme in lexemes})
    inputs = texts + [
        mutant(lexemes, kind, vocabulary, rng) for lexemes in lexed for kind in MUTATIONS
    ]
    problems = [problem for text in inputs if (problem := disagreement(text, logic))]
    assert not problems, problems[:5]


@pytest.mark.parametrize("logic", DYNAMIC, ids=str)
def test_every_short_token_sequence_parses_alike(logic):
    opener, closer = ("<", ">") if logic is Logic.LDLF else ("<<", ">>")
    vocabulary = ("a", "true", "tt", "!", "&", "(", ")", opener, closer, "?", ";", "*")
    problems = [
        problem
        for length in range(1, 5)
        for sequence in itertools.product(vocabulary, repeat=length)
        if (problem := disagreement(" ".join(sequence), logic))
    ]
    assert not problems, problems[:5]


def test_a_parenthesised_step_is_followed_past_its_parenthesis():
    # the backtracking parser read "(a)" as a group and stopped at '&'
    text = "<(a) & tt>tt"
    with pytest.raises(ParseError) as old:
        backtracking_parse(text, Logic.LDLF)
    with pytest.raises(ParseError) as new:
        parse(text, Logic.LDLF)
    assert str(old.value) == "1:6: expected '>' to match '<' at 1:1, found '&'"
    assert str(new.value) == "1:8: expected a propositional formula, found 'tt'"


@pytest.mark.parametrize("style", list(Style), ids=lambda style: style.value)
def test_nested_tests_parse_in_linear_time(style):
    # 0.4 s at depth 12 and 60 s at depth 20 for the backtracking parser
    depth = 30
    text = "<" + "(<" * depth + "a" + ">tt?)" * depth + ">tt"
    text = format_formula(parse(text, Logic.LDLF), style)
    start = time.perf_counter()
    parse(text, Logic.LDLF)
    assert time.perf_counter() - start < 1.0
