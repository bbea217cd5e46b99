"""The nesting-depth limit: deep input is refused with a position, and every
tree the parser accepts can be printed, serialised, hashed and evaluated
without running out of Python stack."""

from __future__ import annotations

import sys

import pytest

from tracelang import (
    Logic,
    ParseError,
    Style,
    Trace,
    children,
    format_formula,
    formula_to_dict,
    parse,
    satisfies,
)
from tracelang.cli import main
from tracelang.parser import MAX_DEPTH, ParseErrorKind

DEEP = 10**5
LEAF = {Logic.LTLF: "a", Logic.PLTLF: "a", Logic.LDLF: "tt", Logic.PLDLF: "tt"}
BRACKETS = {Logic.LDLF: ("<", ">"), Logic.PLDLF: ("<<", ">>")}


def shapes(logic: Logic) -> dict:
    """Each shape of nesting as a function from a count to formula text."""
    leaf = LEAF[logic]
    made = {
        "parentheses": lambda n: "(" * n + leaf + ")" * n,
        "prefix": lambda n: "!" * n + leaf,
        "right chain": lambda n: "->".join([leaf] * n),
        "left chain": lambda n: "&".join([leaf] * n),
    }
    if logic in BRACKETS:
        opener, closer = BRACKETS[logic]
        made["nested modality"] = lambda n: f"{opener}a{closer}" * n + "tt"
        made["nested test"] = lambda n: (
            opener + f"({opener}" * n + "a" + f"{closer}tt?)" * n + closer + "tt"
        )
    return made


CASES = [(logic, name) for logic in Logic for name in shapes(logic)]


def height(node) -> int:
    best, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        stack.extend((child, level + 1) for child in children(node))
    return best


def paren_depth(text: str) -> int:
    depth = deepest_so_far = 0
    for c in text:
        depth += {"(": 1, ")": -1}.get(c, 0)
        deepest_so_far = max(deepest_so_far, depth)
    return deepest_so_far


def from_deep_stack(call, frames: int = 100):
    """``call()`` made from ``frames`` more nested Python frames."""
    return call() if frames == 0 else from_deep_stack(call, frames - 1)


def refusal(text: str, logic: Logic) -> ParseError:
    with pytest.raises(ParseError) as caught:
        parse(text, logic)
    assert caught.value.kind is ParseErrorKind.NESTING_TOO_DEEP, caught.value
    return caught.value


def deepest(make, logic: Logic) -> int:
    """The largest count whose text the parser accepts."""
    low, high = 1, MAX_DEPTH + 1
    while high - low > 1:
        middle = (low + high) // 2
        try:
            parse(make(middle), logic)
            low = middle
        except ParseError:
            high = middle
    return low


@pytest.mark.parametrize("logic", list(Logic), ids=str)
@pytest.mark.parametrize("name", ["parentheses", "right chain", "left chain"])
def test_very_deep_input_is_refused_inside_the_input(logic, name):
    text = shapes(logic)[name](DEEP)
    error = refusal(text, logic)
    assert error.line == 1 and 1 <= error.column <= len(text)
    assert error.found == text[error.column - 1 : error.column - 1 + len(error.found)]


@pytest.mark.parametrize("logic", list(BRACKETS), ids=str)
def test_a_modality_one_level_too_deep_is_refused_at_its_opener(logic):
    opener, closer = BRACKETS[logic]
    error = refusal("!" * (MAX_DEPTH - 1) + f"{opener}a{closer}tt", logic)
    assert (error.line, error.column, error.found) == (1, MAX_DEPTH, opener)


@pytest.mark.parametrize("command, logic, name, count", [
    ("check", Logic.LTLF, "parentheses", DEEP),
    ("fmt", Logic.PLTLF, "left chain", DEEP),
    ("ast", Logic.LDLF, "right chain", DEEP),
    # accepted by `check` before the limit, yet too deep for the printer and
    # the serialiser, which recurse through the chain
    ("fmt", Logic.LTLF, "left chain", 600),
    ("ast", Logic.PLDLF, "left chain", 600),
])
def test_the_command_line_refuses_deep_input_in_one_line(
        capsys, tmp_path, command, logic, name, count):
    source = tmp_path / "deep.txt"
    source.write_text(shapes(logic)[name](count))
    assert main([command, "--logic", logic.value, str(source)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize("logic, name", CASES, ids=lambda case: str(case))
def test_the_deepest_accepted_tree_is_safe_for_every_consumer(logic, name):
    assert sys.getrecursionlimit() == 1000
    make = shapes(logic)[name]
    n = deepest(make, logic)
    refusal(make(n + 1), logic)
    tree = from_deep_stack(lambda: parse(make(n), logic))
    if name == "parentheses":
        assert n == MAX_DEPTH
    else:
        assert MAX_DEPTH - 1 <= height(tree) <= MAX_DEPTH
        # the parser recurses deepest with parentheses around the deepest tree
        room = MAX_DEPTH - paren_depth(make(n))
        wrapped = "(" * room + make(n) + ")" * room
        assert from_deep_stack(lambda: parse(wrapped, logic)) == tree
    for style in Style:
        text = from_deep_stack(lambda: format_formula(tree, style))
        assert from_deep_stack(lambda: parse(text, logic)) == tree
    from_deep_stack(lambda: formula_to_dict(tree))
    from_deep_stack(lambda: hash(tree))
    from_deep_stack(lambda: satisfies(tree, Trace([{"a"}, set()]), logic))
