"""The nesting limit holds for every tree, not only for parsed ones.

Each node knows its ``depth`` and its constructor refuses to go past
``MAX_DEPTH``, so a tree built by hand is never deeper than the parser
allows, and every consumer of a tree runs within Python's default recursion
limit on any tree that can be built.  Every call here is made from a stack
100 frames deep.
"""

from __future__ import annotations

import copy
import pickle
import random
import re
import sys

import pytest

from formula_gen import gen_formula
from tracelang import (
    And,
    Atom,
    BackBox,
    BackDiamond,
    Before,
    Box,
    Contradiction,
    Diamond,
    Historically,
    Logic,
    Not,
    Once,
    Or,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Since,
    Style,
    Tautology,
    Trace,
    Until,
    WeakNext,
    atoms,
    children,
    desugar,
    format_formula,
    formula_to_dict,
    node_count,
    parse,
    satisfies,
    walk,
)
from tracelang import formulas, parser
from tracelang.parser import MAX_DEPTH

a, b, tt = Atom("a"), Atom("b"), Tautology()


def from_deep_stack(call, frames: int = 100):
    """``call()`` made from ``frames`` more nested Python frames."""
    return call() if frames == 0 else from_deep_stack(call, frames - 1)


def height(node) -> int:
    """The levels of the tree under ``node``, counted without recursion."""
    best, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        stack.extend((child, level + 1) for child in children(node))
    return best


def size(node) -> int:
    count, stack = 0, [node]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    return count


def grow(leaf, steps, levels: int, reached: list):
    """Apply ``steps`` in turn to ``leaf`` ``levels`` times, noting each tree."""
    tree = leaf
    for level in range(levels):
        tree = steps[level % len(steps)](tree)
        reached.append(tree)
    return tree


def test_the_limit_is_one_object_for_the_parser_and_the_nodes():
    assert parser.MAX_DEPTH is formulas.MAX_DEPTH == 150


# ------------------------------------------------------- hand-built chains

# each step adds one level
CHAINS = {
    "not": (a, [Not]),
    "left and": (a, [lambda t: And(t, a)]),
    "nested diamond": (Diamond(RegexProp(a), tt), [lambda t: Diamond(RegexProp(a), t)]),
    "test in modality": (tt, [RegexTest, lambda r: Box(r, tt)]),
}


@pytest.mark.parametrize("name", list(CHAINS))
def test_a_hand_built_chain_is_refused_at_the_level_past_the_limit(name):
    leaf, steps = CHAINS[name]
    reached = []
    with pytest.raises(ValueError, match=f"^the tree nests deeper than {MAX_DEPTH} levels$"):
        from_deep_stack(lambda: grow(leaf, steps, 10**4, reached))
    # the tree refused would have been level 151
    assert len(reached) == MAX_DEPTH - leaf.depth
    assert reached[-1].depth == height(reached[-1]) == MAX_DEPTH


# ----------------------------------------------------- the deepest trees

# (logic, leaf, steps applied in turn, a wrapper that makes the root a formula)
SHAPES = {
    "not": (Logic.LTLF, a, [Not], None),
    "left and": (Logic.LTLF, a, [lambda t: And(t, b)], None),
    "right until": (Logic.LTLF, b, [lambda t: Until(a, t)], None),
    "past mix": (Logic.PLTLF, a, [Before, lambda t: Since(t, b), Once, Historically], None),
    "nested diamond": (Logic.LDLF, tt, [lambda t: Diamond(RegexProp(a), t)], None),
    "tests in back boxes": (Logic.PLDLF, tt, [lambda t: BackBox(RegexTest(t), tt)], None),
    "stars of tests": (
        Logic.LDLF, tt, [lambda t: Diamond(RegexStar(RegexStar(RegexTest(t))), tt)], None),
    "concat chain": (
        Logic.LDLF, RegexProp(a), [lambda r: RegexConcat(r, RegexProp(b))],
        lambda r: Diamond(r, tt)),
    "union under star": (
        Logic.PLDLF, RegexProp(a), [lambda r: RegexUnion(RegexProp(b), r), RegexStar],
        lambda r: BackDiamond(r, Contradiction())),
    "step formula": (
        Logic.LDLF, a, [Not, lambda t: Or(b, t), lambda t: And(t, a)],
        lambda f: Box(RegexProp(f), tt)),
}


def deepest(name: str):
    """The deepest tree of the shape whose root is a formula."""
    logic, leaf, steps, top = SHAPES[name]
    trees = [leaf]
    try:
        grow(leaf, steps, 10**4, trees)
    except ValueError:
        pass
    for tree in reversed(trees):
        try:
            return top(tree) if top else tree
        except ValueError:
            pass
    raise AssertionError("no tree of the shape fits")


@pytest.mark.parametrize("name", list(SHAPES))
def test_the_deepest_tree_goes_through_every_consumer(name):
    assert sys.getrecursionlimit() == 1000
    logic = SHAPES[name][0]
    tree = deepest(name)
    twin = deepest(name)
    assert tree is not twin
    assert MAX_DEPTH - 3 <= tree.depth == height(tree) <= MAX_DEPTH
    for style in Style:
        text = from_deep_stack(lambda: format_formula(tree, style))
        assert from_deep_stack(lambda: parse(text, logic)) == tree
    assert from_deep_stack(lambda: formula_to_dict(tree)) == formula_to_dict(twin)
    verdict = from_deep_stack(lambda: satisfies(tree, Trace([{"a"}, {"b"}, set()]), logic))
    assert isinstance(verdict, bool)
    assert from_deep_stack(lambda: sum(1 for _ in walk(tree))) == size(tree)
    assert from_deep_stack(lambda: node_count(tree)) == size(tree)
    assert from_deep_stack(lambda: atoms(tree)) <= {"a", "b"}
    assert from_deep_stack(lambda: desugar(tree)) == tree
    assert from_deep_stack(lambda: hash(tree)) == hash(twin)
    assert from_deep_stack(lambda: tree == twin)
    assert from_deep_stack(lambda: repr(tree)) == repr(twin)
    duplicate = from_deep_stack(lambda: copy.deepcopy(tree))
    assert duplicate == tree and duplicate.depth == tree.depth
    thawed = from_deep_stack(lambda: pickle.loads(pickle.dumps(tree)))
    assert thawed == tree and thawed.depth == tree.depth


# ------------------------------------------------------------ the depths


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_depth_is_the_height_of_every_generated_tree(logic):
    rng = random.Random(f"depth {logic}")
    for _ in range(200):
        for node in walk(gen_formula(rng, logic, depth=rng.randint(1, 7))):
            assert node.depth == height(node)


@pytest.mark.parametrize("make, stranger", [
    (lambda: Not("a"), "a"),
    (lambda: WeakNext(None), None),
    (lambda: And(a, "a"), "a"),
    (lambda: Until(3, b), 3),
    (lambda: Diamond("a", tt), "a"),
    (lambda: Box(RegexProp(a), [a]), [a]),
    (lambda: RegexProp("a"), "a"),
    (lambda: RegexStar(None), None),
], ids=["Not", "WeakNext", "And right", "Until left", "Diamond regex", "Box arg", "RegexProp",
        "RegexStar"])
def test_an_operand_that_is_not_a_node_is_refused(make, stranger):
    with pytest.raises(TypeError, match=f"^not a syntax-tree node: {re.escape(repr(stranger))}$"):
        make()


def test_desugar_refuses_a_rewrite_past_the_limit():
    fits = parse("!" * 148 + "last", Logic.LTLF)
    assert from_deep_stack(lambda: desugar(fits)).depth == MAX_DEPTH
    full = parse("!" * 149 + "last", Logic.LTLF)
    assert full.depth == MAX_DEPTH
    with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
        from_deep_stack(lambda: desugar(full))
