"""Which node classes the regex layer admits, written out by hand.

``test_evaluator_inventory`` pins each logic's formula level; this pins the
three places inside a modality.  Under LDLf and PLDLf, every node class is
tried as a modality's regex, as a step's formula and as a test's formula,
both through ``satisfies`` and through ``regex_reach`` in the logic's
direction.  Each is a minimal instance whose operands its place admits: a
step where a regex goes, and where a formula goes ``tt``, or an atom inside
a step.  An admitted class gives a verdict; any other is refused, itself and
not an operand, with the place's ``TypeError``.
"""

from __future__ import annotations

import re

import pytest

from test_evaluator_inventory import ADMITTED, NODE_CLASSES, REFUSALS
from tracelang.formulas import (
    Atom,
    BackDiamond,
    Binary,
    Diamond,
    Modal,
    Node,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Tautology,
    Unary,
)
from tracelang.lexer import Logic
from tracelang.semantics import Trace, regex_reach, satisfies

REGEX = {"RegexProp", "RegexTest", "RegexStar", "RegexConcat", "RegexUnion"}
STEP = RegexProp(Atom("a"))
DYNAMIC = {
    Logic.LDLF: (Diamond, "forward"),
    Logic.PLDLF: (BackDiamond, "backward"),
}


def minimal(cls: type, leaf: Node) -> Node:
    """The smallest node of ``cls`` with a step where a regex goes and
    ``leaf`` where a formula goes."""
    if cls is Atom:
        return Atom("a")
    if cls is RegexProp:
        return STEP
    if cls in (RegexConcat, RegexUnion):
        return cls(STEP, STEP)
    if cls is RegexStar:
        return cls(STEP)
    if issubclass(cls, Binary):
        return cls(leaf, leaf)
    if issubclass(cls, Unary):
        return cls(leaf)
    if issubclass(cls, Modal):
        return cls(STEP, leaf)
    return cls()


# each place inside a modality: the regex that holds a node there, the
# classes it admits, and how it refuses any other, under a dynamic logic
PLACES = {
    "regex": lambda node, logic: (node, REGEX, "not a regular-expression node"),
    "step": lambda node, logic: (RegexProp(node), ADMITTED[None], REFUSALS[None]),
    "test": lambda node, logic: (RegexTest(node), ADMITTED[logic], REFUSALS[logic]),
}


def test_the_regex_classes_are_node_classes():
    assert REGEX <= {cls.__name__ for cls in NODE_CLASSES}


@pytest.mark.parametrize("entry", ["satisfies", "regex_reach"])
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("logic", DYNAMIC, ids=str)
@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_each_place_in_a_regex_admits_exactly_its_node_classes(cls, logic, place, entry):
    modality, direction = DYNAMIC[logic]
    node = minimal(cls, Atom("a") if place == "step" else Tautology())
    regex, admitted, refusal = PLACES[place](node, logic)
    trace = Trace([["a"], []])
    if entry == "satisfies":
        run = lambda: satisfies(modality(regex, Tautology()), trace, logic)  # noqa: E731
    else:
        run = lambda: regex_reach(regex, trace, direction)  # noqa: E731
    if cls.__name__ in admitted:
        assert isinstance(run(), bool if entry == "satisfies" else frozenset)
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(f'{refusal}: {node!r}')}$"):
            run()
