"""Which node classes each logic's evaluator admits, written out by hand.

The evaluator derives each logic's inventory from the front end's tables, so
these sets are literal: a derivation that admits, say, ``Atom`` at LDLf
formula level, or drops ``tt`` from LTLf, shows up here.  Every node class
is tried in every logic on a minimal instance whose operands that logic
admits; an admitted class gives a verdict and any other is refused with the
logic's ``TypeError``.
"""

from __future__ import annotations

import re

import pytest

from tracelang import formulas
from tracelang.formulas import Atom, Binary, Modal, Node, RegexProp, Tautology, Unary
from tracelang.lexer import Logic
from tracelang.semantics import Trace, eval_prop, satisfies

BOOLEAN = {"Not", "And", "Or", "Implies", "Equiv", "Xor"}
STEP = BOOLEAN | {"Atom", "TrueConst", "FalseConst"}
ADMITTED = {
    None: STEP,
    Logic.LTLF: STEP | {"Tautology", "Contradiction", "Last", "End", "WeakNext", "StrongNext",
                        "Until", "WeakUntil", "Release", "StrongRelease", "Eventually",
                        "Always"},
    Logic.PLTLF: STEP | {"Tautology", "Contradiction", "First", "Start", "Before", "Since",
                         "Once", "Historically"},
    Logic.LDLF: BOOLEAN | {"Tautology", "Contradiction", "Diamond", "Box"},
    Logic.PLDLF: BOOLEAN | {"Tautology", "Contradiction", "BackDiamond", "BackBox"},
}
REFUSALS = {
    None: "not a propositional formula",
    Logic.LTLF: "not an LTLf formula",
    Logic.PLTLF: "not a PLTLf formula",
    Logic.LDLF: "not an LDLf formula at formula level",
    Logic.PLDLF: "not a PLDLf formula at formula level",
}
NODE_CLASSES = [
    cls for cls in map(formulas.__dict__.get, formulas.__all__)
    if isinstance(cls, type) and issubclass(cls, Node) and cls is not Node
]


def minimal(cls: type, leaf: Node) -> Node:
    """The smallest node of ``cls`` whose formula operands are ``leaf``."""
    if cls is Atom:
        return Atom("a")
    if cls is RegexProp:
        return RegexProp(Atom("a"))
    if issubclass(cls, Binary):
        return cls(leaf, leaf)
    if issubclass(cls, Unary):
        return cls(leaf)
    if issubclass(cls, Modal):
        return cls(RegexProp(Atom("a")), leaf)
    return cls()


def evaluate(node: Node, logic: Logic | None) -> bool:
    if logic is None:
        return eval_prop(node, {"a"})
    return satisfies(node, Trace([["a"], []]), logic)


def test_every_node_class_is_tried():
    assert len(NODE_CLASSES) == 36
    names = {cls.__name__ for cls in NODE_CLASSES}
    assert set().union(*ADMITTED.values()) < names


@pytest.mark.parametrize("logic", [None, *Logic], ids=str)
@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_a_logic_admits_exactly_its_node_classes(logic, cls):
    # the dynamic logics have no atom at formula level, so tt stands in for one
    leaf = Tautology() if logic in (Logic.LDLF, Logic.PLDLF) else Atom("a")
    node = minimal(cls, leaf)
    if cls.__name__ in ADMITTED[logic]:
        assert isinstance(evaluate(node, logic), bool)
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(REFUSALS[logic])}: "):
            evaluate(node, logic)
