"""Node identity, tree helpers, and the position-formula rewrites."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError

import pytest

from tracelang import (
    Always,
    And,
    Atom,
    Before,
    Diamond,
    End,
    FalseConst,
    First,
    Historically,
    Last,
    Logic,
    Not,
    RegexProp,
    RegexStar,
    RegexTest,
    Start,
    Trace,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    atoms,
    children,
    desugar,
    node_count,
    walk,
)
from formula_gen import gen_formula


def test_structural_equality_and_hashing():
    assert Until(Atom("a"), Atom("b")) == Until(Atom("a"), Atom("b"))
    assert Until(Atom("a"), Atom("b")) != Until(Atom("b"), Atom("a"))
    assert hash(And(Atom("x"), TrueConst())) == hash(And(Atom("x"), TrueConst()))
    assert TrueConst() != FalseConst()
    assert Last() != End()
    assert Until(Atom("a"), Atom("b")) != WeakUntil(Atom("a"), Atom("b"))
    assert Not(Atom("a")) != RegexStar(Atom("a"))
    assert Until(left=Atom("a"), right=Atom("b")) == Until(Atom("a"), Atom("b"))


def test_quoting_is_invisible_to_equality():
    assert Atom("a", quoted=True) == Atom("a")
    assert hash(Atom("a", quoted=True)) == hash(Atom("a"))
    assert Atom("U", quoted=True) != Atom("V", quoted=True)
    assert len({Atom("a"), Atom("a", quoted=True)}) == 1


def test_nodes_are_immutable():
    with pytest.raises(FrozenInstanceError):
        Atom("a").name = "b"
    node = Not(Atom("a"))
    with pytest.raises(FrozenInstanceError):
        del node.arg
    with pytest.raises(FrozenInstanceError):
        Trace([{"a"}]).steps = ()


def test_each_shape_shows_its_fields_and_takes_exactly_them():
    a, b = Atom("a"), Atom("b")
    assert repr(TrueConst()) == "TrueConst()"
    assert repr(Atom("x y", quoted=True)) == "Atom(name='x y', quoted=True)"
    assert repr(Not(a)) == "Not(arg=Atom(name='a', quoted=False))"
    assert repr(Until(a, b)) == (
        "Until(left=Atom(name='a', quoted=False), right=Atom(name='b', quoted=False))"
    )
    assert repr(Diamond(RegexProp(a), b)) == (
        "Diamond(regex=RegexProp(prop=Atom(name='a', quoted=False)), "
        "arg=Atom(name='b', quoted=False))"
    )
    assert repr(Trace([{"a"}, ()])) == "Trace(steps=(frozenset({'a'}), frozenset()))"
    match Diamond(RegexProp(a), Until(a, b)):  # positional patterns follow the fields
        case Diamond(RegexProp(x), Until(y, z)):
            assert (x, y, z) == (a, a, b)
        case _:
            pytest.fail("no positional match")
    for make in (
        lambda: TrueConst(a),
        lambda: Atom(),
        lambda: Not(a, b),
        lambda: Until(a),
        lambda: Diamond(RegexProp(a)),
        lambda: RegexProp(a, b),
    ):
        with pytest.raises(TypeError):
            make()


def test_children_in_field_order():
    node = Diamond(RegexProp(Atom("a")), Atom("b"))
    assert children(node) == (RegexProp(Atom("a")), Atom("b"))
    assert children(Atom("a")) == ()
    assert children(Not(Last())) == (Last(),)


def test_walk_is_preorder():
    node = And(Not(Atom("a")), Atom("b"))
    assert list(walk(node)) == [node, Not(Atom("a")), Atom("a"), Atom("b")]


def test_atoms_sees_through_regexes_and_tests():
    node = Diamond(RegexStar(RegexTest(Atom("t"))), And(Atom("a"), Atom("a")))
    assert atoms(node) == {"t", "a"}
    assert atoms(TrueConst()) == frozenset()


def test_node_count():
    assert node_count(Atom("a")) == 1
    assert node_count(Until(Atom("a"), Not(Atom("b")))) == 4


def test_position_formula_rewrites():
    assert desugar(Last()) == WeakNext(FalseConst())
    assert desugar(End()) == Always(FalseConst())
    assert desugar(First()) == Not(Before(TrueConst()))
    assert desugar(Start()) == Historically(FalseConst())
    nested = And(Last(), Not(First()))
    assert desugar(nested) == And(
        WeakNext(FalseConst()), Not(Not(Before(TrueConst())))
    )


def test_rewrite_leaves_other_nodes_alone():
    node = Until(Atom("a"), Diamond(RegexProp(Atom("b")), Atom("c")))
    assert desugar(node) == node


def grown_size(node):
    from tracelang import Node

    total = 0
    stack = [node]
    while stack:
        current = stack.pop()
        total += 1
        if isinstance(current, Last) or isinstance(current, End) or isinstance(current, Start):
            total += 1  # operator over a constant
        elif isinstance(current, First):
            total += 2  # negation, operator, constant
        for value in vars(current).values():
            if isinstance(value, Node):
                stack.append(value)
    return total


def test_rewrite_size_matches_an_independent_count():
    rng = random.Random(20260822)
    logics = [Logic.LTLF, Logic.PLTLF, Logic.LDLF, Logic.PLDLF]
    for trial in range(200):
        logic = logics[trial % 4]
        node = gen_formula(rng, logic, ("p", "q"), depth=4)
        rewritten = desugar(node)
        assert node_count(rewritten) == grown_size(node)
        assert desugar(rewritten) == rewritten


def test_rewrite_is_idempotent_on_examples():
    for node in [Last(), End(), First(), Start(), And(Last(), First())]:
        once = desugar(node)
        assert desugar(once) == once
