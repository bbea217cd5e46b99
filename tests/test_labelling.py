"""The labelling evaluator: agreement with the recursive evaluators it
replaced, its running time on inputs that blew the old ones up, and the
type checks it makes on every node."""

from __future__ import annotations

import copy
import gc
import random
import time
import weakref

import pytest

import tracelang.semantics as semantics
from tracelang import (
    Always,
    And,
    Atom,
    Before,
    Diamond,
    EmptyTraceError,
    Eventually,
    FalseConst,
    Historically,
    Logic,
    Not,
    Once,
    Or,
    PositionOutOfRangeError,
    RegexProp,
    Release,
    Since,
    StrongNext,
    StrongRelease,
    Tautology,
    Trace,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    eval_prop,
    parse,
    satisfies,
)
from conftest import all_traces
from formula_gen import gen_formula
from recursive_oracle import evaluate

p, q = Atom("p"), Atom("q")

EVALUATORS = {
    Logic.LTLF: eval_ltlf,
    Logic.PLTLF: eval_pltlf,
    Logic.LDLF: eval_ldlf,
    Logic.PLDLF: eval_pldlf,
}


def positions(logic, n):
    """Every legal position: the dynamic logics add ``n`` and ``-1``."""
    if logic is Logic.LDLF:
        return range(0, n + 1)
    if logic is Logic.PLDLF:
        return range(-1, n)
    return range(0, n)


# ------------------------------------------------------ differential oracle


@pytest.mark.parametrize("logic", list(Logic), ids=lambda logic: logic.value)
def test_labelling_agrees_with_the_recursive_evaluators(logic):
    rng = random.Random(7411)
    formulas = [gen_formula(rng, logic, ("p", "q"), depth=rng.choice((2, 3, 4)))
                for _ in range(48)]
    evaluate_at = EVALUATORS[logic]
    for trace in all_traces(range(0, 5)):
        for f in formulas:
            for i in positions(logic, len(trace)):
                got = evaluate_at(f, trace, i)
                assert got == evaluate(f, trace, logic, i), (f, trace.steps, i)
            if len(trace) or logic in (Logic.LDLF, Logic.PLDLF):
                anchor = len(trace) - 1 if logic in (Logic.PLTLF, Logic.PLDLF) else 0
                assert satisfies(f, trace, logic) == evaluate(f, trace, logic, anchor)


TEMPORAL = {
    Logic.LTLF: ((WeakNext, StrongNext, Eventually, Always),
                 (Until, WeakUntil, Release, StrongRelease)),
    Logic.PLTLF: ((Before, Once, Historically), (Since,)),
}


@pytest.mark.parametrize("logic", list(TEMPORAL), ids=lambda logic: logic.value)
def test_every_temporal_operator_agrees_alone_and_nested_once(logic):
    unary, binary = TEMPORAL[logic]
    alone = [op(p) for op in unary] + [op(p, q) for op in binary]
    formulas = alone + [
        nested
        for f in alone
        for nested in [op(f) for op in unary]
        + [op(f, q) for op in binary] + [op(q, f) for op in binary]
    ]
    for trace in all_traces(range(1, 5)):
        for f in formulas:
            for i in range(len(trace)):
                got = EVALUATORS[logic](f, trace, i)
                assert got == evaluate(f, trace, logic, i), (f, trace.steps, i)


# ------------------------------------------------------------- blow-ups


def timed(work):
    start = time.perf_counter()
    result = work()
    return result, time.perf_counter() - start


def test_nested_since_at_every_position_is_fast():
    rng = random.Random(5)
    trace = Trace([{a for a in "pqr" if rng.random() < 0.4} for _ in range(200)])
    f = parse("(p S q) S r", Logic.PLTLF)
    verdicts, elapsed = timed(
        lambda: [eval_pltlf(f, trace, i) for i in range(len(trace))])
    assert elapsed < 2.0
    assert verdicts[:12] == [evaluate(f, trace, Logic.PLTLF, i) for i in range(12)]


def test_star_under_a_box_is_fast():
    # b only at the last step; true* also reaches the position past it,
    # where no step is left to take, so the box fails everywhere
    trace = Trace([set()] * 79 + [{"b"}])
    f = parse("[true*]<true*;b>tt", Logic.LDLF)
    g = parse("<true*;b>tt", Logic.LDLF)
    (boxes, diamonds), elapsed = timed(lambda: (
        [eval_ldlf(f, trace, i) for i in range(len(trace) + 1)],
        [eval_ldlf(g, trace, i) for i in range(len(trace) + 1)],
    ))
    assert elapsed < 2.0
    assert boxes == [False] * 81
    assert diamonds == [True] * 80 + [False]


def test_globally_until_is_fast():
    trace = Trace([{"a"}] * 399 + [{"a", "b"}])
    f = parse("G(a U b)", Logic.LTLF)
    (holds, broken), elapsed = timed(lambda: (
        eval_ltlf(f, trace, 0),
        eval_ltlf(f, Trace([{"a"}] * 400), 0),
    ))
    assert elapsed < 2.0
    assert (holds, broken) == (True, False)


# --------------------------------------------------------- labelling once


def test_one_labelling_serves_every_position_and_only_the_last_is_kept(monkeypatch):
    labelled, built = [], []  # the programs run, and the labellers built
    program_of = semantics._program

    def counting_program(node, logic):
        program = program_of(node, logic)

        def run(s):
            labelled.append(node)
            return program(s)

        return run

    class Counting(semantics._Labeller):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(semantics, "_program", counting_program)
    monkeypatch.setattr(semantics, "_Labeller", Counting)
    trace = Trace([{"p"}, {"q"}, {"p"}, set()])
    f, g = Since(p, q), Since(q, p)
    for i in range(len(trace)):
        eval_pltlf(f, trace, i)
    assert (len(labelled), len(built)) == (1, 1)
    eval_pltlf(g, trace, 0)
    eval_pltlf(f, trace, 0)
    # each formula is labelled again, on the one labeller of the trace
    assert (len(labelled), len(built)) == (3, 1)
    # an equal but distinct trace is labelled afresh
    eval_pltlf(f, Trace(trace.steps), 0)
    assert (len(labelled), len(built)) == (4, 2)


@pytest.mark.parametrize("logic, text, outside", [
    (Logic.LTLF, "F q", lambda n: n),
    (Logic.LDLF, "<true*;q>tt", lambda n: n + 1),
    (Logic.PLDLF, "<<p>>tt", lambda n: -2),
], ids=lambda value: value.value if isinstance(value, Logic) else None)
def test_a_kept_label_still_checks_the_position(monkeypatch, logic, text, outside):
    built = []

    class Counting(semantics._Labeller):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(semantics, "_Labeller", Counting)
    trace = Trace([{"p"}, {"q"}, set()])
    f, evaluate_at = parse(text, logic), EVALUATORS[logic]
    assert evaluate_at(f, trace, 0) is True
    position = outside(len(trace))
    with pytest.raises(PositionOutOfRangeError, match=rf"^position {position} outside \["):
        evaluate_at(f, trace, position)
    assert evaluate_at(f, trace, 0) is True
    assert len(built) == 1


def test_a_foreign_node_at_a_missing_position_raises_the_position_error():
    f = Since(p, q)  # not an LTLf formula
    with pytest.raises(PositionOutOfRangeError, match=r"^position 1 outside \[0, 0\]$"):
        eval_ltlf(f, Trace([{"p"}]), 1)
    with pytest.raises(EmptyTraceError, match="^LTLf formulas have no value on the empty trace$"):
        eval_ltlf(f, Trace(), 0)
    with pytest.raises(TypeError, match="not an LTLf formula"):
        eval_ltlf(f, Trace([{"p"}]), 0)


def test_atom_masks_do_not_affect_equality():
    assert Trace([{"p"}, set()]).atom_masks == {"p": 0b01}
    assert Trace([set(), {"p", "q"}]).atom_masks == {"p": 0b10, "q": 0b10}
    assert Trace([{"p"}]) == Trace([["p", "p"]])
    assert hash(Trace([{"p"}])) == hash(Trace([["p"]]))
    assert repr(Trace([{"p"}])) == "Trace(steps=(frozenset({'p'}),))"


# ------------------------------------------------------------ type checks


@pytest.mark.parametrize(
    "node, trace, logic, message",
    [
        # the old evaluators short-circuited past the foreign right operand
        (And(FalseConst(), Until(p, q)), Trace([set()]), Logic.PLTLF,
         "not a PLTLf formula"),
        (Or(TrueConst(), Since(p, q)), Trace([set()]), Logic.LTLF,
         "not an LTLf formula"),
        (Or(Tautology(), p), Trace([set()]), Logic.LDLF,
         "not an LDLf formula at formula level"),
        (Or(Tautology(), Diamond(RegexProp(p), Tautology())), Trace(), Logic.PLDLF,
         "not a PLDLf formula at formula level"),
        # a step is checked even where the trace has none to take
        (Diamond(RegexProp(Eventually(p)), Tautology()), Trace(), Logic.LDLF,
         "not a propositional formula"),
        (Diamond(p, Tautology()), Trace(), Logic.LDLF,
         "not a regular-expression node"),
    ],
)
def test_every_node_is_type_checked(node, trace, logic, message):
    with pytest.raises(TypeError, match=message):
        satisfies(node, trace, logic)


def test_eval_prop_checks_every_node():
    with pytest.raises(TypeError, match="not a propositional formula"):
        eval_prop(Or(TrueConst(), Eventually(p)), {"p"})


# ------------------------------------------------------------ compiling once


@pytest.fixture
def compiled(monkeypatch):
    """Every (node, logic) that ``_compile`` is called on, operands included."""
    calls = []
    compile_ = semantics._compile

    def counting(node, logic):
        calls.append((node, logic))
        return compile_(node, logic)

    monkeypatch.setattr(semantics, "_compile", counting)
    return calls


def test_one_formula_on_many_traces_compiles_once(compiled):
    f = parse("G(p -> F q) & (p U q)", Logic.LTLF)
    traces = list(all_traces(range(1, 4)))
    verdicts = [satisfies(f, trace, Logic.LTLF) for trace in traces]
    assert [logic for node, logic in compiled if node is f] == [Logic.LTLF]
    assert verdicts == [evaluate(f, trace, Logic.LTLF, 0) for trace in traces]


def test_one_node_under_two_logics_gets_two_programs(compiled):
    f = And(p, Not(q))
    trace = Trace([{"p"}, set()])
    for _ in range(3):
        assert satisfies(f, trace, Logic.LTLF) is True
        assert satisfies(f, trace, Logic.PLTLF) is False
    assert [logic for node, logic in compiled if node is f] == [Logic.LTLF, Logic.PLTLF]


def test_a_foreign_node_raises_the_same_error_on_every_call():
    f = And(p, Since(p, q))
    trace = Trace([{"p"}])
    for _ in range(3):
        with pytest.raises(TypeError) as error:
            satisfies(f, trace, Logic.LTLF)
        assert str(error.value) == f"not an LTLf formula: {Since(p, q)!r}"
        # the same node compiles under the logic it belongs to
        assert satisfies(f, trace, Logic.PLTLF) is False


def test_the_cache_does_not_keep_a_formula_alive():
    f = parse("p U (q & X r)", Logic.LTLF)
    trace = Trace([{"p"}, {"q"}, {"r"}])
    assert satisfies(f, trace, Logic.LTLF) is True
    key = (id(f), Logic.LTLF)
    assert key in semantics._PROGRAMS
    alive = weakref.ref(f)
    del f
    satisfies(p, trace, Logic.LTLF)  # the last label no longer holds f
    gc.collect()
    assert alive() is None
    assert key not in semantics._PROGRAMS


@pytest.mark.parametrize("logic", list(Logic), ids=lambda logic: logic.value)
def test_equal_but_distinct_trees_give_the_same_verdicts(logic):
    rng = random.Random(1808)
    formulas = [gen_formula(rng, logic, ("p", "q"), depth=3) for _ in range(16)]
    twins = [copy.deepcopy(f) for f in formulas]
    assert all(twin == f and twin is not f for f, twin in zip(formulas, twins))
    for trace in all_traces(range(0 if logic in (Logic.LDLF, Logic.PLDLF) else 1, 4)):
        for f, twin in zip(formulas, twins):
            assert satisfies(f, trace, logic) == satisfies(twin, trace, logic), (f, trace.steps)
