"""One labeller per trace and logic, shared by every formula evaluated there.

Verdicts are checked against the recursive oracle in orders that change the
formula, the logic and the trace object from one call to the next; the
labellers built are counted; a refusal between two good calls must leave the
next verdict right; and a trace left behind must not be kept alive.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

import tracelang.semantics as semantics
from tracelang import (
    Atom,
    EmptyTraceError,
    Logic,
    PositionOutOfRangeError,
    Since,
    Trace,
    Until,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    parse,
    satisfies,
)
from conftest import all_traces
from formula_gen import gen_formula
from recursive_oracle import evaluate

# in turn, these change the width (the dynamic logics have one position
# more) and the mirroring (the future logics label the mirrored trace)
LOGICS = (Logic.LTLF, Logic.LDLF, Logic.PLTLF, Logic.PLDLF)

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


def anchor(logic, n):
    return n - 1 if logic in (Logic.PLTLF, Logic.PLDLF) else 0


@pytest.fixture(scope="module")
def suites():
    """Eight generated formulas per logic."""
    rng = random.Random(2214)
    return {logic: [gen_formula(rng, logic, ("p", "q"), depth=rng.choice((2, 3)))
                    for _ in range(8)]
            for logic in LOGICS}


@pytest.fixture
def built(monkeypatch):
    """The width of every labeller built, in order."""
    widths = []

    class Counting(semantics._Labeller):
        def __init__(self, *args):
            widths.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(semantics, "_Labeller", Counting)
    return widths


# ------------------------------------------------------ differential oracle


def test_one_trace_under_each_logic_in_turn(suites, built):
    # every position asks every formula, so the formula changes on each call
    for trace in all_traces(range(0, 5)):
        for logic in LOGICS:
            suite, at = suites[logic], positions(logic, len(trace))
            before = len(built)
            for i in at:
                for f in suite:
                    got = EVALUATORS[logic](f, trace, i)
                    assert got == evaluate(f, trace, logic, i), (logic, f, trace.steps, i)
            for f in suite if at else ():
                got = satisfies(f, trace, logic)
                assert got == evaluate(f, trace, logic, anchor(logic, len(trace))), (logic, f)
            # one labeller for the whole suite, one bit for each position
            assert built[before:] == ([len(at)] if at else [])


@pytest.mark.parametrize("other", ["another trace", "an equal trace"])
def test_two_traces_taken_in_turn(suites, built, other):
    traces = list(all_traces(range(0, 5)))
    partners = traces[1:] + traces[:1] if other == "another trace" else map(Trace, traces)
    for first, second in zip(traces, partners):
        assert first is not second
        for logic in LOGICS:
            if not (positions(logic, len(first)) and positions(logic, len(second))):
                continue
            before = len(built)
            for f in suites[logic]:
                for trace in (first, second):
                    for i in positions(logic, len(trace)):
                        got = EVALUATORS[logic](f, trace, i)
                        assert got == evaluate(f, trace, logic, i), (logic, f, trace.steps, i)
            # each change of trace object builds afresh; only the last is kept
            assert len(built) - before == 2 * len(suites[logic])


@pytest.mark.parametrize("logic", LOGICS, ids=lambda logic: logic.value)
def test_a_suite_on_one_trace_builds_one_labeller(built, logic):
    rng = random.Random(906)
    suite = [gen_formula(rng, logic, ("p", "q", "r"), depth=3) for _ in range(40)]
    trace = Trace([{a for a in "pqr" if rng.random() < 0.5} for _ in range(6)])
    n = len(trace)
    for _ in range(2):
        for f in suite:
            assert satisfies(f, trace, logic) == evaluate(f, trace, logic, anchor(logic, n)), f
    assert built == [len(positions(logic, n))]


# ------------------------------------------------- refusals between calls


p, q = Atom("p"), Atom("q")
# a node of the other direction, which the logic refuses
FOREIGN = {Logic.LTLF: Since(p, q), Logic.PLTLF: Until(p, q),
           Logic.LDLF: Since(p, q), Logic.PLDLF: Until(p, q)}
GOOD = {Logic.LTLF: "p U q", Logic.PLTLF: "p S q", Logic.LDLF: "<p*;q>tt", Logic.PLDLF: "<<p*;q>>tt"}


def refuse(logic, refusal, trace):
    evaluate_at = EVALUATORS[logic]
    if refusal == "a foreign node":
        with pytest.raises(TypeError, match=r"^not an? P?L[TD]Lf formula"):
            evaluate_at(FOREIGN[logic], trace, anchor(logic, len(trace)))
    elif refusal == "a position out of range":
        with pytest.raises(PositionOutOfRangeError, match=r"^position 9 outside \["):
            evaluate_at(parse(GOOD[logic], logic), trace, 9)
    elif refusal == "not a trace":
        with pytest.raises(TypeError, match=r"is evaluated on a Trace, not a list$"):
            evaluate_at(parse(GOOD[logic], logic), [{"p"}], 0)
    else:
        with pytest.raises(EmptyTraceError, match=r"formulas have no value on the empty trace$"):
            evaluate_at(parse(GOOD[logic], logic), Trace(), 0)


@pytest.mark.parametrize("logic, refusal", [
    (logic, refusal)
    for logic in LOGICS
    for refusal in ("a foreign node", "a position out of range", "not a trace", "the empty trace")
    # the dynamic logics evaluate the empty trace
    if refusal != "the empty trace" or logic in (Logic.LTLF, Logic.PLTLF)
], ids=lambda value: value.value if isinstance(value, Logic) else value)
def test_a_refusal_between_two_good_calls_leaves_the_next_verdict_right(built, logic, refusal):
    trace = Trace([{"p"}, {"p"}, {"q"}, set()])
    f = parse(GOOD[logic], logic)
    g = parse("ff" if logic in (Logic.LDLF, Logic.PLDLF) else "false", logic)
    evaluate_at = EVALUATORS[logic]
    for i in positions(logic, len(trace)):
        assert evaluate_at(f, trace, i) == evaluate(f, trace, logic, i)
        refuse(logic, refusal, trace)
        assert evaluate_at(f, trace, i) == evaluate(f, trace, logic, i)
        # and a new formula on the same trace after the refusal
        assert evaluate_at(g, trace, i) is False
        assert evaluate_at(f, trace, i) == evaluate(f, trace, logic, i)
    # a refusal builds no labeller and leaves the kept one in place
    assert built == [len(positions(logic, len(trace)))]


# --------------------------------------------------------------- liveness


@pytest.mark.parametrize("logic", LOGICS, ids=lambda logic: logic.value)
def test_a_trace_left_behind_is_not_kept_alive(logic):
    f, g = parse(GOOD[logic], logic), parse(GOOD[logic], logic)
    trace = Trace([{"p"}, {"q"}])
    satisfies(f, trace, logic)
    satisfies(g, trace, logic)
    alive = weakref.ref(trace)
    del trace
    gc.collect()
    assert alive() is not None  # the last label holds it
    satisfies(f, Trace([{"q"}]), logic)
    gc.collect()
    assert alive() is None
