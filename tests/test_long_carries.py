"""Every LTLf and PLTLf temporal operator on its own, on random traces long
enough that a label spans several of Python's 30-bit int digits, against the
recursive oracle at every position.

Each operator is one shift or one ``since`` carry; a carry that runs across a
digit boundary, and the bit-0 seed that gives ``G``, ``H``, ``W`` and ``R``
the run from the trace's far end, are what these traces exercise.
"""

from __future__ import annotations

import random

import pytest

import recursive_oracle
import tracelang.semantics as semantics
from tracelang import Logic, Trace, eval_ltlf, eval_pltlf, parse

OPERATORS = {
    Logic.LTLF: ["a U b", "a W b", "a R b", "a M b", "G a", "F a", "X a", "X[!] a"],
    Logic.PLTLF: ["a S b", "H a", "O a", "Y a"],
}
CASES = [(logic, text) for logic, texts in OPERATORS.items() for text in texts]
EVALUATORS = {Logic.LTLF: eval_ltlf, Logic.PLTLF: eval_pltlf}
LENGTHS = (31, 61, 200, 301)
A_DENSITIES = (0.5, 0.97)


def random_trace(rng, n, a_density, b_density=0.08):
    return Trace(
        [s for s, p in (("a", a_density), ("b", b_density)) if rng.random() < p]
        for _ in range(n)
    )


TRACES = [
    random_trace(random.Random(n * 100 + int(density * 100)), n, density)
    for n in LENGTHS
    for density in A_DENSITIES
]


def longest_run(trace, atom):
    best = run = 0
    for step in trace:
        run = run + 1 if atom in step else 0
        best = max(best, run)
    return best


def test_the_dense_traces_hold_runs_that_cross_a_digit():
    # a run of more than 30 a's carries across a 30-bit digit wherever it lies
    assert max(longest_run(t, "a") for t in TRACES if len(t) > 60) > 30


@pytest.mark.parametrize("logic, text", CASES)
def test_each_operator_alone_matches_the_oracle_on_long_traces(logic, text):
    node = parse(text, logic)
    evaluate = EVALUATORS[logic]
    for trace in TRACES:
        got = [evaluate(node, trace, i) for i in range(len(trace))]
        want = [recursive_oracle.evaluate(node, trace, logic, i) for i in range(len(trace))]
        assert got == want, (text, len(trace))


@pytest.mark.parametrize("logic, text", CASES)
def test_each_operator_is_one_shift_or_one_carry(logic, text):
    s = semantics._labeller(TRACES[-1], logic)
    carries = []
    since = s.since
    s.since = lambda a, b: carries.append(1) or since(a, b)
    semantics._program(parse(text, logic), logic)(s)
    assert len(carries) == (0 if text[0] in "XY" else 1)
