"""The time-mirror law and the reachability relation, each checked against an
evaluator path that does not share the code under test.

On a finite trace each future logic is the mirror image of its past twin:
evaluating an LDLf formula at position ``i`` is evaluating its PLDLf mirror
on the reversed trace at ``n - 1 - i``, and likewise for LTLf and PLTLf.
"""

from __future__ import annotations

import random

import pytest

import recursive_oracle
from tracelang import (
    Always,
    And,
    Atom,
    BackBox,
    BackDiamond,
    Before,
    Box,
    Diamond,
    End,
    Eventually,
    First,
    Historically,
    Last,
    Logic,
    Not,
    Once,
    Or,
    Release,
    Since,
    Start,
    StrongNext,
    StrongRelease,
    Trace,
    Until,
    WeakNext,
    WeakUntil,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    regex_reach,
)
from tracelang.formulas import Binary, Modal, Unary
from conftest import all_traces
from formula_gen import gen_formula, gen_regex

# the future operators whose mirror is one past operator of the same shape
RENAMED = {
    Until: Since,
    Eventually: Once,
    Always: Historically,
    StrongNext: Before,
    Last: First,
    End: Start,
    Diamond: BackDiamond,
    Box: BackBox,
}


def mirror(f):
    """The past formula that holds on the reversed trace where ``f`` holds.

    ``X a`` is ``!Y !a``, ``a W b`` is ``(a S b) | H a``, ``a R b`` is
    ``!(!a S !b)`` and ``a M b`` is ``b S (a & b)``; regexes keep their
    shape, and only the tests inside them change.
    """
    cls = type(f)
    if cls is WeakNext:
        return Not(Before(Not(mirror(f.arg))))
    if cls is WeakUntil:
        a, b = mirror(f.left), mirror(f.right)
        return Or(Since(a, b), Historically(a))
    if cls is Release:
        return Not(Since(Not(mirror(f.left)), Not(mirror(f.right))))
    if cls is StrongRelease:
        a, b = mirror(f.left), mirror(f.right)
        return Since(b, And(a, b))
    shape, cls = cls.__base__, RENAMED.get(cls, cls)
    if shape is Modal:
        return cls(mirror(f.regex), mirror(f.arg))
    if shape is Binary:
        return cls(mirror(f.left), mirror(f.right))
    if shape is Unary:
        return cls(mirror(f.arg))
    return f if cls is type(f) else cls()  # last and end have no fields


p, q = Atom("p"), Atom("q")
UNARY, BINARY = (WeakNext, StrongNext, Eventually, Always), (Until, WeakUntil, Release, StrongRelease)
ALONE = [op(p) for op in UNARY] + [op(p, q) for op in BINARY]
# every LTLf temporal operator alone and nested once in each
LTLF_OPERATORS = ALONE + [
    nested
    for f in ALONE
    for nested in [op(f) for op in UNARY] + [op(f, q) for op in BINARY] + [op(q, f) for op in BINARY]
]
EVALUATORS = {Logic.LDLF: eval_ldlf, Logic.PLDLF: eval_pldlf,
              Logic.LTLF: eval_ltlf, Logic.PLTLF: eval_pltlf}


@pytest.mark.parametrize(
    "future, past",
    [(Logic.LDLF, Logic.PLDLF), (Logic.LTLF, Logic.PLTLF)],
    ids=["ldlf", "ltlf"],
)
def test_a_future_formula_is_its_past_mirror_on_the_reversed_trace(future, past):
    dynamic = future is Logic.LDLF  # with the position past the end, and the empty trace
    rng = random.Random(2203)
    formulas = [gen_formula(rng, future, ("p", "q"), depth=rng.choice((2, 3, 4)))
                for _ in range(32 if dynamic else 56)] + ([] if dynamic else LTLF_OPERATORS)
    mirrors = [mirror(f) for f in formulas]
    checks = 0
    for trace in all_traces(range(0 if dynamic else 1, 4)):
        n, back = len(trace), Trace(reversed(trace.steps))
        for f, g in zip(formulas, mirrors):
            for i in range(n + 1 if dynamic else n):
                got = EVALUATORS[future](f, trace, i)
                assert got == EVALUATORS[past](g, back, n - 1 - i), (f, trace.steps, i)
                checks += 1
    assert checks > 9000


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_regex_reach_agrees_with_the_recursive_oracle(direction):
    rng = random.Random(6158)
    backward = direction == "backward"
    regexes = [gen_regex(rng, ("p", "q"), depth=rng.choice((2, 3, 4)), backward=backward)
               for _ in range(30)]
    for trace in all_traces(range(0, 4)):
        for r in regexes:
            expected = recursive_oracle.regex_reach(r, trace, direction)
            assert regex_reach(r, trace, direction) == expected, (r, trace.steps)
