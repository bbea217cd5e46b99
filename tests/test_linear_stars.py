"""Regex transformers as values: each composition rule and each fallback,
checked against the recursive oracle, and the stars of guarded shifts timed
on long traces, where iterating them to a fixpoint would be quadratic.

A transformer that takes at most one step is kept as a pair ``(H, G)`` for
``T -> (T & H) | (G & (T << 1))``; a star of such a pair is one ``since``
carry.  Anything else is a function, and a star of one iterates.
"""

from __future__ import annotations

import time

import pytest

import recursive_oracle
import tracelang.semantics as semantics
from tracelang import Logic, Trace, eval_ldlf, eval_pldlf, parse, regex_reach, satisfies
from conftest import all_traces

DIRECTIONS = {
    "forward": (Logic.LDLF, eval_ldlf),
    "backward": (Logic.PLDLF, eval_pldlf),
}


def spell(text, logic):
    """An LDLf text, or its PLDLf mirror, whose modalities double their brackets."""
    if logic is Logic.PLDLF:
        text = text.replace("<", "<<").replace(">", ">>").replace("[", "[[").replace("]", "]]")
    return text


def regex(text, logic):
    return parse(spell(f"<{text}>tt", logic), logic).regex


def path(trace, atoms, forward):
    """Whether some steps in a row, in the direction of travel, hold ``atoms`` in turn."""
    n, k = len(trace), len(atoms)
    starts = range(n - k + 1) if forward else range(k - 1, n)
    sign = 1 if forward else -1
    return any(all(a in trace[i + sign * j] for j, a in enumerate(atoms)) for i in starts)


# (rule, regex, the value's form on a trace): "linear" is a pair, a number is a
# function that makes that many carries when applied once, and 0 a function
# that iterates or composes without one
RULES = [
    ("test;step", "<q>tt?;p", lambda t, fw: "linear"),
    ("step;test", "p;<q>tt?", lambda t, fw: "linear"),
    ("union of shifts", "p+q", lambda t, fw: "linear"),
    ("star of a shift", "p*", lambda t, fw: 1 if path(t, "p", fw) else "linear"),
    ("star of test;step", "(<q>tt?;true)*",
     lambda t, fw: 1 if path(t, "q", fw) else "linear"),
    ("star of a union of a shift and a filter", "(p+<q>tt?)*",
     lambda t, fw: 1 if path(t, "p", fw) else "linear"),
    ("star of a filter", "(<q>tt?)*", lambda t, fw: "linear"),
    ("star of a star", "(p*)*", lambda t, fw: 1 if path(t, "p", fw) else "linear"),
    ("two-step body", "(p;q)*", lambda t, fw: 0 if path(t, "pq", fw) else "linear"),
    ("concat of two stars", "p*;q*",
     lambda t, fw: path(t, "p", fw) + path(t, "q", fw) or "linear"),
    ("concat of two steps", "p;q", lambda t, fw: 0 if path(t, "pq", fw) else "linear"),
]
TRACES = list(all_traces(range(0, 5)))


def form(r, trace, logic):
    """The form of the transformer of ``r`` on ``trace``, as in ``RULES``."""
    s = semantics._labeller(trace, logic)
    value = semantics._transformer(r, logic)(s)
    if type(value) is tuple:
        return "linear"
    carries = []
    since = s.since
    s.since = lambda a, b: carries.append(1) or since(a, b)
    semantics._apply(value, s.full)
    return len(carries)


@pytest.mark.parametrize("direction", list(DIRECTIONS))
@pytest.mark.parametrize("rule, text, expect", RULES, ids=[rule for rule, *_ in RULES])
def test_every_rule_builds_its_form_and_agrees_with_the_oracle(rule, text, expect, direction):
    logic, evaluate_at = DIRECTIONS[direction]
    forward = direction == "forward"
    r = regex(text, logic)
    formulas = [parse(spell(f, logic), logic) for f in
                (f"<{text}>tt", f"<{text}><q>tt", f"[{text}]<p>tt", f"[{text}]ff")]
    positions = range(0, 5) if forward else range(-1, 4)
    for trace in TRACES:
        assert form(r, trace, logic) == expect(trace, forward), trace.steps
        assert regex_reach(r, trace, direction) == recursive_oracle.regex_reach(
            r, trace, direction), trace.steps
        for f in formulas:
            for i in positions[:len(trace) + 1]:
                assert evaluate_at(f, trace, i) == recursive_oracle.evaluate(
                    f, trace, logic, i), (f, trace.steps, i)


@pytest.mark.parametrize("direction", list(DIRECTIONS))
def test_a_two_step_body_collapses_where_no_path_takes_both_steps(direction):
    logic = DIRECTIONS[direction][0]
    p, q = frozenset("p"), frozenset("q")
    in_turn = [p, q] if direction == "forward" else [q, p]
    r = regex("(p;q)*", logic)
    assert form(r, Trace(in_turn), logic) == 0
    # with q missing, and with both atoms there but never in turn, the body
    # has no path, and its star is the identity
    for steps in ([p, p], in_turn[::-1]):
        s = semantics._labeller(Trace(steps), logic)
        assert semantics._transformer(r, logic)(s) == (s.full, 0)


# ------------------------------------------------------------ long traces

N = 10**5
# parsed afresh for each check, so neither the program cache nor the last
# label serves it; an iterated star takes 0.24-0.72 s on one of these traces
# (Python 3.11, shared 2-core machine), a carry well under 0.2 ms
BOUND_S = 0.02
SHAPES = [
    ("<a*>(<b>tt)", True),
    ("[true*]<true*;b>tt", False),
    ("<(a+b)*>(<c>tt)", True),
    ("<(<a|b>tt?;true)*>(<c>tt)", True),
]


@pytest.fixture(scope="module")
def long_traces():
    # every star runs the whole trace to reach the last step
    run = [{"a"}] * (N - 1) + [{"b", "c"}]
    return {Logic.LDLF: Trace(run), Logic.PLDLF: Trace(run[::-1])}


@pytest.mark.parametrize("logic", [Logic.LDLF, Logic.PLDLF], ids=lambda logic: logic.value)
@pytest.mark.parametrize("text, verdict", SHAPES, ids=[text for text, _ in SHAPES])
def test_stars_of_guarded_shifts_are_linear(long_traces, logic, text, verdict):
    trace = long_traces[logic]
    best = float("inf")
    for _ in range(3):
        f = parse(spell(text, logic), logic)
        start = time.perf_counter()
        got = satisfies(f, trace, logic)
        best = min(best, time.perf_counter() - start)
        assert got is verdict
    assert best < BOUND_S, f"{best * 1e3:.1f} ms"
