"""A trace is its bit rows: ``steps`` is built on first read.

``Trace`` keeps its length and one bit row per atom, which is all that
evaluation reads.  The tuple of per-step ``frozenset``s that ``steps``
shows is built from the rows the first time someone reads it, so a long
trace that is only evaluated never holds it.  What a trace shows, compares
and hashes stays what it was when it kept its steps: the same as a
reference ``tuple(map(frozenset, steps))``.
"""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import random
import tracemalloc

import pytest

from tracelang import (
    Logic,
    Trace,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    parse,
    parse_ldlf,
    regex_reach,
    satisfies,
)
from tracelang.cli import main

LONG = 10**5
HELD_LIMIT = 512 * 1024  # bytes; the per-step frozensets of the same trace hold 21.5 MiB

# one formula per logic, each reading every atom of ``long_steps`` through a temporal operator
FORMULAS = {
    Logic.LTLF: "G(p -> F(q | r)) | X[!] s",
    Logic.PLTLF: "H(q -> O p) & (s S r)",
    Logic.LDLF: "[true*]<(p + q)*>(<r>tt | <s>tt) | <p;q>tt",
    Logic.PLDLF: "[[true*]]<<(p + q)*>>(<<r>>tt | <<s>>tt) | <<q;p>>tt",
}
EVALUATORS = {Logic.LTLF: eval_ltlf, Logic.PLTLF: eval_pltlf,
              Logic.LDLF: eval_ldlf, Logic.PLDLF: eval_pldlf}
# each logic's legal positions on a trace of n steps, as offsets from 0 and from n
BOUNDS = {Logic.LTLF: (0, -1), Logic.PLTLF: (0, -1), Logic.LDLF: (0, 0), Logic.PLDLF: (-1, -1)}


def long_steps(n=LONG, seed=19):
    """``n`` steps over four atoms, each true at a step with probability 0.5."""
    rng = random.Random(seed)
    return [[atom for atom in "pqrs" if rng.random() < 0.5] for _ in range(n)]


def short_steps():
    """Every trace of 0-4 steps over ``{p, q}``, each step's atoms in sorted order."""
    subsets = [(), ("p",), ("q",), ("p", "q")]
    for n in range(5):
        yield from itertools.product(subsets, repeat=n)


def random_steps():
    """Random traces of 63-129 steps over ``{p, q, r}``, each step's atoms in sorted order."""
    rng = random.Random(63)
    for n in (63, 64, 65, 100, 127, 128, 129):
        yield [tuple(atom for atom in "pqr" if rng.random() < 0.4) for _ in range(n)]


def every_verdict(trace):
    """Each logic's verdict at each of its legal positions, and ``satisfies``."""
    verdicts = []
    for logic, text in FORMULAS.items():
        f, (low, high) = parse(text, logic), BOUNDS[logic]
        positions = range(low, len(trace) + high + 1)
        verdicts.append([EVALUATORS[logic](f, trace, i) for i in positions])
        if len(trace) or logic in (Logic.LDLF, Logic.PLDLF):
            verdicts.append(satisfies(f, trace, logic))
    return verdicts


def test_a_long_trace_holds_its_rows_and_not_its_steps():
    steps = long_steps()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace(steps)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < HELD_LIMIT, held
    assert "steps" not in vars(trace)
    assert len(trace) == LONG and sorted(trace.atom_masks) == ["p", "q", "r", "s"]


def test_no_evaluation_reads_the_steps():
    trace = Trace(long_steps())
    for logic, text in FORMULAS.items():
        f, evaluate, (low, high) = parse(text, logic), EVALUATORS[logic], BOUNDS[logic]
        satisfies(f, trace, logic)
        for i in (low, low + 1, LONG // 2, LONG + high - 1, LONG + high):
            evaluate(f, trace, i)
    assert "steps" not in vars(trace)
    short = Trace(long_steps(20))
    for direction in ("forward", "backward"):
        regex_reach(parse_ldlf("<(p + q)*;r>tt").regex, short, direction)
    assert "steps" not in vars(short)


def check_against_reference(steps):
    """``steps``, indexing, slicing, iteration, ``len``, ``repr``, ``==`` and
    ``hash`` of a trace built from ``steps`` equal the reference's."""
    reference = tuple(map(frozenset, steps))
    n = len(reference)
    trace, twin = Trace(steps), Trace(steps)
    unread = hash(trace)
    assert trace.steps == reference
    # every index from -n (so t[-1] too) to n - 1
    assert [trace[i] for i in range(-n, n)] == [reference[i] for i in range(-n, n)]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[index]
    assert trace[1:3] == reference[1:3] and trace[::-1] == reference[::-1]
    assert tuple(trace) == reference and len(trace) == n
    assert repr(trace) == f"Trace(steps={reference!r})"
    # reading the steps changes neither equality nor the hash
    assert "steps" not in vars(twin)
    assert trace == twin and hash(trace) == unread == hash(twin)
    assert trace == Trace(reference) and hash(trace) == hash(Trace(reference))
    return reference, trace


def test_every_short_trace_shows_compares_and_hashes_as_its_steps():
    references, traces = zip(*map(check_against_reference, short_steps()))
    assert len(traces) == 1 + 4 + 16 + 64 + 256
    for (ra, a), (rb, b) in itertools.product(zip(references, traces), repeat=2):
        assert (a == b) is (ra == rb), (ra, rb)
    assert len(set(traces)) == len(traces)


def test_random_traces_show_compare_and_hash_as_their_steps():
    for steps in random_steps():
        reference, trace = check_against_reference(steps)
        match trace:
            case Trace(steps=(first, *_)):
                assert first == reference[0]
        changed = [*steps[:-1], (*steps[-1], "z")]
        assert trace != Trace(changed) and trace != Trace(steps[:-1])


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("round_trip", [
    lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copied_trace_is_equal_and_gives_the_same_verdicts(round_trip, read_first):
    for steps in (*random_steps(), [], [("p",)], [(), ("p", "q")]):
        trace = Trace(steps)
        if read_first:
            trace.steps
        copied = round_trip(trace)
        assert copied == trace and hash(copied) == hash(trace) and "steps" not in vars(copied)
        assert copied.steps == trace.steps and repr(copied) == repr(trace)
        assert every_verdict(copied) == every_verdict(trace)


def test_an_unhashable_atom_is_refused_as_a_non_string():
    with pytest.raises(TypeError) as caught:
        Trace([["a", ["b"]]])
    assert str(caught.value) == "atom names must be strings, got ['b']"
    with pytest.raises(TypeError) as caught:
        Trace([{"a"}, [{"b": 1}]])
    assert str(caught.value) == "atom names must be strings, got {'b': 1}"


def test_a_string_step_and_a_non_string_atom_keep_their_refusals():
    with pytest.raises(TypeError) as caught:
        Trace([["a"], "ab"])
    assert str(caught.value) == "a step is a collection of atom names, not the string 'ab'"
    with pytest.raises(TypeError) as caught:
        Trace([["a"], [1]])
    assert str(caught.value) == "atom names must be strings, got 1"


def test_the_cli_refuses_an_unhashable_atom_with_its_one_line(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([["a", ["b"]]]))
    formula = tmp_path / "formula.txt"
    formula.write_text("F a")
    code = main(["eval", "--logic", "ltlf", "--trace", str(trace), str(formula)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: malformed trace file {trace}: expected a JSON array "
                            "of arrays of atom-name strings\n")
