"""A trace's atom masks at byte boundaries, read back through all four evaluators.

``Trace`` packs each atom into a row of bytes, bit ``i`` for step ``i``, and
reads that row once as the atom's mask and once, with the bits of each byte
reversed, as the time-mirrored mask that LTLf and LDLf label.  Lengths just
below, at and above a multiple of 8 put the first and last steps at every
bit of a byte, and the padding of the last byte at every width.
"""

from __future__ import annotations

import random

import pytest

from tracelang import (
    Atom,
    Trace,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    parse_ldlf,
    parse_pldlf,
)

LENGTHS = (*range(18), 63, 64, 65, 127, 128, 129, 1000)
SHAPES = {
    "every step": lambda i, n, rng: True,
    "only the first": lambda i, n, rng: i == 0,
    "only the last": lambda i, n, rng: i == n - 1,
    "alternating": lambda i, n, rng: i % 2 == 0,
    "random": lambda i, n, rng: rng.random() < 0.5,
}


def shaped_steps(n, shape):
    rng = random.Random(n)
    # "b" holds wherever "a" does not, so each trace has two complementary rows
    return [["a"] if SHAPES[shape](i, n, rng) else ["b"] for i in range(n)]


def check_every_position(trace, atom):
    """Each evaluator reads ``atom`` at each of its logic's legal positions."""
    n = len(trace)
    holds = [atom in step for step in trace]
    node, ahead, behind = Atom(atom), parse_ldlf(f"<{atom}>tt"), parse_pldlf(f"<<{atom}>>tt")
    for i in range(n):
        assert eval_pltlf(node, trace, i) is holds[i], (n, atom, i)
        assert eval_ltlf(node, trace, i) is holds[i], (n, atom, i)
    # a step leaves position i forward or backward through step i, and there is
    # no step past the end (LDLf's n) or before the start (PLDLf's -1)
    assert [eval_ldlf(ahead, trace, i) for i in range(n + 1)] == holds + [False]
    assert [eval_pldlf(behind, trace, i) for i in range(-1, n)] == [False] + holds


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", LENGTHS)
def test_each_step_reads_back_at_every_position(n, shape):
    trace = Trace(shaped_steps(n, shape))
    check_every_position(trace, "a")
    check_every_position(trace, "b")


def test_three_hundred_atoms_each_read_back():
    # one new atom at each step and each atom at a few more random steps, so
    # rows start at every byte and many atoms share a step
    rng = random.Random(300)
    steps = [{f"x{i}"} for i in range(300)]
    for i in range(300):
        for k in rng.sample(range(300), 3):
            steps[k].add(f"x{i}")
    trace = Trace(steps)
    assert len(trace.atom_masks) == 300
    for i in range(300):
        check_every_position(trace, f"x{i}")


@pytest.mark.parametrize("n", LENGTHS)
def test_equal_steps_give_equal_traces(n):
    rng = random.Random(n)
    steps = [[f"p{k}" for k in range(5) if rng.random() < 0.4] for _ in range(n)]
    trace = Trace(steps)
    for other in (
        Trace(steps),
        Trace(tuple(reversed(step)) for step in steps),
        Trace(map(set, steps)),
    ):
        assert other == trace and hash(other) == hash(trace)
        assert other.atom_masks == trace.atom_masks
        assert other._mirrored_masks == trace._mirrored_masks
    if n:
        changed = [*steps[:-1], [*steps[-1], "q"]]
        assert Trace(changed) != trace
