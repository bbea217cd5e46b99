"""Reading ``Trace.steps`` back from the bit rows gives the same steps as the
input, shown alike."""

from __future__ import annotations

import pytest

from tracelang import Trace


# each step's atoms in sorted order, the order the trace gives them back in,
# so a reference frozenset is built by the same insertions and shows alike
_SHAPES = {
    "empty": [],
    "one-empty-step": [[]],
    "one-step": [["a", "b"]],
    "many-atoms": [sorted(f"x{i}" for i in range(j, 300, 7)) for j in range(9)],
    **{f"byte-boundary-{n}": [["a"], *([["b"]] * (n - 2)), ["a", "c"]] for n in (7, 8, 9, 15, 16, 17)},
    "mixed": [sorted({"p", "q", "r"} - {"pqr"[i % 3]} if i % 4 else ()) for i in range(41)],
}


@pytest.mark.parametrize("steps", list(_SHAPES.values()), ids=list(_SHAPES))
def test_steps_read_back_as_the_input(steps):
    trace = Trace(steps)
    reference = tuple(map(frozenset, steps))
    assert trace.steps == reference
    assert [repr(step) for step in trace.steps] == [repr(step) for step in reference]
    assert len(trace) == len(reference)
