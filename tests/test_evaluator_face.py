"""The public face of the four evaluators, which the way they are made keeps.

Each ``eval_*`` is a plain function of ``tracelang.semantics`` under its own
name: it shows that name and its docstring, takes ``(node, trace, position)``,
pickles by reference, and is the object the package root hands out.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

import tracelang
from tracelang import semantics

FIRST_LINES = {
    "eval_ltlf": "Evaluate an LTLf formula at ``position`` (0-based, inside the trace).",
    "eval_pltlf": "Evaluate a PLTLf formula at ``position``; past operators look toward 0.",
    "eval_ldlf": "Evaluate an LDLf formula at ``position`` in ``[0, len(trace)]``.",
    "eval_pldlf": "Evaluate a PLDLf formula at ``position`` in ``[-1, len(trace) - 1]``.",
}


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_each_evaluator_shows_its_own_name_and_docstring(name):
    f = getattr(semantics, name)
    assert (f.__name__, f.__qualname__, f.__module__) == (name, name, "tracelang.semantics")
    assert f.__doc__.splitlines()[0] == FIRST_LINES[name]


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_each_evaluator_takes_a_node_a_trace_and_a_position(name):
    parameters = inspect.signature(getattr(semantics, name)).parameters
    assert list(parameters) == ["node", "trace", "position"]


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_each_evaluator_pickles_by_reference_and_is_the_package_roots(name):
    f = getattr(semantics, name)
    assert pickle.loads(pickle.dumps(f)) is f
    assert getattr(tracelang, name) is f
