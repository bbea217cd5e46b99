"""Public functions refuse a bad argument with a documented exception type:
``ValueError`` for a logic or a style given by name, ``TypeError`` for a
trace that is not a :class:`Trace`, a tree that is not a node or an atom
name that is not a string."""

from __future__ import annotations

import re

import pytest

import tracelang.lexer as lexer
from tracelang import (
    Atom,
    Logic,
    RegexProp,
    Style,
    Trace,
    atoms,
    children,
    desugar,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    format_formula,
    formula_to_dict,
    node_count,
    parse,
    parse_ltlf,
    regex_reach,
    satisfies,
    table_for,
    tokenize,
    walk,
)

UNKNOWN_LOGIC = "^unknown logic: 'ltlf'$"


@pytest.mark.parametrize("call", [
    lambda: parse("a", "ltlf"),
    lambda: parse("", "ltlf"),
    lambda: tokenize("a", "ltlf"),
    lambda: table_for("ltlf"),
])
def test_a_logic_given_by_name_is_refused(call):
    with pytest.raises(ValueError, match=UNKNOWN_LOGIC):
        call()


def test_a_refused_logic_builds_no_scanner():
    before = lexer._scanner.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=UNKNOWN_LOGIC):
            tokenize("a", "ltlf")
    assert lexer._scanner.cache_info().currsize == before
    assert tokenize("a", Logic.LTLF)[0].lexeme == "a"


def test_a_style_given_by_name_is_refused():
    with pytest.raises(ValueError, match="^unknown style: 'full_parens'$"):
        format_formula(parse_ltlf("a & b"), "full_parens")
    assert format_formula(parse_ltlf("a & b"), Style.FULL_PARENS) == "(a & b)"


EVALUATORS = [
    (eval_ltlf, "a", Logic.LTLF),
    (eval_pltlf, "a", Logic.PLTLF),
    (eval_ldlf, "<a>tt", Logic.LDLF),
    (eval_pldlf, "<<a>>tt", Logic.PLDLF),
]


@pytest.mark.parametrize("steps", [[["a"]], [], (["a"],)])
@pytest.mark.parametrize("evaluate, text, logic", EVALUATORS)
def test_an_evaluator_refuses_a_trace_that_is_not_a_trace(evaluate, text, logic, steps):
    node = parse(text, logic)
    with pytest.raises(TypeError, match="Trace"):
        evaluate(node, steps, 0)
    # and a kept label of the same node on a real trace does not let it through
    assert evaluate(node, Trace([["a"]]), 0) is True
    with pytest.raises(TypeError, match="Trace"):
        evaluate(node, steps, 0)


@pytest.mark.parametrize("steps", [[["a"]], []])
@pytest.mark.parametrize("logic", list(Logic))
def test_satisfies_refuses_a_trace_that_is_not_a_trace(logic, steps):
    # the past logics anchor at the last step, which satisfies reads itself
    text = {Logic.LDLF: "<a>tt", Logic.PLDLF: "<<a>>tt"}.get(logic, "a")
    with pytest.raises(TypeError, match="Trace"):
        satisfies(parse(text, logic), steps, logic)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_regex_reach_refuses_a_trace_that_is_not_a_trace(direction):
    with pytest.raises(TypeError, match="Trace"):
        regex_reach(RegexProp(Atom("a")), [["a"]], direction)


@pytest.mark.parametrize("call", [
    lambda: children("a"),
    lambda: list(walk("a")),
    lambda: atoms("a"),
    lambda: node_count("a"),
    lambda: desugar("a"),
], ids=["children", "walk", "atoms", "node_count", "desugar"])
def test_the_tree_helpers_refuse_what_is_not_a_node(call):
    with pytest.raises(TypeError, match="^not a syntax-tree node: 'a'$"):
        call()


@pytest.mark.parametrize("name", [5, None, ["a"], b"a"], ids=repr)
def test_an_atom_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(TypeError, match=f"^atom names must be strings, got {re.escape(repr(name))}$"):
        Atom(name)


def test_an_empty_atom_name_builds_and_round_trips():
    empty = Atom("")
    assert format_formula(empty) == '""'
    assert parse('""', Logic.LTLF) == empty
    assert formula_to_dict(empty) == {"op": "atom", "name": ""}
