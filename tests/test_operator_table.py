"""The one operator table and the one precedence order the front end reads.

The parser, the printer and the JSON serialiser derive every operator view
from ``OPERATORS`` and ``PRECEDENCE``; these tests pin both, so that a drift
in either, or in how the per-logic tables are cut from the order, shows up
here rather than only through tests that derive their probes from the same
tables.
"""

from __future__ import annotations

import pytest

from tracelang import formulas
from tracelang.formulas import Atom, Node
from tracelang.lexer import ACTIVE_KINDS, Logic, tokenize
from tracelang.parser import OPERATORS, TABLES, table_for

# Each logic's rows, loosest-binding first: grouping and canonical spellings.
PINNED_ROWS = {
    Logic.LTLF: [
        ("right", {"->", "<->"}),
        ("left", {"^"}),
        ("left", {"|"}),
        ("left", {"&"}),
        ("right", {"U", "W", "M", "R"}),
        ("prefix", {"F", "G"}),
        ("prefix", {"X", "X[!]"}),
        ("prefix", {"!"}),
    ],
    Logic.LDLF: [
        ("right", {"->", "<->"}),
        ("left", {"^"}),
        ("left", {"|"}),
        ("left", {"&"}),
        ("modality", {"<", "["}),
        ("left", {";"}),
        ("left", {"+"}),
        ("postfix", {"*"}),
        ("postfix", {"?"}),
        ("prefix", {"!"}),
    ],
    Logic.PLTLF: [
        ("right", {"->", "<->"}),
        ("left", {"^"}),
        ("left", {"|"}),
        ("left", {"&"}),
        ("right", {"S"}),
        ("prefix", {"O", "H"}),
        ("prefix", {"Y"}),
        ("prefix", {"!"}),
    ],
    Logic.PLDLF: [
        ("right", {"->", "<->"}),
        ("left", {"^"}),
        ("left", {"|"}),
        ("left", {"&"}),
        ("modality", {"<<", "[["}),
        ("left", {";"}),
        ("left", {"+"}),
        ("postfix", {"*"}),
        ("postfix", {"?"}),
        ("prefix", {"!"}),
    ],
}


def _opening(spelling):
    return spelling[0] if isinstance(spelling, tuple) else spelling


def test_every_node_class_but_atom_has_one_row():
    node_classes = {
        value
        for value in map(formulas.__dict__.get, formulas.__all__)
        if isinstance(value, type) and issubclass(value, Node) and value is not Node
    }
    assert set(OPERATORS) == node_classes - {Atom}


def test_json_names_are_unique():
    names = [op.json for op in OPERATORS.values()] + ["atom"]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("cls", list(OPERATORS), ids=lambda cls: cls.__name__)
def test_spellings_tokenize_to_their_rows_kinds(cls):
    op = OPERATORS[cls]
    if op.kind is None:
        assert op.spelling is None  # a regex step has no operator of its own
        return
    pairs = [(_opening(op.spelling), op.kind)]
    if op.closer is not None:
        pairs.append((op.spelling[1], op.closer))
    logics = [logic for logic in Logic if op.kind in ACTIVE_KINDS[logic]]
    assert logics, f"{cls.__name__} belongs to no logic"
    for logic in logics:
        for spelling, kind in pairs:
            assert [t.kind for t in tokenize(spelling, logic)] == [kind], (logic, spelling)


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_each_logics_rows_are_pinned(logic):
    spelling = {op.kind: _opening(op.spelling) for op in OPERATORS.values()}
    rows = [
        (level.assoc.value, {spelling[kind] for kind in level.kinds})
        for level in TABLES[logic]
    ]
    assert rows == PINNED_ROWS[logic]


@pytest.mark.parametrize("logic", list(Logic), ids=str)
def test_table_for_gives_the_logics_table(logic):
    assert table_for(logic) is TABLES[logic]
