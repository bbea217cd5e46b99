"""Every infix operand is parenthesised exactly where the parser needs it.

For each logic and each of its layers (formulas and regular expressions),
every infix node class of that layer is put in every operand place of every
binary, prefix, modal and postfix class that holds that layer, with leaves
everywhere else.  The canonical text must parse back to the tree, and the
parentheses around the operand must be there exactly when the text without
them fails to parse or parses to another tree.
"""

from __future__ import annotations

import pytest

from tracelang import (
    Assoc,
    Atom,
    Logic,
    ParseError,
    RegexProp,
    RegexStar,
    RegexTest,
    Tautology,
    format_formula,
    parse,
    table_for,
)
from tracelang.lexer import REGEX_KINDS
from tracelang.parser import OPERATORS

_INFIX = (Assoc.LEFT, Assoc.RIGHT)
# the layer a postfix operator's operand is in: a star repeats a regex, a test checks a formula
_POSTFIX_HOLDS_REGEX = {RegexStar: True, RegexTest: False}


def _classes(logic: Logic) -> dict[type, tuple[Assoc, bool]]:
    """Each node class of ``logic``'s table, with its grouping and whether it is a regex."""
    assoc = {kind: level.assoc for level in table_for(logic) for kind in level.kinds}
    return {cls: (assoc[op.kind], op.kind in REGEX_KINDS)
            for cls, op in OPERATORS.items() if op.kind in assoc}


def _cases(logic: Logic, regex: bool):
    """(tree, operand text) for every infix operand of the layer in every place."""
    classes = _classes(logic)
    modal = next((cls for cls, (assoc, _) in classes.items() if assoc is Assoc.MODALITY), None)

    def leaf(name: str, in_regex: bool):
        if in_regex:
            return RegexProp(Atom(name))
        return Atom(name) if modal is None else modal(leaf(name, True), Tautology())

    def formula(node, is_regex: bool):  # a regex is checked as the regex of a modality
        return modal(node, Tautology()) if is_regex else node

    def text(node, is_regex: bool) -> str:
        if not is_regex:
            return format_formula(node)
        opening, closing = OPERATORS[modal].spelling
        return format_formula(formula(node, True))[len(opening):-len(closing + "tt")]

    other = leaf("c", regex)
    for child_cls, (child_assoc, child_regex) in classes.items():
        if child_assoc not in _INFIX or child_regex is not regex:
            continue
        child = child_cls(leaf("a", regex), leaf("b", regex))
        child_text = text(child, regex)
        for parent_cls, (assoc, parent_regex) in classes.items():
            if assoc in _INFIX and parent_regex is regex:
                parents = [parent_cls(child, other), parent_cls(other, child)]
            elif assoc is Assoc.PREFIX and not regex:
                parents = [parent_cls(child)]
            elif assoc is Assoc.MODALITY:
                parents = [parent_cls(child, leaf("c", False)) if regex
                           else parent_cls(leaf("c", True), child)]
            elif assoc is Assoc.POSTFIX and _POSTFIX_HOLDS_REGEX[parent_cls] is regex:
                parents = [parent_cls(child)]
            else:
                continue
            for parent in parents:
                yield formula(parent, parent_regex), child_text


_LAYERS = [(logic, regex) for logic in Logic for regex in (False, True)
           if regex in {is_regex for _, is_regex in _classes(logic).values()}]


@pytest.mark.parametrize(
    "logic, regex", _LAYERS,
    ids=[f"{logic.value}-{'regex' if regex else 'formula'}" for logic, regex in _LAYERS],
)
def test_operand_parentheses_are_exactly_the_needed_ones(logic, regex):
    cases = list(_cases(logic, regex))
    assert cases
    grouped_count = 0
    for tree, child_text in cases:
        text = format_formula(tree)
        assert parse(text, logic) == tree, text
        assert text.count(child_text) == 1, (text, child_text)
        grouped = f"({child_text})"
        bare = text.replace(grouped, child_text)
        try:
            needed = parse(bare, logic) != tree
        except ParseError:
            needed = True
        assert (grouped in text) is needed, (text, bare)
        grouped_count += grouped in text
    assert 0 < grouped_count < len(cases)  # both outcomes are exercised


# formulas whose parentheses depend on floors at more than one depth, as
# written and as printed; one level of nesting is covered above
_NESTED = [
    (Logic.LTLF, "!(a U b) & F(c | d)", "!(a U b) & F(c | d)"),
    (Logic.LDLF, "<(a ; b)* + c ; (d + e)>tt", "<(a ; b)* + c ; d + e>tt"),
    (Logic.PLDLF, "[[(a + b) ; c*]](<<d>>tt -> ff)", "[[a + b ; c*]](<<d>>tt -> ff)"),
]


@pytest.mark.parametrize("logic, source, printed", _NESTED, ids=[source for _, source, _ in _NESTED])
def test_nested_operands_print_exactly(logic, source, printed):
    tree = parse(source, logic)
    assert format_formula(tree) == printed
    assert parse(printed, logic) == tree
