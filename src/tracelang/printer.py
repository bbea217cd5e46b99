"""Canonical and fully parenthesised rendering of syntax trees.

The canonical style inserts parentheses only where the precedence order
requires them, writes one canonical spelling per operator (``!``, ``&``, ``|``,
``->``, ``<->``, ``^``, ``R``), a single space around binary operators, and
nothing after prefix operators or inside modal brackets.  Round trip is the
contract: parsing the output yields the tree that was printed.
"""

from __future__ import annotations

import enum
from typing import Callable

from .formulas import Atom, Node, RegexProp, RegexStar, RegexTest
from .lexer import KEYWORDS, _NAME_CONT, _NAME_START, is_input_char
from .parser import (
    BINARY_NODES,
    CONST_NODES,
    MODAL_NODES,
    OPERATORS,
    PRECEDENCE,
    PREFIX_NODES,
    REGEX_BINARY_NODES,
    Assoc,
)


class Style(enum.Enum):
    CANONICAL = "canonical"
    FULL_PARENS = "full_parens"


class UnprintableAtomError(ValueError):
    """The atom's name fits in neither quoting style."""


# binding strength and grouping: the row of the one precedence order
_PLACE: dict[type, tuple[int, Assoc]] = {
    cls: (index, level.assoc)
    for index, level in enumerate(PRECEDENCE)
    for cls, op in OPERATORS.items()
    if op.kind in level.kinds
}
_CONST_CLASSES = frozenset(CONST_NODES.values())
_BINARY_CLASSES = frozenset(BINARY_NODES.values())
_PREFIX_CLASSES = frozenset(PREFIX_NODES.values())
_MODAL_CLASSES = frozenset(cls for cls, _ in MODAL_NODES.values())
_REGEX_BINARY_CLASSES = frozenset(REGEX_BINARY_NODES.values())
_INFIX_CLASSES = _BINARY_CLASSES | _REGEX_BINARY_CLASSES


def _atom_text(atom: Atom) -> str:
    name = atom.name
    if name and name not in KEYWORDS and name[0] in _NAME_START:
        if all(c in _NAME_CONT for c in name):
            return name
    if any(c in "\t\n\r" or not is_input_char(c) for c in name):
        raise UnprintableAtomError(
            f"atom name {name!r} contains characters that cannot be quoted"
        )
    if '"' not in name:
        return f'"{name}"'
    if "'" not in name:
        return f"'{name}'"
    raise UnprintableAtomError(
        f"atom name {name!r} contains both quote characters"
    )


def format_formula(node: Node, style: Style = Style.CANONICAL) -> str:
    """Render ``node`` as formula text.

    Raises :class:`UnprintableAtomError` for atom names outside the printable
    character set or containing both quote characters.
    """
    return _formula(node, style is Style.FULL_PARENS)


def _wrap(text: str, full: bool) -> str:
    return f"({text})" if full else text


def _formula(node: Node, full: bool) -> str:
    cls = type(node)
    if cls is Atom:
        return _atom_text(node)  # type: ignore[arg-type]
    if cls in _CONST_CLASSES:
        return OPERATORS[cls].spelling  # type: ignore[return-value]
    if cls in _PREFIX_CLASSES:
        level, _ = _PLACE[cls]
        arg = node.arg  # type: ignore[attr-defined]
        text = OPERATORS[cls].spelling + _operand(arg, level, full, _formula)  # type: ignore[operator]
        return _wrap(text, full)
    if cls in _MODAL_CLASSES:
        level, _ = _PLACE[cls]
        opening, closing = OPERATORS[cls].spelling  # type: ignore[misc]
        regex = _regex(node.regex, full)  # type: ignore[attr-defined]
        arg = _operand(node.arg, level, full, _formula)  # type: ignore[attr-defined]
        return _wrap(f"{opening}{regex}{closing}{arg}", full)
    if cls in _BINARY_CLASSES:
        level, assoc = _PLACE[cls]
        left = _operand(node.left, level, full, _formula, assoc is not Assoc.LEFT)  # type: ignore[attr-defined]
        right = _operand(node.right, level, full, _formula, assoc is not Assoc.RIGHT)  # type: ignore[attr-defined]
        return _wrap(f"{left} {OPERATORS[cls].spelling} {right}", full)
    raise TypeError(f"not a formula node: {node!r}")


def _regex(node: Node, full: bool) -> str:
    cls = type(node)
    if cls is RegexProp:
        # compound step formulas come back already parenthesised in full mode
        return _formula(node.prop, full)  # type: ignore[attr-defined]
    if cls is RegexTest:
        text = _formula(node.arg, full) + OPERATORS[cls].spelling  # type: ignore
        return _wrap(text, full)
    if cls is RegexStar:
        level, _ = _PLACE[cls]
        text = _operand(node.arg, level, full, _regex) + OPERATORS[cls].spelling  # type: ignore
        return _wrap(text, full)
    if cls in _REGEX_BINARY_CLASSES:
        level, assoc = _PLACE[cls]
        left = _operand(node.left, level, full, _regex, assoc is not Assoc.LEFT)  # type: ignore[attr-defined]
        right = _operand(node.right, level, full, _regex, assoc is not Assoc.RIGHT)  # type: ignore[attr-defined]
        return _wrap(f"{left} {OPERATORS[cls].spelling} {right}", full)
    raise TypeError(f"not a regular-expression node: {node!r}")


def _operand(child: Node, level: int, full: bool,
             render: Callable[[Node, bool], str], tie: bool = False) -> str:
    """Render an operand of an operator that binds at ``level``; ``tie`` says
    whether a binary operand binding just as tightly needs parentheses too."""
    text = render(child, full)
    if full or type(child) not in _INFIX_CLASSES:
        return text
    child_level, _ = _PLACE[type(child)]
    if child_level < level or (tie and child_level == level):
        return f"({text})"
    return text
