"""Canonical and fully parenthesised rendering of syntax trees.

The canonical style inserts parentheses only where the precedence order
requires them, writes one canonical spelling per operator (``!``, ``&``, ``|``,
``->``, ``<->``, ``^``, ``R``), a single space around binary operators, and
nothing after prefix operators or inside modal brackets.  Round trip is the
contract for every tree it prints: parsing the output yields that tree.
"""

from __future__ import annotations

import enum

from .formulas import Atom, Node, RegexProp, RegexTest
from .lexer import KEYWORDS, REGEX_KINDS, _NAME_CONT, _NAME_START, is_input_char
from .parser import OPERATORS, _ASSOC, _ROW, Assoc


class Style(enum.Enum):
    CANONICAL = "canonical"
    FULL_PARENS = "full_parens"


class UnprintableAtomError(ValueError):
    """The atom's name fits in neither quoting style."""


# each layer's node classes, formulas and regular expressions, with their
# spelling, and the parser's row and grouping for their token; leaves and
# steps have no row
_ROLES = {cls: (op.spelling, _ROW.get(op.kind), _ASSOC.get(op.kind))
          for cls, op in OPERATORS.items()}
_REGEX = {cls: role for cls, role in _ROLES.items()
          if cls is RegexProp or OPERATORS[cls].kind in REGEX_KINDS}
_FORMULA = {Atom: (None, None, None), **{c: r for c, r in _ROLES.items() if c not in _REGEX}}
# bound once, as reading a member off the enum class is slow in a hot path
_LEFT, _RIGHT, _PREFIX, _MODALITY = Assoc.LEFT, Assoc.RIGHT, Assoc.PREFIX, Assoc.MODALITY


def _atom_text(atom: Atom) -> str:
    name = atom.name
    if name and name not in KEYWORDS and name[0] in _NAME_START:
        if all(c in _NAME_CONT for c in name):
            return name
    if any(c in "\t\n\r" or not is_input_char(c) for c in name):
        raise UnprintableAtomError(f"atom name {name!r} contains characters that cannot be quoted")
    if '"' not in name:
        return f'"{name}"'
    if "'" not in name:
        return f"'{name}'"
    raise UnprintableAtomError(f"atom name {name!r} contains both quote characters")


def format_formula(node: Node, style: Style = Style.CANONICAL) -> str:
    """Render ``node`` as formula text.

    Raises :class:`UnprintableAtomError` for atom names outside the printable
    character set or containing both quote characters, and ``ValueError`` for
    a style that is not a :class:`Style`.
    """
    if not isinstance(style, Style):
        raise ValueError(f"unknown style: {style!r}")
    return _render(node, style is Style.FULL_PARENS)


def _render(node: Node, full: bool, layer: dict = _FORMULA, floor: int = 0) -> str:
    """Render ``node`` as a formula or a regular expression, as ``layer`` says, in
    parentheses if it is an infix node whose row is below ``floor``."""
    cls = type(node)
    role = layer.get(cls)
    if role is None:
        raise TypeError(
            f"not a {'formula' if layer is _FORMULA else 'regular-expression'} node: {node!r}"
        )
    spelling, level, assoc = role
    if assoc is None:  # a leaf, or a step: its formula comes back parenthesised in full mode
        if cls is Atom:
            return _atom_text(node)  # type: ignore[arg-type]
        if cls is RegexProp:
            return _render(node.prop, full)  # type: ignore[attr-defined]
        return spelling
    if assoc is _LEFT or assoc is _RIGHT:
        left = _render(node.left, full, layer, level + (assoc is _RIGHT))  # type: ignore
        right = _render(node.right, full, layer, level + (assoc is _LEFT))  # type: ignore
        text = f"{left} {spelling} {right}"
        if level < floor:
            return f"({text})"
    elif assoc is _PREFIX:
        text = spelling + _render(node.arg, full, _FORMULA, level)  # type: ignore
    elif assoc is _MODALITY:
        opening, closing = spelling
        regex = _render(node.regex, full, _REGEX)  # type: ignore[attr-defined]
        text = f"{opening}{regex}{closing}{_render(node.arg, full, _FORMULA, level)}"  # type: ignore
    elif cls is RegexTest:  # the test's formula reaches up to its '?'
        text = _render(node.arg, full) + spelling  # type: ignore
    else:
        text = _render(node.arg, full, _REGEX, level) + spelling  # type: ignore
    return f"({text})" if full else text
