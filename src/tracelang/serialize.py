"""JSON-ready form of syntax trees, named by the parser's operator table."""

from __future__ import annotations

from .formulas import Atom, Node
from .parser import OPERATORS


def formula_to_dict(node: Node) -> dict:
    """The JSON-ready form of a syntax tree, with fixed key order.

    An atom is ``{"op": "atom", "name": ...}``, a constant ``{"op": ...}``, a
    modality ``{"op": ..., "regex": ..., "arg": ...}`` and every other node
    ``{"op": ..., "args": [...]}`` with its operands in field order.
    """
    cls = type(node)
    if cls is Atom:
        return {"op": "atom", "name": node.name}  # type: ignore[attr-defined]
    op = OPERATORS.get(cls)
    if op is None:
        raise TypeError(f"cannot serialise {node!r}")
    if not cls._fields:  # a constant
        return {"op": op.json}
    if op.closer is not None:
        return {
            "op": op.json,
            "regex": formula_to_dict(node.regex),  # type: ignore[attr-defined]
            "arg": formula_to_dict(node.arg),  # type: ignore[attr-defined]
        }
    return {
        "op": op.json,
        "args": [formula_to_dict(child) for child in map(node.__getattribute__, cls._fields)],
    }
