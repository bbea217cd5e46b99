"""Syntax trees for formulas and the regular expressions inside modalities.

One shared set of node classes covers all four logics; the parser only ever
builds the subset that belongs to the requested logic.  Nodes are frozen and
hashable, and structural equality ignores how an atom was quoted.
"""

from __future__ import annotations

from collections.abc import Iterator

_set = object.__setattr__  # sets a field past the frozen Node.__setattr__

# The most levels of a syntax tree, and of parentheses in its text; no node is
# built deeper.  At this limit the parser (up to four frames a level) and each
# consumer of a tree stay within Python's recursion limit from 100 frames deep.
MAX_DEPTH = 150


class _NodeClass(type):
    depth = property()  # unreadable: a node class is no node, and ``_over`` refuses it


class Node(metaclass=_NodeClass):
    """Base class for every formula and regular-expression node.

    ``_fields`` names a class's fields in order.  A node is immutable, shows
    its fields in its ``repr``, and equals (and hashes as) a node of the same
    class whose compared fields, ``_key()``, are equal.
    """

    _fields: tuple[str, ...] = ()
    depth = 1  # the levels of the tree a node roots: a leaf's, unless ``_over`` sets it

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _over(first: Node, second: Node = Node()) -> int:  # a lone operand pairs with a leaf
    """The depth of a node over one operand or two, refused past ``MAX_DEPTH``."""
    try:
        one, two = first.depth, second.depth
    except AttributeError:
        stranger = second if isinstance(first, Node) else first
        raise TypeError(f"not a syntax-tree node: {stranger!r}") from None
    depth = 1 + (one if one > two else two)
    if depth > MAX_DEPTH:
        raise ValueError(f"the tree nests deeper than {MAX_DEPTH} levels")
    return depth


# The shapes of the nodes with operands: one, two, or a modality's regex and
# the formula it leads to.  Each declares its fields and constructor once.
class Unary(Node):
    _fields = __match_args__ = ("arg",)

    def __init__(self, arg: Node) -> None:
        _set(self, "depth", _over(arg))
        _set(self, "arg", arg)

    def _key(self) -> tuple:
        return (self.arg,)


class Binary(Node):
    _fields = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node) -> None:
        _set(self, "depth", _over(left, right))
        _set(self, "left", left)
        _set(self, "right", right)

    def _key(self) -> tuple:
        return (self.left, self.right)


class Modal(Node):
    _fields = __match_args__ = ("regex", "arg")

    def __init__(self, regex: Node, arg: Node) -> None:
        _set(self, "depth", _over(regex, arg))
        _set(self, "regex", regex)
        _set(self, "arg", arg)

    def _key(self) -> tuple:
        return (self.regex, self.arg)


# ---------------------------------------------------------------- leaves


class Atom(Node):
    """A named proposition; ``quoted`` records surface quoting only and is
    ignored by equality and hashing."""

    _fields = __match_args__ = ("name", "quoted")

    def __init__(self, name: str, quoted: bool = False) -> None:
        if not isinstance(name, str):
            raise TypeError(f"atom names must be strings, got {name!r}")
        _set(self, "name", name)
        _set(self, "quoted", quoted)

    def _key(self) -> tuple:
        return (self.name,)


class TrueConst(Node):
    """Propositional constant ``true`` (holds at a step)."""


class FalseConst(Node):
    """Propositional constant ``false``."""


class Tautology(Node):
    """Logical constant ``tt``, true everywhere (even beyond the last step)."""


class Contradiction(Node):
    """Logical constant ``ff``, false everywhere."""


class Last(Node):
    """Holds exactly at the final position of a trace."""


class End(Node):
    """Never holds on a finite trace."""


class First(Node):
    """Holds exactly at position zero."""


class Start(Node):
    """Never holds on a finite trace."""


# ---------------------------------------------------------------- connectives


class Not(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Equiv(Binary):
    pass


class Xor(Binary):
    pass


# ------------------------------------------------- future-time temporal


class WeakNext(Unary):
    pass


class StrongNext(Unary):
    pass


class Until(Binary):
    pass


class WeakUntil(Binary):
    pass


class Release(Binary):
    pass


class StrongRelease(Binary):
    pass


class Eventually(Unary):
    pass


class Always(Unary):
    pass


# --------------------------------------------------- past-time temporal


class Before(Unary):
    pass


class Since(Binary):
    pass


class Once(Unary):
    pass


class Historically(Unary):
    pass


# ------------------------------------------------- dynamic-logic modalities


class Diamond(Modal):
    """``<regex>arg``: some regex path from here reaches a position where arg holds."""


class Box(Modal):
    """``[regex]arg``: every regex path from here reaches only positions where arg holds."""


class BackDiamond(Modal):
    """``<<regex>>arg``: the backward-moving counterpart of :class:`Diamond`."""


class BackBox(Modal):
    """``[[regex]]arg``: the backward-moving counterpart of :class:`Box`."""


# ------------------------------------------------------ regular expressions


class RegexProp(Node):
    """A purely propositional step formula used as a one-step regex."""

    _fields = __match_args__ = ("prop",)

    def __init__(self, prop: Node) -> None:
        _set(self, "depth", _over(prop))
        _set(self, "prop", prop)


class RegexTest(Unary):
    """``arg?`` where ``arg`` is a full formula of the owning logic, checked in
    place without moving."""


class RegexConcat(Binary):
    pass


class RegexUnion(Binary):
    pass


class RegexStar(Unary):
    pass


# ------------------------------------------------------------------ helpers


def _values(node: Node) -> Iterator[object]:
    """The values of ``node``'s fields, in order; a value that is not a node
    raises ``TypeError``."""
    if not isinstance(node, Node):
        raise TypeError(f"not a syntax-tree node: {node!r}")
    return map(node.__getattribute__, node._fields)


def children(node: Node) -> tuple[Node, ...]:
    """Immediate subtrees of ``node``, in field order."""
    return tuple(value for value in _values(node) if isinstance(value, Node))


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def atoms(node: Node) -> frozenset[str]:
    """Names of all atoms anywhere in the tree, including inside regexes and tests."""
    return frozenset(n.name for n in walk(node) if isinstance(n, Atom))


def node_count(node: Node) -> int:
    return sum(1 for _ in walk(node))


def desugar(node: Node) -> Node:
    """Rewrite the special position formulas into their temporal definitions.

    ``last`` becomes ``X(false)``, ``end`` becomes ``G(false)``, ``first``
    becomes ``!Y(true)`` and ``start`` becomes ``H(false)``; everything else is
    rebuilt unchanged.  A rewrite nests deeper than the leaf it replaces, so
    it raises ``ValueError`` where that takes the tree past ``MAX_DEPTH``.
    """
    if isinstance(node, Last):
        return WeakNext(FalseConst())
    if isinstance(node, End):
        return Always(FalseConst())
    if isinstance(node, First):
        return Not(Before(TrueConst()))
    if isinstance(node, Start):
        return Historically(FalseConst())
    return type(node)(*(desugar(v) if isinstance(v, Node) else v for v in _values(node)))


__all__ = [
    "Node",
    "Atom",
    "TrueConst",
    "FalseConst",
    "Tautology",
    "Contradiction",
    "Last",
    "End",
    "First",
    "Start",
    "Not",
    "And",
    "Or",
    "Implies",
    "Equiv",
    "Xor",
    "WeakNext",
    "StrongNext",
    "Until",
    "WeakUntil",
    "Release",
    "StrongRelease",
    "Eventually",
    "Always",
    "Before",
    "Since",
    "Once",
    "Historically",
    "Diamond",
    "Box",
    "BackDiamond",
    "BackBox",
    "RegexProp",
    "RegexTest",
    "RegexConcat",
    "RegexUnion",
    "RegexStar",
    "children",
    "walk",
    "atoms",
    "node_count",
    "desugar",
]
