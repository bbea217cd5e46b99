"""The recursive evaluators tracelang shipped before it labelled each
subformula once, kept as an independent oracle for the labelling evaluator.

They evaluate a formula at one position straight from the quantifier-style
definitions, and re-evaluate subformulas wherever they are asked about, so
they are only fit for short traces.  ``regex_reach`` here is the old
relation-building version, with tests re-entering these evaluators.
"""

from __future__ import annotations

from tracelang import (
    Always,
    And,
    Atom,
    BackBox,
    BackDiamond,
    Before,
    Box,
    Contradiction,
    Diamond,
    End,
    Equiv,
    Eventually,
    FalseConst,
    First,
    Historically,
    Implies,
    Last,
    Logic,
    Node,
    Not,
    Once,
    Or,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Release,
    Since,
    Start,
    StrongNext,
    StrongRelease,
    Tautology,
    Trace,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    Xor,
)


def evaluate(node: Node, trace: Trace, logic: Logic, position: int) -> bool:
    """The old verdict of ``node`` at ``position``; no range checks."""
    evaluator = {
        Logic.LTLF: _ltlf,
        Logic.PLTLF: _pltlf,
        Logic.LDLF: _ldlf,
        Logic.PLDLF: _pldlf,
    }[logic]
    return evaluator(node, trace, position)


def _prop(node: Node, step) -> bool:
    if isinstance(node, Atom):
        return node.name in step
    if isinstance(node, TrueConst):
        return True
    if isinstance(node, FalseConst):
        return False
    if isinstance(node, Not):
        return not _prop(node.arg, step)
    if isinstance(node, And):
        return _prop(node.left, step) and _prop(node.right, step)
    if isinstance(node, Or):
        return _prop(node.left, step) or _prop(node.right, step)
    if isinstance(node, Implies):
        return (not _prop(node.left, step)) or _prop(node.right, step)
    if isinstance(node, Equiv):
        return _prop(node.left, step) == _prop(node.right, step)
    if isinstance(node, Xor):
        return _prop(node.left, step) != _prop(node.right, step)
    raise TypeError(f"not a propositional formula: {node!r}")


def _ltlf(f: Node, t: Trace, i: int) -> bool:
    n = len(t)
    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return _prop(f, t[i])
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, Last):
        return i == n - 1
    if isinstance(f, End):
        return False
    if isinstance(f, Not):
        return not _ltlf(f.arg, t, i)
    if isinstance(f, And):
        return _ltlf(f.left, t, i) and _ltlf(f.right, t, i)
    if isinstance(f, Or):
        return _ltlf(f.left, t, i) or _ltlf(f.right, t, i)
    if isinstance(f, Implies):
        return (not _ltlf(f.left, t, i)) or _ltlf(f.right, t, i)
    if isinstance(f, Equiv):
        return _ltlf(f.left, t, i) == _ltlf(f.right, t, i)
    if isinstance(f, Xor):
        return _ltlf(f.left, t, i) != _ltlf(f.right, t, i)
    if isinstance(f, WeakNext):
        return i == n - 1 or _ltlf(f.arg, t, i + 1)
    if isinstance(f, StrongNext):
        return i < n - 1 and _ltlf(f.arg, t, i + 1)
    if isinstance(f, Until):
        return any(
            _ltlf(f.right, t, j)
            and all(_ltlf(f.left, t, k) for k in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, WeakUntil):
        # until, or the left side holds through the end of the trace
        return all(_ltlf(f.left, t, j) for j in range(i, n)) or _ltlf(
            Until(f.left, f.right), t, i
        )
    if isinstance(f, Release):
        # dual of until: the right side holds until (and including when)
        # the left side first does, or forever
        return all(
            _ltlf(f.right, t, j)
            or any(_ltlf(f.left, t, k) for k in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, StrongRelease):
        return any(
            _ltlf(f.left, t, j)
            and _ltlf(f.right, t, j)
            and all(_ltlf(f.right, t, k) for k in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, Eventually):
        return any(_ltlf(f.arg, t, j) for j in range(i, n))
    if isinstance(f, Always):
        return all(_ltlf(f.arg, t, j) for j in range(i, n))
    raise TypeError(f"not an LTLf formula: {f!r}")


def _pltlf(f: Node, t: Trace, i: int) -> bool:
    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return _prop(f, t[i])
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, First):
        return i == 0
    if isinstance(f, Start):
        return False
    if isinstance(f, Not):
        return not _pltlf(f.arg, t, i)
    if isinstance(f, And):
        return _pltlf(f.left, t, i) and _pltlf(f.right, t, i)
    if isinstance(f, Or):
        return _pltlf(f.left, t, i) or _pltlf(f.right, t, i)
    if isinstance(f, Implies):
        return (not _pltlf(f.left, t, i)) or _pltlf(f.right, t, i)
    if isinstance(f, Equiv):
        return _pltlf(f.left, t, i) == _pltlf(f.right, t, i)
    if isinstance(f, Xor):
        return _pltlf(f.left, t, i) != _pltlf(f.right, t, i)
    if isinstance(f, Before):
        return i > 0 and _pltlf(f.arg, t, i - 1)
    if isinstance(f, Since):
        return any(
            _pltlf(f.right, t, j)
            and all(_pltlf(f.left, t, k) for k in range(j + 1, i + 1))
            for j in range(0, i + 1)
        )
    if isinstance(f, Once):
        return any(_pltlf(f.arg, t, j) for j in range(0, i + 1))
    if isinstance(f, Historically):
        return all(_pltlf(f.arg, t, j) for j in range(0, i + 1))
    raise TypeError(f"not a PLTLf formula: {f!r}")


def _ldlf(f: Node, t: Trace, i: int) -> bool:
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, Not):
        return not _ldlf(f.arg, t, i)
    if isinstance(f, And):
        return _ldlf(f.left, t, i) and _ldlf(f.right, t, i)
    if isinstance(f, Or):
        return _ldlf(f.left, t, i) or _ldlf(f.right, t, i)
    if isinstance(f, Implies):
        return (not _ldlf(f.left, t, i)) or _ldlf(f.right, t, i)
    if isinstance(f, Equiv):
        return _ldlf(f.left, t, i) == _ldlf(f.right, t, i)
    if isinstance(f, Xor):
        return _ldlf(f.left, t, i) != _ldlf(f.right, t, i)
    if isinstance(f, Diamond):
        reach = regex_reach(f.regex, t, "forward")
        return any(j == i and _ldlf(f.arg, t, k) for j, k in reach)
    if isinstance(f, Box):
        reach = regex_reach(f.regex, t, "forward")
        return all(_ldlf(f.arg, t, k) for j, k in reach if j == i)
    raise TypeError(f"not an LDLf formula at formula level: {f!r}")


def _pldlf(f: Node, t: Trace, i: int) -> bool:
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, Not):
        return not _pldlf(f.arg, t, i)
    if isinstance(f, And):
        return _pldlf(f.left, t, i) and _pldlf(f.right, t, i)
    if isinstance(f, Or):
        return _pldlf(f.left, t, i) or _pldlf(f.right, t, i)
    if isinstance(f, Implies):
        return (not _pldlf(f.left, t, i)) or _pldlf(f.right, t, i)
    if isinstance(f, Equiv):
        return _pldlf(f.left, t, i) == _pldlf(f.right, t, i)
    if isinstance(f, Xor):
        return _pldlf(f.left, t, i) != _pldlf(f.right, t, i)
    if isinstance(f, BackDiamond):
        reach = regex_reach(f.regex, t, "backward")
        return any(j == i and _pldlf(f.arg, t, k) for j, k in reach)
    if isinstance(f, BackBox):
        reach = regex_reach(f.regex, t, "backward")
        return all(_pldlf(f.arg, t, k) for j, k in reach if j == i)
    raise TypeError(f"not a PLDLf formula at formula level: {f!r}")


def regex_reach(
    regex: Node, trace: Trace, direction: str = "forward"
) -> frozenset[tuple[int, int]]:
    """The reachability relation of ``regex`` over the trace's positions.

    Forward relations live on positions ``0..len(trace)`` and a propositional
    step moves from ``i`` to ``i + 1``; backward relations live on
    ``-1..len(trace) - 1`` and a step moves from ``i`` to ``i - 1``.  Tests
    stay in place and re-enter the owning logic's evaluation (LDLf when
    moving forward, PLDLf when moving backward).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    n = len(trace)
    forward = direction == "forward"
    positions = range(0, n + 1) if forward else range(-1, n)
    return _reach(regex, trace, positions, forward)


def _reach(r: Node, t: Trace, positions: range, forward: bool) -> frozenset[tuple[int, int]]:
    if isinstance(r, RegexProp):
        if forward:
            return frozenset(
                (i, i + 1) for i in range(len(t)) if _prop(r.prop, t[i])
            )
        return frozenset((i, i - 1) for i in range(len(t)) if _prop(r.prop, t[i]))
    if isinstance(r, RegexTest):
        check = _ldlf if forward else _pldlf
        return frozenset((i, i) for i in positions if check(r.arg, t, i))
    if isinstance(r, RegexConcat):
        return _compose(
            _reach(r.left, t, positions, forward),
            _reach(r.right, t, positions, forward),
        )
    if isinstance(r, RegexUnion):
        return _reach(r.left, t, positions, forward) | _reach(
            r.right, t, positions, forward
        )
    if isinstance(r, RegexStar):
        return _closure(_reach(r.arg, t, positions, forward), positions)
    raise TypeError(f"not a regular-expression node: {r!r}")


def _compose(
    a: frozenset[tuple[int, int]], b: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    by_source: dict[int, set[int]] = {}
    for j, k in b:
        by_source.setdefault(j, set()).add(k)
    return frozenset(
        (i, k) for i, j in a for k in by_source.get(j, ())
    )


def _closure(
    base: frozenset[tuple[int, int]], positions: range
) -> frozenset[tuple[int, int]]:
    """Reflexive-transitive closure over ``positions`` by fixpoint iteration."""
    relation = frozenset((i, i) for i in positions)
    while True:
        extended = relation | _compose(relation, base)
        if extended == relation:
            return relation
        relation = extended
