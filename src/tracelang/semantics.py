"""Finite-trace evaluation for all four logics.

A trace is a finite sequence of steps, each step the set of atoms true there.
LTLf and PLTLf formulas are evaluated at a position inside the trace; LDLf
formulas also admit the position just past the end (and PLDLf the position
just before the start), which is where ``tt`` and ``ff`` part ways with
``true`` and ``false``: ``<true>tt`` demands a step to move through, ``tt``
does not.

Evaluation labels each subformula once with the set of positions where it
holds, kept as an ``int`` bit set (path labelling, after Markey and
Schnoebelen, "Model Checking a Path", CONCUR 2003), and then reads one bit.
Modalities are predecessor transformers on those sets, ``<r>f = pre_r(S_f)``
and ``[r]f = not <r> not f`` (De Giacomo and Vardi, IJCAI 2013).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .lexer import Logic
from .formulas import (
    Always,
    And,
    Atom,
    BackBox,
    BackDiamond,
    Before,
    Binary,
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
    Modal,
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
    TrueConst,
    Unary,
    Until,
    WeakNext,
    WeakUntil,
    Xor,
)


class EmptyTraceError(ValueError):
    """Raised where a logic gives the empty trace no evaluation position."""


class PositionOutOfRangeError(IndexError):
    """Raised when the requested position is outside the logic's legal range."""


class Trace:
    """An immutable finite trace; construct from any iterable of atom-name iterables.

    Like a node, it compares, hashes and shows itself by its fields: ``steps``.
    """

    _fields = __match_args__ = ("steps",)
    _key = Node._key
    __eq__, __hash__, __repr__ = Node.__eq__, Node.__hash__, Node.__repr__
    __setattr__, __delattr__ = Node.__setattr__, Node.__delattr__

    def __init__(self, steps: Iterable[Iterable[str]] = ()) -> None:
        steps = tuple(steps)
        for step in filter(str.__instancecheck__, steps):  # the first string, if any
            raise TypeError(f"a step is a collection of atom names, not the string {step!r}")
        steps = tuple(map(frozenset, steps))
        where: dict[str, list[int]] = {}
        for i, step in enumerate(steps):
            for atom in step:
                if not isinstance(atom, str):
                    raise TypeError(f"atom names must be strings, got {atom!r}")
                where.setdefault(atom, []).append(i)
        object.__setattr__(self, "steps", steps)
        # bit i of atom_masks[name] is set when the atom holds at step i
        object.__setattr__(self, "atom_masks", {atom: _bits(at) for atom, at in where.items()})

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.steps[index]


def _bits(positions: list[int]) -> int:
    """The bit set of ascending ``positions``, in time linear in the last one."""
    buffer = bytearray(positions[-1] // 8 + 1)
    for i in positions:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


# ------------------------------------------------------------- labelling


class _Labeller:
    """Labels the formulas of one logic over one trace.

    A label is the bit set of the positions where a formula holds.  Bit ``k``
    stands for position ``k``, except under PLDLf, where it stands for
    position ``k - 1``.  With ``logic`` None the labeller takes propositional
    step formulas only, one bit per step.
    """

    def __init__(self, atom_masks: dict[str, int], n: int, logic: Logic | None):
        self.atom_masks = atom_masks
        self.n = n
        self.steps = (1 << n) - 1
        dynamic = logic in (Logic.LDLF, Logic.PLDLF)
        self.full = (1 << n + 1) - 1 if dynamic else self.steps
        self.rules, self.refusal = _RULES[logic]
        self.forward = logic is not Logic.PLDLF
        self.props = _Labeller(atom_masks, n, None) if dynamic else self

    def label(self, f: Node) -> int:
        # operands are labelled here, so each nesting level costs one frame
        cls = type(f)
        rule = self.rules.get(cls)
        if rule is None:
            raise TypeError(f"{self.refusal}: {f!r}")
        shape = cls.__base__
        if shape is Binary:
            return rule(self, self.label(f.left), self.label(f.right))
        if shape is Unary:
            return rule(self, self.label(f.arg))
        if shape is Modal:
            return rule(self, self.pre(f.regex), self.label(f.arg))
        return rule(self, f)

    def since(self, a: int, b: int) -> int:
        """``a S b``: adding ``b`` to ``u = a | b`` sends a carry up each run
        of ``u`` from its first ``b``; the bits it clears, and ``b``, hold."""
        u = a | b
        return ((u & ~(u + b)) | b) & self.full

    def until(self, a: int, b: int) -> int:
        """``a U b``: ``a S b`` on the time-reversed masks."""
        width = f"0{self.n}b"

        def flip(x: int) -> int:
            return int(format(x, width)[::-1], 2)

        return flip(self.since(flip(a), flip(b)))

    def always(self, a: int) -> int:
        return self.full & ~((1 << (self.full & ~a).bit_length()) - 1)

    def pre(self, r: Node) -> Callable[[int], int]:
        """The predecessor transformer of ``r``: from a set of positions to
        the positions where some path of ``r`` starts and ends inside it.

        Steps and tests are labelled here, once, so the rounds of a star's
        fixpoint are bit operations only.
        """
        cls = type(r)
        if cls is RegexProp:
            steps = self.props.label(r.prop)
            if self.forward:  # step i moves from position i to i + 1
                return lambda target: steps & (target >> 1)
            steps <<= 1  # step i sits at the bit of position i and moves to i - 1
            return lambda target: steps & (target << 1)
        if cls is RegexTest:
            holds = self.label(r.arg)
            return lambda target: target & holds
        if cls is RegexConcat:
            first, then = self.pre(r.left), self.pre(r.right)
            return lambda target: first(then(target))
        if cls is RegexUnion:
            left, right = self.pre(r.left), self.pre(r.right)
            return lambda target: left(target) | right(target)
        if cls is RegexStar:
            step = self.pre(r.arg)

            def star(target: int) -> int:
                while True:
                    grown = target | step(target)
                    if grown == target:
                        return target
                    target = grown

            return star
        raise TypeError(f"not a regular-expression node: {r!r}")


# A rule gets the labeller and, by the shape its node's class derives from: a
# leaf, the node itself; a unary or binary node, the labels of its operands; a
# modality, the transformer of its regex and the label of its argument.
_BOOLEAN = {
    Not: lambda s, a: s.full & ~a,
    And: lambda s, a, b: a & b,
    Or: lambda s, a, b: a | b,
    Implies: lambda s, a, b: (s.full & ~a) | b,
    Equiv: lambda s, a, b: s.full & ~(a ^ b),
    Xor: lambda s, a, b: a ^ b,
}
_PROPOSITIONAL = {
    Atom: lambda s, f: s.atom_masks.get(f.name, 0),
    TrueConst: lambda s, f: s.steps,
    FalseConst: lambda s, f: 0,
    **_BOOLEAN,
}
_CONSTANTS = {
    Tautology: lambda s, f: s.full,
    Contradiction: lambda s, f: 0,
}
_DIAMOND = lambda s, pre, a: pre(a)
_BOX = lambda s, pre, a: s.full & ~pre(s.full & ~a)

# the rules each logic admits, and how it refuses any other node
_RULES = {
    None: (_PROPOSITIONAL, "not a propositional formula"),
    Logic.LTLF: (
        {
            **_PROPOSITIONAL,
            **_CONSTANTS,
            Last: lambda s, f: 1 << s.n - 1,
            End: lambda s, f: 0,
            WeakNext: lambda s, a: (a >> 1) | 1 << s.n - 1,
            StrongNext: lambda s, a: a >> 1,
            Until: _Labeller.until,
            WeakUntil: lambda s, a, b: s.until(a, b) | s.always(a),
            Release: lambda s, a, b: s.until(b, a & b) | s.always(b),
            StrongRelease: lambda s, a, b: s.until(b, a & b),
            Eventually: lambda s, a: (1 << a.bit_length()) - 1,
            Always: _Labeller.always,
        },
        "not an LTLf formula",
    ),
    Logic.PLTLF: (
        {
            **_PROPOSITIONAL,
            **_CONSTANTS,
            First: lambda s, f: 1,
            Start: lambda s, f: 0,
            Before: lambda s, a: (a << 1) & s.full,
            Since: _Labeller.since,
            Once: lambda s, a: s.since(s.full, a),
            Historically: lambda s, a: s.full & ~s.since(s.full, s.full & ~a),
        },
        "not a PLTLf formula",
    ),
    Logic.LDLF: (
        {**_BOOLEAN, **_CONSTANTS, Diamond: _DIAMOND, Box: _BOX},
        "not an LDLf formula at formula level",
    ),
    Logic.PLDLF: (
        {**_BOOLEAN, **_CONSTANTS, BackDiamond: _DIAMOND, BackBox: _BOX},
        "not a PLDLf formula at formula level",
    ),
}


# ------------------------------------------------------------ evaluation


def eval_prop(node: Node, step: Iterable[str]) -> bool:
    """Evaluate a purely propositional formula against one step."""
    return _Labeller(Trace([step]).atom_masks, 1, None).label(node) == 1


# each logic's name and the bounds of its positions on a trace of n steps,
# as offsets from 0 and from n
_POSITIONS = {
    Logic.LTLF: ("LTLf", 0, -1),
    Logic.PLTLF: ("PLTLf", 0, -1),
    Logic.LDLF: ("LDLf", 0, 0),
    Logic.PLDLF: ("PLDLf", -1, -1),
}


# the last label computed, with strong references to what it was computed for
_last: tuple = (None, None, None, 0)


def _evaluate(node: Node, trace: Trace, logic: Logic, position: int) -> bool:
    """Read one bit of the label of ``node``.  The last label is kept, so
    asking about every position of one trace in turn labels only once."""
    global _last
    name, low, high = _POSITIONS[logic]
    n = len(trace)
    if n + high < low:
        raise EmptyTraceError(f"{name} formulas have no value on the empty trace")
    if not low <= position <= n + high:
        raise PositionOutOfRangeError(
            f"position {position} outside [{low}, {n + high}]"
        )
    last = _last
    if not (last[0] is node and last[1] is trace and last[2] is logic):
        label = _Labeller(trace.atom_masks, n, logic).label(node)
        last = _last = (node, trace, logic, label)
    return bool(last[3] >> (position - low) & 1)


def eval_ltlf(node: Node, trace: Trace, position: int) -> bool:
    """Evaluate an LTLf formula at ``position`` (0-based, inside the trace).

    The empty trace has no positions and raises :class:`EmptyTraceError`.
    """
    return _evaluate(node, trace, Logic.LTLF, position)


def eval_pltlf(node: Node, trace: Trace, position: int) -> bool:
    """Evaluate a PLTLf formula at ``position``; past operators look toward 0."""
    return _evaluate(node, trace, Logic.PLTLF, position)


def eval_ldlf(node: Node, trace: Trace, position: int) -> bool:
    """Evaluate an LDLf formula at ``position`` in ``[0, len(trace)]``.

    The position just past the last step is legal: ``tt`` still holds there,
    while any diamond that needs to move does not.
    """
    return _evaluate(node, trace, Logic.LDLF, position)


def eval_pldlf(node: Node, trace: Trace, position: int) -> bool:
    """Evaluate a PLDLf formula at ``position`` in ``[-1, len(trace) - 1]``.

    The position just before the first step is legal, mirroring LDLf's
    position past the end.
    """
    return _evaluate(node, trace, Logic.PLDLF, position)


def regex_reach(
    regex: Node, trace: Trace, direction: str = "forward"
) -> frozenset[tuple[int, int]]:
    """The reachability relation of ``regex`` over the trace's positions.

    Forward relations live on positions ``0..len(trace)`` and a propositional
    step moves from ``i`` to ``i + 1``; backward relations live on
    ``-1..len(trace) - 1`` and a step moves from ``i`` to ``i - 1``.  Tests
    stay in place and hold where the owning logic (LDLf when moving forward,
    PLDLf when moving backward) labels them.  Evaluation never builds this
    relation; it reads the same paths one target set at a time.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    n = len(trace)
    forward = direction == "forward"
    low = 0 if forward else -1  # the position of bit 0
    logic = Logic.LDLF if forward else Logic.PLDLF
    pre = _Labeller(trace.atom_masks, n, logic).pre(regex)
    pairs: set[tuple[int, int]] = set()
    for j in range(n + 1):
        sources = pre(1 << j)
        pairs.update((i + low, j + low) for i in range(n + 1) if sources >> i & 1)
    return frozenset(pairs)


def satisfies(node: Node, trace: Trace, logic: Logic) -> bool:
    """Whether the trace as a whole satisfies the formula.

    Future-looking logics are anchored at the first position, past-looking
    logics at the last; the dynamic logics keep their off-the-end position
    for the empty trace, while LTLf and PLTLf reject it.
    """
    if not isinstance(logic, Logic):
        raise ValueError(f"unknown logic: {logic!r}")
    past = logic in (Logic.PLTLF, Logic.PLDLF)
    return _evaluate(node, trace, logic, len(trace) - 1 if past else 0)
