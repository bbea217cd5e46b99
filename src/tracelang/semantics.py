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
Every temporal operator is one shift or one carry, the carry of ``S``; so
is a star of a guarded shift, a body that takes one step at a time such as
``p*``, ``(φ?;p)*`` or ``(a+b)*``.  Other stars, such as ``(a;b)*``, repeat
their body until its set stops growing.  Modalities are predecessor
transformers on those sets, ``<r>f = pre_r(S_f)`` and ``[r]f = not <r> not
f`` (De Giacomo and Vardi, IJCAI 2013).  LTLf and LDLf are the time mirrors
of PLTLf and PLDLf, so they label the mirrored trace: ``U`` is then ``S``,
``F`` is ``O``, ``G`` is ``H`` and ``X[!]`` is ``Y``, and both dynamic
logics take a step with one shift.

A formula is compiled once per logic into a program, a closure per distinct
subformula that does only the bit operations, and that program labels every
trace the formula is checked on (as monitors are synthesized once and then
run, after Havelund and Roşu, "Synthesizing Monitors for Safety Properties",
TACAS 2002).  Every node class, the regex classes included, has one builder
in one table, and one compiler reads both layers: a regex's program builds
its transformer.  Programs are hash-consed (Filliâtre and Conchon,
"Type-Safe Modular Hash-Consing", ML Workshop 2006): one is built per
distinct subformula, keyed by its builder and its operands' programs, and
shared by every live formula that holds that subformula.  A subformula that
one formula would label twice, where it has an operand other than a leaf,
gets a slot on the labeller, so it is labelled once per trace and logic; a
repeat over leaves only, such as ``!p``, is one bit operation, which costs
less to redo than a slot does to keep.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import compress

from .lexer import ACTIVE_KINDS, Logic, TokenKind
from .parser import OPERATORS, _REGEX_CLASSES, _STEP_LEAVES
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

    It keeps its length and one bit row per atom, all that evaluation reads, and
    builds ``steps`` from them on first read.  It shows itself by ``steps``, and
    compares and hashes by its length and ``atom_masks``, as its steps would.
    """

    _fields = __match_args__ = ("steps",)
    __eq__, __hash__, __repr__ = Node.__eq__, Node.__hash__, Node.__repr__
    __setattr__, __delattr__ = Node.__setattr__, Node.__delattr__

    def _key(self) -> tuple:  # what its steps are: its length and its rows
        return self._length, frozenset(self.atom_masks.items())

    def __init__(self, steps: Iterable[Iterable[str]] = ()) -> None:
        steps = tuple(steps)
        for step in filter(str.__instancecheck__, steps):  # the first string, if any
            raise TypeError(f"a step is a collection of atom names, not the string {step!r}")
        size = len(steps) // 8 + 1  # at least 1, so every row is true
        rows: dict[str, bytearray] = {}  # bit i of an atom's row is its value at step i
        for i, step in enumerate(steps):
            at, bit = i >> 3, 1 << (i & 7)
            for atom in step:
                if not isinstance(atom, str):
                    raise TypeError(f"atom names must be strings, got {atom!r}")
                row = rows.get(atom) or rows.setdefault(atom, bytearray(size))
                row[at] |= bit
        object.__setattr__(self, "_length", len(steps))
        object.__setattr__(self, "atom_masks", {
            atom: int.from_bytes(row, "little") for atom, row in rows.items()
        })
        # each byte's bits reversed and read big-endian puts step i at bit 8 * size - 1 - i
        pad = 8 * size - len(steps)
        object.__setattr__(self, "_mirrored_masks", {
            atom: int.from_bytes(row.translate(_REVERSED), "big") >> pad
            for atom, row in rows.items()
        })

    @cached_property
    def steps(self) -> tuple[frozenset[str], ...]:
        n, masks = self._length, self._mirrored_masks
        steps: list[list[str]] = [[] for _ in range(n)]
        for atom in sorted(masks):  # one order for every trace, so equal steps show alike
            # character i of a mirrored row at width n is step i, made a 0/1 selector
            for step in compress(steps, f"{masks[atom]:0{n}b}".encode().translate(_SELECTOR)):
                step.append(atom)
        return tuple(map(frozenset, steps))

    def __getstate__(self) -> dict:  # a pickle or a copy holds the rows, not the steps
        return {name: value for name, value in vars(self).items() if name != "steps"}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.steps[index]


_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))
_SELECTOR = bytes.maketrans(b"01", b"\0\1")


# ------------------------------------------------------------- programs


class _Labeller:
    """The trace that programs label, as the bit sets they read.

    A label is the bit set of the positions where a formula holds, one bit
    for each of ``width`` positions, ordered the way the formula looks: bit 0
    is the far end, the top bit is where a whole trace is checked, and the
    future logics read the trace's mirrored masks.  The dynamic logics have
    one position more than the trace has steps.  Every temporal operator is
    one shift or one ``since`` carry.

    It is built from the trace and the logic alone, so one labeller serves
    every formula evaluated on that trace under that logic (``_evaluator``
    keeps the last one built), and its ``slots`` keep the label of each
    slotted program, whichever of those formulas shares it.
    """

    def __init__(self, atom_masks: dict[str, int], n: int, width: int):
        self.atom_masks = atom_masks
        self.steps = (1 << n) - 1
        self.full = (1 << width) - 1
        self.slots: dict[_Program, int | _Pre] = {}

    def since(self, a: int, b: int) -> int:
        """``a S b``: adding ``b`` to ``u = a | b`` sends a carry up each run
        of ``u`` from its first ``b``; the bits of ``u`` it clears, and ``b``,
        hold, inside ``full`` as every caller keeps ``a`` and ``b``.  Seeding
        ``b`` with ``a & 1`` adds the run of ``a`` from bit 0: ``H a``."""
        u = a | b
        return (u ^ (u & (u + b))) | b


# The predecessor transformer of a regex on a trace maps a set of positions to
# those where some path of the regex starts and ends inside it.  Where no path
# takes two steps in a row it is a pair ``(H, G)`` for ``T -> (T & H) | (G &
# (T << 1))``: a test is a filter ``(H, 0)``, a step a guarded shift ``(0, G)``.
# Any other is a function.
_Pre = tuple[int, int] | Callable[[int], int]
# A program maps a labeller to a formula's label or, in the regex layer, to a
# regex's transformer, built once a trace so that applying it does bit ops only.
_Program = Callable[[_Labeller], int | _Pre]


def _apply(pre: _Pre, target: int) -> int:
    """The positions from which ``pre`` reaches ``target``."""
    if type(pre) is tuple:
        keep, guard = pre
        return (target & keep) | (guard & (target << 1))
    return pre(target)


def _concat(first: _Pre, then: _Pre) -> _Pre:
    """The transformer of ``first`` followed by ``then``."""
    if type(first) is tuple and type(then) is tuple:
        (h1, g1), (h2, g2) = first, then
        if not g1 & (g2 << 1):  # on this trace no step of first leads to one of then
            return h1 & h2, (h1 & g2) | (g1 & (h2 << 1))
    return lambda target: _apply(first, _apply(then, target))


def _union(left: _Pre, right: _Pre) -> _Pre:
    """The transformer of ``left`` or ``right``."""
    if type(left) is tuple and type(right) is tuple:
        return left[0] | right[0], left[1] | right[1]
    return lambda target: _apply(left, target) | _apply(right, target)


def _star(s: _Labeller, body: _Pre) -> _Pre:
    """The transformer of ``body`` repeated any number of times on ``s``."""
    if type(body) is tuple:
        # the filter part only keeps what is already there; the steps carry
        # up each run of the guard, as ``S`` does, and without steps a star
        # is the identity
        guard = body[1]
        return (lambda target: s.since(guard, target)) if guard else (s.full, 0)

    def fixpoint(target: int) -> int:
        while True:
            grown = target | body(target)
            if grown == target:
                return target
            target = grown

    return fixpoint


def _compile(f: Node, logic: Logic | None, layer: str | None = None) -> _Program:
    """The program of ``f`` under ``logic``, or of the regex ``f`` in the
    ``"regex"`` layer, which type-checks every node.

    Every subformula below ``f`` takes its program from ``_INTERN``, so one
    program serves every live formula that holds it; ``f``'s own program is
    built afresh and dies with ``f``.  A tree that would label a subformula
    twice gets a slot for it (see ``_slotted``); any other keeps the plain
    programs.
    """
    return _intern(f, logic, _RULES[layer or logic], {}, True)


def _transformer(r: Node, logic: Logic) -> _Program:
    """The program of the regex ``r`` under ``logic``, which builds its transformer."""
    return _compile(r, logic, "regex")


class _Entry(weakref.ref):
    """A weak reference that knows the key it is kept under."""

    __slots__ = ("key",)


# the program of every subformula of a live formula, keyed by its builder and
# its operands' programs, or by an atom's name, and held weakly, so that an
# entry dies with the last program that uses it; no key hashes a subtree, as
# ``Node.__hash__`` walks all of it
_INTERN: dict[tuple, _Entry] = {}
_GONE = _Entry(lambda: None)  # a dead entry, what a missing key reads as


def _unintern(ref: _Entry) -> None:
    _INTERN.pop(ref.key, None)


def _interned(key: tuple) -> _Program:
    """The program that ``key`` builds, built and entered if absent."""
    program = _INTERN.get(key, _GONE)()
    if program is None:
        program = key[0](*key[1:])
        ref = _INTERN[key] = _Entry(program, _unintern)
        ref.key = key
    return program


def _intern(f: Node, logic: Logic | None, rules: tuple[dict, str], inner: dict,
            whole: bool = False) -> _Program:
    """The program of ``f`` under ``logic``, where ``rules`` admits ``f``.

    ``f`` is admitted before its operands are read, so a refusal names the
    first foreign node in prefix order, whatever programs are already shared.
    Operands are interned here, so each nesting level costs one frame.  A
    regex's operands are regexes, but a test's formula is read under
    ``logic`` and a step's under none.  ``inner`` maps each program below the
    ``whole`` formula, but a leaf's, to its key, operands first; and ``None``
    to ``None`` once a program with an operand other than a leaf is met twice.
    """
    cls = type(f)
    builders, refusal = rules
    build = builders.get(cls)
    if build is None:
        raise TypeError(f"{refusal}: {f!r}")
    shape = cls.__base__
    if shape is Binary:
        key = build, _intern(f.left, logic, rules, inner), _intern(f.right, logic, rules, inner)
    elif shape is Unary:
        if cls is RegexStar is type(f.arg):  # a star of a star is the inner star
            return _intern(f.arg, logic, rules, inner, whole)
        key = build, _intern(f.arg, logic, _RULES[logic] if cls is RegexTest else rules, inner)
    elif shape is Modal:
        key = (build, _intern(f.regex, logic, _RULES["regex"], inner),
               _intern(f.arg, logic, rules, inner))
    elif cls is RegexProp:
        key = build, _intern(f.prop, None, _RULES[None], inner)
    else:  # a leaf, shared but never slotted
        key = (build, f.name) if cls is Atom else (build,)
        return _INTERN.get(key, _GONE)() or _interned(key)
    if whole:
        return _slotted(inner, key) if None in inner else build(*key[1:])
    program = _INTERN.get(key, _GONE)() or _interned(key)
    if inner.setdefault(program, key) is not key and not inner.keys().isdisjoint(key[1:]):
        inner[None] = None  # met twice, with an operand other than a leaf
    return program


def _slot(program: _Program) -> _Program:
    """``program`` run once per labeller, which keeps its label in a slot."""
    def slotted(s: _Labeller) -> int | _Pre:
        label = s.slots.get(program)
        if label is None:
            label = s.slots[program] = program(s)
        return label

    return slotted


def _slotted(inner: dict, key: tuple) -> _Program:
    """The program keyed ``key``, of a formula whose inner programs ``inner``
    maps to their keys, with a slot for each of those that has an operand
    other than a leaf and that two of the formula's programs take as an
    operand, or one takes twice.

    Without its slot such a program would run once for each use; with the
    slots every program above the leaves' parents runs once per labeller.  A
    program whose operands are all leaves gets none: most are ``!p`` or
    ``!ff``, one bit operation, and on traces of 8 and 60 steps repeating
    ``p & q`` once costs 600-730 ns labelled twice and 710-830 ns with a slot.
    """
    del inner[None]
    uses = Counter(operand for _, *operands in (*inner.values(), key) for operand in operands)
    final: dict[_Program, _Program] = {}  # each inner program, slotted or over slots
    for program, (build, *operands) in inner.items():
        rebuilt = [final.get(operand, operand) for operand in operands]
        kept = program if rebuilt == operands else _interned((build, *rebuilt))
        if uses[program] > 1 and not inner.keys().isdisjoint(operands):
            kept = _interned((_slot, kept))
        final[program] = kept
    build, *operands = key
    return build(*[final.get(operand, operand) for operand in operands])


# A builder gets, by the shape its node's class derives from: an atom, its
# name, and any other leaf, nothing; a unary or binary node, and a step, the
# programs of its operands; a modality, the programs of its regex and its
# argument.  It returns the node's program, which reads no node.  Every label
# lies inside ``s.full``, so XOR with it is the complement.
_BUILDERS = {
    Atom: lambda name: lambda s: s.atom_masks.get(name, 0),
    TrueConst: lambda: lambda s: s.steps,
    FalseConst: lambda: lambda s: 0,
    Tautology: lambda: lambda s: s.full,
    Contradiction: lambda: lambda s: 0,
    Not: lambda a: lambda s: s.full ^ a(s),
    And: lambda a, b: lambda s: a(s) & b(s),
    Or: lambda a, b: lambda s: a(s) | b(s),
    Implies: lambda a, b: lambda s: (s.full ^ a(s)) | b(s),
    Equiv: lambda a, b: lambda s: s.full ^ a(s) ^ b(s),
    Xor: lambda a, b: lambda s: a(s) ^ b(s),
    First: lambda: lambda s: 1,
    Start: lambda: lambda s: 0,
    Before: lambda a: lambda s: (a(s) << 1) & s.full,
    Since: lambda a, b: lambda s: s.since(a(s), b(s)),
    Once: lambda a: lambda s: s.since(s.full, a(s)),
    Historically: lambda a: lambda s: s.since(x := a(s), x & 1),
    WeakNext: lambda a: lambda s: ((a(s) << 1) | 1) & s.full,
    WeakUntil: lambda a, b: lambda s: s.since(x := a(s), b(s) | (x & 1)),
    Release: lambda a, b: lambda s: s.since(y := b(s), y & (a(s) | 1)),
    StrongRelease: lambda a, b: lambda s: s.since(y := b(s), a(s) & y),
    BackDiamond: lambda r, a: lambda s: _apply(r(s), a(s)),
    BackBox: lambda r, a: lambda s: s.full ^ _apply(r(s), s.full ^ a(s)),
    # shifted up one and cut to the width, a step sits at the bit of the
    # position it leaves, just above the position it moves to
    RegexProp: lambda a: lambda s: (0, (a(s) << 1) & s.full),
    RegexTest: lambda a: lambda s: (a(s), 0),
    RegexStar: lambda r: lambda s: _star(s, r(s)),
    RegexConcat: lambda r, t: lambda s: _concat(r(s), t(s)),
    RegexUnion: lambda r, t: lambda s: _union(r(s), t(s)),
}
# the future operators labelled, on the mirrored trace, by their past mirrors' builders
_BUILDERS.update({future: _BUILDERS[past] for future, past in (
    (Until, Since), (Eventually, Once), (Always, Historically), (StrongNext, Before),
    (Last, First), (End, Start), (Diamond, BackDiamond), (Box, BackBox))})


def _rules(kinds: frozenset[TokenKind], refusal: str) -> tuple[dict, str]:
    """The builders of the formula classes that ``kinds`` build, and how any
    other node is refused."""
    return {cls: build for cls, build in _BUILDERS.items() if cls not in _REGEX_CLASSES
            and (OPERATORS[cls].kind if cls is not Atom else TokenKind.ATOM) in kinds}, refusal


# each logic's name, how it refuses a node, the bounds of its positions on a
# trace of n steps as offsets from 0 and from n, and whether it looks into the past
_LOGICS = {
    Logic.LTLF: ("LTLf", "not an LTLf formula", 0, -1, False),
    Logic.PLTLF: ("PLTLf", "not a PLTLf formula", 0, -1, True),
    Logic.LDLF: ("LDLf", "not an LDLf formula at formula level", 0, 0, False),
    Logic.PLDLF: ("PLDLf", "not a PLDLf formula at formula level", -1, -1, True),
}
# A logic admits the formula classes that its tokens build, less the leaves
# of the steps inside its regexes.  A step admits the boolean layer that every
# logic shares, without ``tt`` and ``ff``, and the regex layer the regex classes.
_RULES = {
    None: _rules(frozenset.intersection(*ACTIVE_KINDS.values()) - {TokenKind.TT, TokenKind.FF},
                 "not a propositional formula"),
    **{logic: _rules(ACTIVE_KINDS[logic] - _STEP_LEAVES[logic], refusal)
       for logic, (_, refusal, *_) in _LOGICS.items()},
    "regex": ({cls: _BUILDERS[cls] for cls in _REGEX_CLASSES}, "not a regular-expression node"),
}


class _Compiled(_Entry):
    """A weak reference to a formula, with its program under one logic."""

    __slots__ = ("program",)


# each formula's program per logic, keyed by the formula's identity (hashing
# a tree would walk all of it, which costs about as much as labelling it),
# with a weak reference to the formula whose collection drops the entry
_PROGRAMS: dict[tuple[int, Logic | None], _Compiled] = {}


def _forget(ref: _Entry) -> None:
    _PROGRAMS.pop(ref.key, None)


def _program(node: Node, logic: Logic | None) -> _Program:
    """The program of ``node`` under ``logic``, compiled on first use and
    kept while ``node`` lives; a node that fails to compile raises each time."""
    key = (id(node), logic)
    entry = _PROGRAMS.get(key)
    if entry is not None and entry() is node:
        return entry.program
    program = _compile(node, logic)
    entry = _PROGRAMS[key] = _Compiled(node, _forget)
    entry.key, entry.program = key, program
    return program


# ------------------------------------------------------------ evaluation


def eval_prop(node: Node, step: Iterable[str]) -> bool:
    """Evaluate a purely propositional formula against one step."""
    return _program(node, None)(_Labeller(Trace([step]).atom_masks, 1, 1)) == 1


def _labeller(trace: Trace, logic: Logic) -> _Labeller:
    """The labeller of ``trace`` under ``logic``, one bit for each position."""
    _, _, low, high, past = _LOGICS[logic]
    n = trace._length
    return _Labeller(trace.atom_masks if past else trace._mirrored_masks, n, n + high - low + 1)


# the last label computed, with strong references to what it was computed
# for, the highest position it has, and the labeller it was computed with
_last: tuple = (None, None, None, 0, 0, None)


def _evaluator(logic: Logic, doc: str) -> Callable[[Node, Trace, int], bool]:
    """The evaluator of ``logic``, named ``eval_<logic>`` and documented by
    ``doc``, which reads one bit of a node's label.  Only the last label is
    kept, with its highest position, so asking about every position of one
    trace in turn labels once and reads each bit without a call.  The labeller
    it was computed with is kept beside it and serves every formula asked about
    while calls stay on that trace object under that logic; a call on another
    trace object or under another logic builds a new one."""
    name, _, low, offset, past = _LOGICS[logic]

    def evaluate(node: Node, trace: Trace, position: int) -> bool:
        global _last
        last_node, last_trace, last_logic, label, high, s = _last
        if last_trace is not trace or last_logic is not logic:
            if not isinstance(trace, Trace):
                raise TypeError(f"{name} is evaluated on a Trace, not a {type(trace).__name__}")
            s, label, high = None, None, trace._length + offset
        elif last_node is not node:
            label = None
        if not low <= position <= high:
            if high < low:
                raise EmptyTraceError(f"{name} formulas have no value on the empty trace")
            raise PositionOutOfRangeError(f"position {position} outside [{low}, {high}]")
        if label is None:
            if s is None:
                s = _labeller(trace, logic)
            label = _program(node, logic)(s)
            _last = (node, trace, logic, label, high, s)
        # counted from the far end of the way the logic looks
        return bool(label >> (position - low if past else high - position) & 1)

    evaluate.__name__ = evaluate.__qualname__ = f"eval_{logic.value}"
    evaluate.__doc__ = doc
    return evaluate


eval_ltlf = _evaluator(
    Logic.LTLF, """Evaluate an LTLf formula at ``position`` (0-based, inside the trace).

    The empty trace has no positions and raises :class:`EmptyTraceError`.
    """)
eval_pltlf = _evaluator(
    Logic.PLTLF, """Evaluate a PLTLf formula at ``position``; past operators look toward 0.""")
eval_ldlf = _evaluator(
    Logic.LDLF, """Evaluate an LDLf formula at ``position`` in ``[0, len(trace)]``.

    The position just past the last step is legal: ``tt`` still holds there,
    while any diamond that needs to move does not.
    """)
eval_pldlf = _evaluator(
    Logic.PLDLF, """Evaluate a PLDLf formula at ``position`` in ``[-1, len(trace) - 1]``.

    The position just before the first step is legal, mirroring LDLf's
    position past the end.
    """)
_EVALUATORS = {Logic.LTLF: eval_ltlf, Logic.PLTLF: eval_pltlf,
               Logic.LDLF: eval_ldlf, Logic.PLDLF: eval_pldlf}


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
    if not isinstance(trace, Trace):
        raise TypeError(f"regex_reach reads a Trace, not a {type(trace).__name__}")
    logic = Logic.LDLF if direction == "forward" else Logic.PLDLF
    _, _, low, offset, past = _LOGICS[logic]
    high = trace._length + offset
    pre = _transformer(regex, logic)(_labeller(trace, logic))
    at = range(low, high + 1) if past else range(high, low - 1, -1)  # bit -> position
    pairs: set[tuple[int, int]] = set()
    for k, j in enumerate(at):
        sources = _apply(pre, 1 << k)
        pairs.update((i, j) for b, i in enumerate(at) if sources >> b & 1)
    return frozenset(pairs)


def satisfies(node: Node, trace: Trace, logic: Logic) -> bool:
    """Whether the trace as a whole satisfies the formula.

    Future-looking logics are anchored at the first position, past-looking
    logics at the last; the dynamic logics keep their off-the-end position
    for the empty trace, while LTLf and PLTLf reject it.
    """
    if not isinstance(logic, Logic):
        raise ValueError(f"unknown logic: {logic!r}")
    past = _LOGICS[logic][4]
    if past and not isinstance(trace, Trace):  # the anchor reads it; evaluators check the rest
        raise TypeError(f"satisfies reads a Trace, not a {type(trace).__name__}")
    return _EVALUATORS[logic](node, trace, trace._length - 1 if past else 0)
