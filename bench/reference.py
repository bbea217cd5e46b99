"""Reference semantics for the benchmark's verdict checks.

Each subformula is labelled once with the set of positions where it holds,
kept as a Python ``int`` bit set (path labelling, after Markey and
Schnoebelen, "Model Checking a Path", CONCUR 2003).  The definitions follow
De Giacomo and Vardi, "Linear Temporal Logic and Linear Dynamic Logic on
Finite Traces" (IJCAI 2013), with the position conventions tracelang
documents: LTLf and PLTLf live on ``0..n-1``; LDLf adds the position ``n``
past the last step and PLDLf the position ``-1`` before the first.  A
modality is a predecessor transformer on sets, ``<r>f = pre_r(S_f)`` and
``[r]f = not <r> not f``.

Trees are the generator's tuples (see ``gen.py``).  Nothing here imports
``tracelang``.
"""

from __future__ import annotations

import sys


class Labeller:
    """Labels trees over one trace under one logic.

    Bit ``k`` of a label stands for position ``k`` in LTLf, PLTLf and LDLf,
    and for position ``k - 1`` in PLDLf.
    """

    def __init__(self, steps: list, logic: str):
        self.logic = logic
        self.n = n = len(steps)
        self.steps_all = (1 << n) - 1
        dynamic = logic in ("ldlf", "pldlf")
        self.universe = (1 << (n + 1)) - 1 if dynamic else self.steps_all
        # PLDLf reads step i at bit i + 1, the bit of position i
        self.step_shift = 1 if logic == "pldlf" else 0
        self.atom_masks: dict[str, int] = {}
        for i, step in enumerate(steps):
            for name in step:
                self.atom_masks[name] = self.atom_masks.get(name, 0) | (1 << i)

    def holds(self, tree: tuple) -> bool:
        """The verdict ``satisfies`` must give: LTLf and LDLf read from the
        first position, PLTLf and PLDLf from the last."""
        n, logic = self.n, self.logic
        if logic in ("ltlf", "pltlf") and n == 0:
            raise ValueError("the linear logics give the empty trace no value")
        bit = {"ltlf": 0, "ldlf": 0, "pltlf": n - 1, "pldlf": n}[logic]
        return bool(self.label(tree) >> bit & 1)

    def positions(self, tree: tuple) -> list[bool]:
        """The verdict at every position of a linear-logic trace."""
        label = self.label(tree)
        return [bool(label >> i & 1) for i in range(self.n)]

    # ----------------------------------------------------- propositions

    def prop(self, t: tuple) -> int:
        """Steps (bits 0..n-1) whose atom set satisfies a step formula."""
        op, full = t[0], self.steps_all
        if op == "atom":
            return self.atom_masks.get(t[1], 0)
        if op == "true":
            return full
        if op == "false":
            return 0
        if op == "not":
            return full & ~self.prop(t[1])
        return _boolean(op, self.prop(t[1]), self.prop(t[2]), full)

    # --------------------------------------------------------- formulas

    def label(self, t: tuple) -> int:
        op, n, full = t[0], self.n, self.universe
        if self.logic in ("ltlf", "pltlf") and op in ("atom", "true", "false"):
            return self.prop(t)
        if op == "tt":
            return full
        if op in ("ff", "end", "start"):
            return 0
        if op == "last":
            return 1 << (n - 1) if n else 0
        if op == "first":
            return 1 if n else 0
        if op == "not":
            return full & ~self.label(t[1])
        if op in ("and", "or", "impl", "equiv", "xor"):
            return _boolean(op, self.label(t[1]), self.label(t[2]), full)
        if op == "next":
            return self.label(t[1]) >> 1
        if op == "weak_next":
            return (self.label(t[1]) >> 1) | (1 << (n - 1) if n else 0)
        if op == "eventually":
            a = self.label(t[1])
            return (1 << a.bit_length()) - 1
        if op == "always":
            return full & ~((1 << (full & ~self.label(t[1])).bit_length()) - 1)
        if op == "once":
            a = self.label(t[1])
            return full & ~((a & -a) - 1) if a else 0
        if op == "historically":
            gaps = full & ~self.label(t[1])
            return full & ((gaps & -gaps) - 1) if gaps else full
        if op == "before":
            return (self.label(t[1]) << 1) & full
        if op in ("until", "weak_until", "release", "strong_release", "since"):
            return self.sweep(op, self.label(t[1]), self.label(t[2]))
        if op in ("diamond", "back_diamond"):
            return self.pre(t[1], self.label(t[2]))
        if op in ("box", "back_box"):
            return full & ~self.pre(t[1], full & ~self.label(t[2]))
        raise ValueError(f"no {self.logic} formula starts with {op!r}")

    def sweep(self, op: str, left: int, right: int) -> int:
        """Binary temporal operators by their one-step recurrences.

        ``a U b`` at i is b(i) or (a(i) and (a U b)(i+1)), false past the end;
        ``W`` is the same but true past the end; ``a R b`` at i is b(i) and
        (a(i) or (a R b)(i+1)), true past the end; ``M`` is ``R`` but false
        past the end.  ``a S b`` runs the ``U`` recurrence toward position 0.
        """
        n = self.n
        since = op == "since"
        acc = op in ("weak_until", "release")
        result = 0
        for i in (range(n) if since else range(n - 1, -1, -1)):
            a, b = left >> i & 1, right >> i & 1
            if op in ("release", "strong_release"):
                acc = bool(b and (a or acc))
            else:
                acc = bool(b or (a and acc))
            if acc:
                result |= 1 << i
        return result

    def pre(self, r: tuple, target: int) -> int:
        """Positions from which some path of ``r`` ends inside ``target``."""
        op = r[0]
        if op == "prop":
            steps = self.prop(r[1]) << self.step_shift
            if self.logic == "ldlf":
                return steps & (target >> 1)  # step i moves i -> i+1
            return steps & (target << 1)  # step i moves i -> i-1
        if op == "test":
            return target & self.label(r[1])
        if op == "concat":
            return self.pre(r[1], self.pre(r[2], target))
        if op == "union":
            return self.pre(r[1], target) | self.pre(r[2], target)
        if op == "star":
            reach = target
            while True:
                grown = reach | self.pre(r[1], reach)
                if grown == reach:
                    return reach
                reach = grown
        raise ValueError(f"not a regular expression: {op!r}")


def _boolean(op: str, a: int, b: int, full: int) -> int:
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "impl":
        return (full & ~a) | b
    if op == "equiv":
        return full & ~(a ^ b)
    return a ^ b


# ------------------------------------------------------------ self check


def _cases():
    a = lambda name: ("atom", name)  # noqa: E731
    tt, ff, true = ("tt",), ("ff",), ("true",)
    step = lambda name: ("prop", a(name))  # noqa: E731
    # the README example: requests are eventually granted
    readme = ("always", ("impl", a("request"), ("eventually", a("grant"))))
    trace = [{"request"}, set(), {"grant"}]
    yield "readme", Labeller(trace, "ltlf").holds(readme), True
    yield "readme drops the grant", Labeller(trace[:2], "ltlf").holds(readme), False
    yield "readme labels", Labeller(trace, "ltlf").positions(readme), [True] * 3
    # tt holds past the last step; <true>tt needs one more step there
    two = [{"p"}, set()]
    yield "tt at n", Labeller(two, "ldlf").label(tt), 0b111
    yield "<true>tt at n", Labeller(two, "ldlf").label(("diamond", ("prop", true), tt)), 0b011
    yield "[true]ff only at n", Labeller(two, "ldlf").label(("box", ("prop", true), ff)), 0b100
    yield "<<true>>tt at -1", Labeller(two, "pldlf").label(
        ("back_diamond", ("prop", true), tt)), 0b110
    # the empty trace: only the off-the-end position exists
    for logic, dia, box in (("ldlf", "diamond", "box"), ("pldlf", "back_diamond", "back_box")):
        empty = Labeller([], logic)
        yield f"{logic} empty tt", empty.holds(tt), True
        yield f"{logic} empty <true>tt", empty.holds((dia, ("prop", true), tt)), False
        yield f"{logic} empty [true]ff", empty.holds((box, ("prop", true), ff)), True
        yield f"{logic} empty <true*>tt", empty.holds((dia, ("star", ("prop", true)), tt)), True
    # <p*;q>tt: a run of p steps, then a q step
    pq = [{"p"}, {"p"}, {"q"}, set()]
    yield "<p*;q>tt", Labeller(pq, "ldlf").label(
        ("diamond", ("concat", ("star", step("p")), step("q")), tt)), 0b0111
    # a test inside a regex: <(<p>tt?;true)*><q>tt behaves like p U q
    until = ("diamond", ("star", ("concat", ("test", ("diamond", step("p"), tt)),
                                  ("prop", true))), ("diamond", step("q"), tt))
    yield "p U q as LDLf", Labeller(pq, "ldlf").label(until), 0b0111
    yield "p U q", Labeller(pq, "ltlf").label(("until", a("p"), a("q"))), 0b0111
    yield "p W q", Labeller([{"p"}, {"p"}], "ltlf").label(("weak_until", a("p"), a("q"))), 0b11
    yield "p R q", Labeller([{"q"}, {"p", "q"}, set()], "ltlf").label(
        ("release", a("p"), a("q"))), 0b011
    yield "p M q", Labeller([{"q"}, {"q"}], "ltlf").label(
        ("strong_release", a("p"), a("q"))), 0b00
    yield "X and X[!] at the end", [
        Labeller([set(), set()], "ltlf").label(("weak_next", ("false",))),
        Labeller([set(), set()], "ltlf").label(("next", ("true",)))], [0b10, 0b01]
    yield "p S q", Labeller([{"q"}, {"p"}, set(), {"p"}], "pltlf").label(
        ("since", a("p"), a("q"))), 0b0011
    yield "H and O", [Labeller([{"p"}, {"p"}, set()], "pltlf").label(("historically", a("p"))),
                      Labeller([set(), {"p"}, set()], "pltlf").label(("once", a("p")))], \
        [0b011, 0b110]
    yield "first and Y", [Labeller([set(), set()], "pltlf").label(("first",)),
                          Labeller([{"p"}, set()], "pltlf").label(("before", a("p")))], \
        [0b01, 0b10]


def self_check() -> list[str]:
    """Hand-computed cases the labeller must reproduce; returns the failures."""
    return [f"{name}: got {got!r}, expected {want!r}"
            for name, got, want in _cases() if got != want]


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print(line)
    print("reference self-check:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
