"""One program per distinct subformula, and one label per repeat.

Formulas compile as one DAG: every distinct subformula has one program,
shared by every live formula that holds it, and a subformula that one
formula would label twice gets a slot on the labeller.  So eight copies of a
formula cost little more than one; grafting a repeat into a formula adds no
labelling; a slot is filled once per labeller, whichever formulas share it;
verdicts stay those of the recursive oracle; the table of shared programs
forgets what dropped formulas left behind; and a program shared by two
logics still lets each refuse what it does not admit.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from time import perf_counter

import pytest

import tracelang.semantics as semantics
from tracelang import (
    And,
    Atom,
    Logic,
    Node,
    Or,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Since,
    Trace,
    Until,
    children,
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    parse,
    satisfies,
)
from conftest import all_traces
from formula_gen import gen_formula
from recursive_oracle import evaluate

LOGICS = (Logic.LTLF, Logic.PLTLF, Logic.LDLF, Logic.PLDLF)
EVALUATORS = {Logic.LTLF: eval_ltlf, Logic.PLTLF: eval_pltlf,
              Logic.LDLF: eval_ldlf, Logic.PLDLF: eval_pldlf}
REGEXES = (RegexProp, RegexTest, RegexStar, RegexConcat, RegexUnion)


def positions(logic, n):
    """Every legal position: the dynamic logics add ``n`` and ``-1``."""
    return range(-(logic is Logic.PLDLF), n + (logic is Logic.LDLF))


def operands(f):
    return [child for child in children(f) if isinstance(child, Node)]


def subformulas(f):
    """Every node of ``f`` read under its logic: no regex, and no step's formula."""
    if not isinstance(f, REGEXES):
        yield f
    if type(f) is not RegexProp:
        for child in operands(f):
            yield from subformulas(child)


def grafted(rng, logic, count):
    """``count`` triples ``(g, g & x, x | g)``: a generated formula ``g`` and
    two formulas that repeat its subformula ``x``, chosen with an operand that
    is not a leaf, which is what earns a repeat its slot."""
    suite = []
    while len(suite) < count:
        g = gen_formula(rng, logic, ("p", "q"), depth=4)
        slotted = [x for x in subformulas(g) if any(map(operands, operands(x)))]
        if slotted:
            x = rng.choice(slotted)
            suite.append((g, And(g, x), Or(x, g)))
    return suite


class Rows(dict):
    """Atom rows that count their reads."""

    def __init__(self, rows, counts):
        super().__init__(rows)
        self.counts = counts

    def get(self, *args):
        self.counts["rows"] += 1
        return super().get(*args)


class Slots(dict):
    """Slots that count how often each is filled."""

    def __init__(self, fills):
        super().__init__()
        self.fills = fills

    def __setitem__(self, program, label):
        self.fills[program] += 1
        super().__setitem__(program, label)


@pytest.fixture
def built(monkeypatch):
    """For each labeller built, in order: its atom rows read and ``since``
    carries taken, and how often each of its slots was filled."""
    labellers = []

    class Counting(semantics._Labeller):
        def __init__(self, atom_masks, n, width):
            self.counts, fills = Counter(), Counter()
            labellers.append((self.counts, fills))
            super().__init__(Rows(atom_masks, self.counts), n, width)
            self.slots = Slots(fills)

        def since(self, a, b):
            self.counts["carries"] += 1
            return super().since(a, b)

    monkeypatch.setattr(semantics, "_Labeller", Counting)
    return labellers


# ---------------------------------------------------------------- the bound


def test_eight_copies_cost_at_most_one_and_a_half_of_one():
    one = parse("G(a -> F b)", Logic.LTLF)
    eight = parse(" & ".join(["G(a -> F b)"] * 8), Logic.LTLF)
    # two equal traces taken in turn, so that every call labels afresh
    traces = [Trace([["a"], ["b"]] * 50_000) for _ in range(2)]
    best = {one: float("inf"), eight: float("inf")}
    for k in range(100):
        for f in (one, eight):
            start = perf_counter()
            assert satisfies(f, traces[k % 2], Logic.LTLF) is True
            best[f] = min(best[f], perf_counter() - start)
    assert best[eight] <= 1.5 * best[one], (best[one], best[eight])


# --------------------------------------------------------------- the counts


@pytest.mark.parametrize("logic", LOGICS, ids=lambda logic: logic.value)
def test_a_grafted_repeat_adds_no_labelling(built, logic):
    rng = random.Random(2501)
    for g, *repeats in grafted(rng, logic, 12):
        steps = [{a for a in "pq" if rng.random() < 0.5} for _ in range(5)]
        # each on a trace object of its own, so on a labeller of its own
        satisfies(g, Trace(steps), logic)
        alone, _ = built[-1]
        for f in repeats:
            satisfies(f, Trace(steps), logic)
            counts, _ = built[-1]
            # every atom row read and carry taken is one that g alone takes
            assert counts == alone, (f, counts, alone)
        # both on one labeller: the repeat's slot is filled once for both formulas
        shared = Trace(steps)
        for f in repeats:
            satisfies(f, shared, logic)
        _, fills = built[-1]
        assert fills and set(fills.values()) == {1}, (repeats, fills)


def test_a_repeat_inside_a_formula_is_labelled_once(built):
    f = parse(" & ".join(["G(a -> F b)"] * 8), Logic.LTLF)
    assert satisfies(f, Trace([{"a"}, {"b"}] * 3), Logic.LTLF) is True
    counts, fills = built[-1]
    # two atom rows and the two carries of G and F, as for one copy
    assert counts == {"rows": 2, "carries": 2}
    assert list(fills.values()) == [1]


# ------------------------------------------------------------- the verdicts


@pytest.mark.parametrize("logic", LOGICS, ids=lambda logic: logic.value)
def test_verdicts_with_repeats_equal_the_oracle(logic):
    suite = [f for formulas in grafted(random.Random(2502), logic, 3) for f in formulas[1:]]
    for trace in all_traces(range(0 if logic in (Logic.LDLF, Logic.PLDLF) else 1, 5)):
        for i in positions(logic, len(trace)):
            for f in suite:
                got = EVALUATORS[logic](f, trace, i)
                assert got == evaluate(f, trace, logic, i), (f, trace.steps, i)


# ---------------------------------------------------------------- the table


def test_the_table_forgets_dropped_formulas():
    def settle():
        # the last label now holds neither a formula nor a slot of this test
        satisfies(Atom("p"), Trace([{"p"}]), Logic.LTLF)
        gc.collect()
        return len(semantics._INTERN)

    start = settle()
    rng = random.Random(2503)
    trace = Trace([{"p"}, {"q"}, {"p", "q"}])
    kept = []
    for k in range(10_000):
        logic = LOGICS[k % 4]
        # an atom of its own, so that every formula enters programs of its own
        g = gen_formula(rng, logic, ("p", f"q{k}"), depth=4)
        f = And(g, g)
        satisfies(f, trace, logic)
        if k < 100:
            kept.append(f)
    assert len(semantics._INTERN) > start
    del f, g, kept
    assert settle() == start


# ------------------------------------------------------------- the refusals


@pytest.mark.parametrize("admitted, refused, node", [
    (Logic.PLTLF, Logic.LTLF, Since),
    (Logic.LTLF, Logic.PLTLF, Until),
], ids=["since", "until"])
@pytest.mark.parametrize("admitted_first", [True, False], ids=["admitted first", "refused first"])
def test_a_shared_program_keeps_each_refusal(admitted, refused, node, admitted_first):
    p, q = Atom("p"), Atom("q")
    trace = Trace([{"q"}, {"p"}])
    name = {Logic.LTLF: "an LTLf", Logic.PLTLF: "a PLTLf"}[refused]

    def refuse():
        for _ in range(2):
            with pytest.raises(TypeError) as error:
                satisfies(And(p, node(p, q)), trace, refused)
            assert str(error.value) == f"not {name} formula: {node(p, q)!r}"

    if not admitted_first:
        refuse()
    assert satisfies(node(p, q), trace, admitted) is True
    refuse()
