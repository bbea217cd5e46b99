"""Evaluation: pinned cases per operator, plus a cross-check of the
quantifier-style evaluator against one-step expansion laws."""

from __future__ import annotations

import random

import pytest

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
    EmptyTraceError,
    End,
    Equiv,
    Eventually,
    FalseConst,
    First,
    Historically,
    Implies,
    Last,
    Logic,
    Not,
    Once,
    Or,
    PositionOutOfRangeError,
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
    eval_ldlf,
    eval_ltlf,
    eval_pldlf,
    eval_pltlf,
    eval_prop,
    parse_ldlf,
    parse_ltlf,
    parse_pldlf,
    parse_pltlf,
    regex_reach,
    satisfies,
)
from formula_gen import gen_formula

p, q = Atom("p"), Atom("q")
tt, ff = Tautology(), Contradiction()


def T(*steps):
    return Trace(steps)


# -------------------------------------------------------------------- traces


def test_trace_normalisation():
    t = Trace([["p", "q"], [], ["p"]])
    assert len(t) == 3
    assert t[0] == frozenset({"p", "q"})
    assert t[1] == frozenset()
    assert Trace([{"p"}]) == Trace([["p", "p"]])
    assert len(Trace()) == 0


def test_trace_rejects_non_string_atoms():
    with pytest.raises(TypeError):
        Trace([[1]])


def test_trace_rejects_a_string_as_a_step():
    # a string is an iterable of one-letter names, never the step its name says
    with pytest.raises(TypeError, match="not the string 'request'"):
        Trace(["request"])
    with pytest.raises(TypeError):
        Trace([["p"], "q"])
    assert Trace([("request",)]) == Trace([["request"]])


# --------------------------------------------------------------- prop steps


def test_eval_prop():
    step = {"p"}
    assert eval_prop(p, step)
    assert not eval_prop(q, step)
    assert eval_prop(Or(q, TrueConst()), step)
    assert not eval_prop(And(p, q), step)
    assert eval_prop(Implies(q, p), step)
    assert eval_prop(Equiv(p, Not(q)), step)
    assert eval_prop(Xor(p, q), step)
    with pytest.raises(TypeError):
        eval_prop(Eventually(p), step)


def test_eval_prop_checks_its_step_as_a_trace_does():
    with pytest.raises(TypeError, match="not the string 'ab'"):
        eval_prop(Atom("a"), "ab")
    with pytest.raises(TypeError, match="atom names must be strings"):
        eval_prop(Atom("a"), [1])
    assert eval_prop(Atom("ab"), ("ab",))
    assert not eval_prop(p, ())


# --------------------------------------------------------------------- LTLf


def test_next_variants_at_the_last_position():
    t = T({"p"}, {"q"})
    assert eval_ltlf(WeakNext(q), t, 0)
    assert eval_ltlf(StrongNext(q), t, 0)
    assert eval_ltlf(WeakNext(p), t, 1)  # weak: trivially true at the end
    assert not eval_ltlf(StrongNext(p), t, 1)
    assert eval_ltlf(WeakNext(ff), t, 1)
    assert not eval_ltlf(WeakNext(q), T({"p"}, {"p"}), 0)


def test_until_family():
    t = T({"p"}, {"p"}, {"q"})
    assert eval_ltlf(Until(p, q), t, 0)
    assert eval_ltlf(Until(p, q), t, 2)
    assert not eval_ltlf(Until(p, q), T({"p"}, {"p"}, set()), 0)
    assert not eval_ltlf(Until(p, q), T({"p"}, set(), {"q"}), 0)
    # weak until also accepts "p holds to the end of the trace"
    assert eval_ltlf(WeakUntil(p, q), T({"p"}, {"p"}), 0)
    assert not eval_ltlf(Until(p, q), T({"p"}, {"p"}), 0)
    assert not eval_ltlf(WeakUntil(p, q), T({"p"}, set()), 0)


def test_release_family():
    assert eval_ltlf(Release(p, q), T({"q"}, {"q"}), 0)
    assert not eval_ltlf(Release(p, q), T({"q"}, set()), 0)
    assert eval_ltlf(Release(p, q), T({"q"}, {"p", "q"}, set()), 0)
    assert not eval_ltlf(Release(p, q), T({"q"}, {"p"}, set()), 0)
    # strong release additionally demands the release really happens
    assert not eval_ltlf(StrongRelease(p, q), T({"q"}, {"q"}), 0)
    assert eval_ltlf(StrongRelease(p, q), T({"q"}, {"p", "q"}), 0)


def test_eventually_always_and_the_position_constants():
    t = T(set(), {"p"}, set())
    assert eval_ltlf(Eventually(p), t, 0)
    assert not eval_ltlf(Eventually(p), t, 2)
    assert eval_ltlf(Always(Or(p, Not(p))), t, 0)
    assert not eval_ltlf(Always(p), t, 1)
    assert eval_ltlf(Last(), t, 2)
    assert not eval_ltlf(Last(), t, 1)
    for i in range(3):
        assert not eval_ltlf(End(), t, i)
    assert eval_ltlf(Eventually(Last()), t, 0)
    assert eval_ltlf(parse_ltlf("tt & !ff"), t, 0)


# -------------------------------------------------------------------- PLTLf


def test_past_operators_mirror_the_future_ones():
    t = T({"q"}, {"p"}, {"p"})
    assert eval_pltlf(Before(q), t, 1)
    assert not eval_pltlf(Before(q), t, 0)  # no step before the first
    assert not eval_pltlf(Before(q), t, 2)
    assert eval_pltlf(Since(p, q), t, 2)
    assert eval_pltlf(Since(p, q), t, 0)
    assert not eval_pltlf(Since(p, q), T({"q"}, set(), {"p"}), 2)
    assert eval_pltlf(Once(q), t, 2)
    assert not eval_pltlf(Once(p), t, 0)
    assert not eval_pltlf(Historically(p), t, 2)
    assert eval_pltlf(Historically(Or(p, q)), t, 2)
    assert eval_pltlf(First(), t, 0)
    assert not eval_pltlf(First(), t, 1)
    assert not eval_pltlf(Start(), t, 0)
    assert eval_pltlf(Once(First()), t, 2)


# --------------------------------------------------------------------- LDLf


def test_diamond_and_box_basics():
    assert eval_ldlf(parse_ldlf("<a>tt"), T({"a"}), 0)
    assert not eval_ldlf(parse_ldlf("<a>tt"), T(set()), 0)
    assert not eval_ldlf(parse_ldlf("<a>tt"), T({"a"}), 1)
    assert not eval_ldlf(parse_ldlf("[a]ff"), T({"a"}), 0)
    assert eval_ldlf(parse_ldlf("[a]ff"), T(set()), 0)  # no step: vacuous
    assert eval_ldlf(parse_ldlf("[a]<b>tt"), T({"a"}, {"b"}), 0)


def test_logical_and_propositional_constants_differ_off_the_end():
    t = T({"a"})
    assert eval_ldlf(tt, t, 1)
    assert not eval_ldlf(ff, t, 1)
    assert eval_ldlf(parse_ldlf("<true>tt"), t, 0)
    assert not eval_ldlf(parse_ldlf("<true>tt"), t, 1)
    assert eval_ldlf(parse_ldlf("<tt?>tt"), t, 1)
    assert eval_ldlf(tt, Trace(), 0)
    assert not eval_ldlf(parse_ldlf("<true>tt"), Trace(), 0)


def test_regex_operators():
    ab = T({"a"}, {"b"})
    assert eval_ldlf(parse_ldlf("<a ; b>tt"), ab, 0)
    assert not eval_ldlf(parse_ldlf("<a ; a>tt"), ab, 0)
    assert eval_ldlf(parse_ldlf("<a + b>tt"), T({"b"}), 0)
    # star includes the empty path
    assert eval_ldlf(parse_ldlf("<a*>tt"), T(set()), 1)
    assert eval_ldlf(parse_ldlf("<a*><b>tt"), T({"a"}, {"a"}, {"b"}), 0)
    assert not eval_ldlf(parse_ldlf("<a*><b>tt"), T({"a"}, set(), {"b"}), 0)
    assert eval_ldlf(parse_ldlf("<(<a>tt)?><true>tt"), T({"a"}), 0)
    assert not eval_ldlf(parse_ldlf("<(<b>tt)?><true>tt"), T({"a"}), 0)


def test_box_quantifies_over_every_path():
    t = T({"a"}, {"a"}, set())
    # every a-prefix must land on a position from which <true>tt still holds
    assert eval_ldlf(parse_ldlf("[a*]<true>tt"), t, 0)
    assert not eval_ldlf(parse_ldlf("[true*]<true>tt"), t, 0)


# -------------------------------------------------------------------- PLDLf


def test_backward_modalities():
    t = T({"b"}, {"a"})
    assert eval_pldlf(parse_pldlf("<<a>>tt"), t, 1)
    assert not eval_pldlf(parse_pldlf("<<b>>tt"), t, 1)
    assert eval_pldlf(parse_pldlf("<<a ; b>>tt"), t, 1)
    assert not eval_pldlf(parse_pldlf("<<b ; a>>tt"), t, 1)
    assert eval_pldlf(parse_pldlf("<<true*>>tt"), t, -1)
    assert eval_pldlf(tt, t, -1)
    assert not eval_pldlf(parse_pldlf("<<true>>tt"), t, -1)
    assert eval_pldlf(parse_pldlf("[[b]]ff"), t, 1)  # b fails at step 1: vacuous
    assert eval_pldlf(parse_pldlf("[[a]]tt"), t, 1)


# -------------------------------------------------------------- regex_reach


def test_reach_of_a_propositional_step():
    t = T({"a"}, set())
    assert regex_reach(parse_ldlf("<a>tt").regex, t) == {(0, 1)}
    assert regex_reach(parse_ldlf("<true>tt").regex, t) == {(0, 1), (1, 2)}
    assert regex_reach(parse_pldlf("<<a>>tt").regex, t, "backward") == {(0, -1)}


def test_reach_of_star_is_reflexive_and_transitive():
    t = T(set(), set())
    closure = regex_reach(parse_ldlf("<true*>tt").regex, t)
    assert closure == {(i, j) for i in range(3) for j in range(3) if i <= j}
    identity = regex_reach(parse_ldlf("<a*>tt").regex, t)
    assert identity == {(0, 0), (1, 1), (2, 2)}


def test_reach_of_tests_and_compositions():
    t = T({"a"}, {"b"})
    test_reach = regex_reach(parse_ldlf("<(<a>tt)?>tt").regex, t)
    assert test_reach == {(0, 0)}
    concat = regex_reach(parse_ldlf("<a ; b>tt").regex, t)
    assert concat == {(0, 2)}
    assert regex_reach(parse_ldlf("<a + b>tt").regex, t) == {(0, 1), (1, 2)}


def test_reach_direction_validation():
    with pytest.raises(ValueError):
        regex_reach(RegexProp(p), T({"p"}), "sideways")


# ------------------------------------------------------------------- errors


def test_satisfies_takes_a_logic_not_its_name():
    with pytest.raises(ValueError, match="^unknown logic: 'ltlf'$"):
        satisfies(p, T({"p"}), "ltlf")


def test_empty_trace_handling():
    for evaluate in (eval_ltlf, eval_pltlf):
        with pytest.raises(EmptyTraceError):
            evaluate(p, Trace(), 0)
    with pytest.raises(EmptyTraceError):
        satisfies(p, Trace(), Logic.LTLF)
    with pytest.raises(EmptyTraceError):
        satisfies(p, Trace(), Logic.PLTLF)
    # the dynamic logics keep their single off-the-end position
    assert satisfies(tt, Trace(), Logic.LDLF)
    assert satisfies(tt, Trace(), Logic.PLDLF)


def test_position_bounds():
    t = T({"p"})
    for evaluate, low, high in [
        (eval_ltlf, -1, 1),
        (eval_pltlf, -1, 1),
        (eval_ldlf, -1, 2),
        (eval_pldlf, -2, 1),
    ]:
        with pytest.raises(PositionOutOfRangeError):
            evaluate(tt, t, low)
        with pytest.raises(PositionOutOfRangeError):
            evaluate(tt, t, high)


def test_satisfaction_anchors():
    t = T({"p"}, set())
    assert satisfies(p, t, Logic.LTLF)  # anchored at the first position
    assert not satisfies(p, t, Logic.PLTLF)  # anchored at the last
    assert satisfies(Once(p), t, Logic.PLTLF)
    assert satisfies(parse_ldlf("<p>tt"), t, Logic.LDLF)
    assert satisfies(parse_pldlf("<<true ; p>>tt"), t, Logic.PLDLF)


# ------------------------------------------- expansion-law cross-check


def unfold_ltlf(f, t, i):
    """Independent evaluator: one-step expansion laws instead of quantifiers."""
    n = len(t)
    last = i == n - 1

    def nxt(g):
        return not last and unfold_ltlf(g, t, i + 1)

    def wnxt(g):
        return last or unfold_ltlf(g, t, i + 1)

    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return eval_prop(f, t[i])
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, Last):
        return last
    if isinstance(f, End):
        return False
    if isinstance(f, Not):
        return not unfold_ltlf(f.arg, t, i)
    if isinstance(f, And):
        return unfold_ltlf(f.left, t, i) and unfold_ltlf(f.right, t, i)
    if isinstance(f, Or):
        return unfold_ltlf(f.left, t, i) or unfold_ltlf(f.right, t, i)
    if isinstance(f, Implies):
        return not unfold_ltlf(f.left, t, i) or unfold_ltlf(f.right, t, i)
    if isinstance(f, Equiv):
        return unfold_ltlf(f.left, t, i) == unfold_ltlf(f.right, t, i)
    if isinstance(f, Xor):
        return unfold_ltlf(f.left, t, i) != unfold_ltlf(f.right, t, i)
    if isinstance(f, WeakNext):
        return wnxt(f.arg)
    if isinstance(f, StrongNext):
        return nxt(f.arg)
    if isinstance(f, Until):
        return unfold_ltlf(f.right, t, i) or (
            unfold_ltlf(f.left, t, i) and nxt(f)
        )
    if isinstance(f, WeakUntil):
        return unfold_ltlf(f.right, t, i) or (
            unfold_ltlf(f.left, t, i) and wnxt(f)
        )
    if isinstance(f, Release):
        return unfold_ltlf(f.right, t, i) and (
            unfold_ltlf(f.left, t, i) or wnxt(f)
        )
    if isinstance(f, StrongRelease):
        return unfold_ltlf(f.right, t, i) and (
            unfold_ltlf(f.left, t, i) or nxt(f)
        )
    if isinstance(f, Eventually):
        return unfold_ltlf(f.arg, t, i) or nxt(f)
    if isinstance(f, Always):
        return unfold_ltlf(f.arg, t, i) and wnxt(f)
    raise TypeError(f)


def unfold_pltlf(f, t, i):
    first = i == 0

    def yst(g):
        return not first and unfold_pltlf(g, t, i - 1)

    def wyst(g):
        return first or unfold_pltlf(g, t, i - 1)

    if isinstance(f, (Atom, TrueConst, FalseConst)):
        return eval_prop(f, t[i])
    if isinstance(f, Tautology):
        return True
    if isinstance(f, Contradiction):
        return False
    if isinstance(f, First):
        return first
    if isinstance(f, Start):
        return False
    if isinstance(f, Not):
        return not unfold_pltlf(f.arg, t, i)
    if isinstance(f, And):
        return unfold_pltlf(f.left, t, i) and unfold_pltlf(f.right, t, i)
    if isinstance(f, Or):
        return unfold_pltlf(f.left, t, i) or unfold_pltlf(f.right, t, i)
    if isinstance(f, Implies):
        return not unfold_pltlf(f.left, t, i) or unfold_pltlf(f.right, t, i)
    if isinstance(f, Equiv):
        return unfold_pltlf(f.left, t, i) == unfold_pltlf(f.right, t, i)
    if isinstance(f, Xor):
        return unfold_pltlf(f.left, t, i) != unfold_pltlf(f.right, t, i)
    if isinstance(f, Before):
        return yst(f.arg)
    if isinstance(f, Since):
        return unfold_pltlf(f.right, t, i) or (
            unfold_pltlf(f.left, t, i) and yst(f)
        )
    if isinstance(f, Once):
        return unfold_pltlf(f.arg, t, i) or yst(f)
    if isinstance(f, Historically):
        return unfold_pltlf(f.arg, t, i) and wyst(f)
    raise TypeError(f)


def test_ltlf_agrees_with_the_expansion_laws(traces_to_three):
    rng = random.Random(1311)
    formulas = [gen_formula(rng, Logic.LTLF, ("p", "q"), depth=3) for _ in range(60)]
    for trace in traces_to_three:
        if len(trace) == 0:
            continue
        for f in formulas:
            for i in range(len(trace)):
                assert eval_ltlf(f, trace, i) == unfold_ltlf(f, trace, i), (f, trace, i)


def test_pltlf_agrees_with_the_expansion_laws(traces_to_three):
    rng = random.Random(2322)
    formulas = [gen_formula(rng, Logic.PLTLF, ("p", "q"), depth=3) for _ in range(60)]
    for trace in traces_to_three:
        if len(trace) == 0:
            continue
        for f in formulas:
            for i in range(len(trace)):
                assert eval_pltlf(f, trace, i) == unfold_pltlf(f, trace, i), (f, trace, i)


def test_ldlf_star_satisfies_its_unfolding(traces_to_three):
    # <r*>f against f | <r><r*>f, with the two sides decomposed differently
    from formula_gen import gen_regex

    rng = random.Random(3333)
    for trace in traces_to_three:
        for _ in range(10):
            r = gen_regex(rng, ("p", "q"), depth=2, backward=False)
            f = gen_formula(rng, Logic.LDLF, ("p", "q"), depth=2)
            star = Diamond(RegexStar(r), f)
            unfolded = Or(f, Diamond(r, Diamond(RegexStar(r), f)))
            for i in range(len(trace) + 1):
                assert eval_ldlf(star, trace, i) == eval_ldlf(unfolded, trace, i)


def test_pldlf_star_satisfies_its_unfolding(traces_to_three):
    from formula_gen import gen_regex

    rng = random.Random(4444)
    for trace in traces_to_three:
        for _ in range(10):
            r = gen_regex(rng, ("p", "q"), depth=2, backward=True)
            f = gen_formula(rng, Logic.PLDLF, ("p", "q"), depth=2)
            star = BackDiamond(RegexStar(r), f)
            unfolded = Or(f, BackDiamond(r, BackDiamond(RegexStar(r), f)))
            for i in range(-1, len(trace)):
                assert eval_pldlf(star, trace, i) == eval_pldlf(unfolded, trace, i)
