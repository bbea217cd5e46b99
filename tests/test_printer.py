"""Rendering: canonical spellings, minimal parentheses, quoting, round trips."""

from __future__ import annotations

import random

import pytest

from tracelang import (
    Always,
    And,
    Atom,
    Box,
    Contradiction,
    Diamond,
    Eventually,
    Implies,
    Logic,
    Not,
    Or,
    RegexConcat,
    RegexProp,
    RegexStar,
    RegexTest,
    RegexUnion,
    Style,
    Tautology,
    Until,
    UnprintableAtomError,
    WeakUntil,
    Xor,
    format_formula,
    parse,
    parse_ldlf,
    parse_ltlf,
)
from formula_gen import DEFAULT_ATOMS, gen_formula

a, b, c = Atom("a"), Atom("b"), Atom("c")
tt = Tautology()


def canon(node):
    return format_formula(node)


def full(node):
    return format_formula(node, Style.FULL_PARENS)


# ----------------------------------------------------------------- canonical


def test_canonical_examples():
    assert canon(Until(Eventually(a), b)) == "Fa U b"
    assert canon(Eventually(Until(a, b))) == "F(a U b)"
    assert canon(Eventually(Always(a))) == "FGa"
    assert canon(Not(Until(a, b))) == "!(a U b)"
    assert canon(Eventually(Not(a))) == "F!a"
    assert canon(Or(And(a, b), c)) == "a & b | c"
    assert canon(And(a, Or(b, c))) == "a & (b | c)"
    assert canon(Implies(a, Implies(b, c))) == "a -> b -> c"
    assert canon(Implies(Implies(a, b), c)) == "(a -> b) -> c"
    assert canon(Until(a, Until(b, c))) == "a U b U c"
    assert canon(Until(Until(a, b), c)) == "(a U b) U c"
    assert canon(Until(a, WeakUntil(b, c))) == "a U b W c"
    assert canon(WeakUntil(Until(a, b), c)) == "(a U b) W c"
    assert canon(Xor(Xor(a, b), c)) == "a ^ b ^ c"
    assert canon(Xor(a, Xor(b, c))) == "a ^ (b ^ c)"


def test_canonical_regex_examples():
    assert canon(Diamond(RegexProp(a), tt)) == "<a>tt"
    assert canon(Diamond(RegexConcat(RegexUnion(RegexProp(a), RegexProp(b)),
                                     RegexProp(c)), tt)) == "<a + b ; c>tt"
    assert canon(Diamond(RegexUnion(RegexConcat(RegexProp(a), RegexProp(b)),
                                    RegexProp(c)), tt)) == "<(a ; b) + c>tt"
    assert canon(Diamond(RegexStar(RegexProp(a)), tt)) == "<a*>tt"
    assert canon(Diamond(RegexStar(RegexUnion(RegexProp(a), RegexProp(b))),
                         tt)) == "<(a + b)*>tt"
    assert canon(Diamond(RegexStar(RegexStar(RegexProp(a))), tt)) == "<a**>tt"
    assert canon(Diamond(RegexStar(RegexProp(And(a, b))), tt)) == "<a & b*>tt"
    assert canon(Diamond(RegexTest(tt), tt)) == "<tt?>tt"
    assert canon(Diamond(RegexStar(RegexTest(tt)), tt)) == "<tt?*>tt"
    assert canon(Box(RegexProp(Not(a)), Contradiction())) == "[!a]ff"
    assert canon(parse_ldlf("<(<a>tt)?>tt")) == "<<a>tt?>tt"


def test_modal_arguments():
    assert canon(Diamond(RegexProp(a), And(tt, Contradiction()))) == "<a>(tt & ff)"
    assert canon(Box(RegexProp(a), Diamond(RegexProp(b), tt))) == "[a]<b>tt"
    assert canon(Not(Diamond(RegexProp(a), tt))) == "!<a>tt"


def test_alias_spellings_collapse():
    pairs = [
        ("a && b", "a & b"),
        ("a || b", "a | b"),
        ("~a", "!a"),
        ("a => b", "a -> b"),
        ("a <=> b", "a <-> b"),
        ("a V b", "a R b"),
    ]
    for text, expected in pairs:
        assert canon(parse_ltlf(text)) == expected


def test_whitespace_is_normalised():
    assert canon(parse_ltlf("  a   U\n\tb ")) == "a U b"
    assert canon(parse(" << a ; b >> tt ", Logic.PLDLF)) == "<<a ; b>>tt"


# --------------------------------------------------------------- full parens


def test_full_parens_examples():
    assert full(Until(Eventually(a), b)) == "((Fa) U b)"
    assert full(a) == "a"
    assert full(tt) == "tt"
    assert full(Not(a)) == "(!a)"
    assert full(Or(And(a, b), c)) == "((a & b) | c)"
    assert full(Diamond(RegexProp(a), tt)) == "(<a>tt)"
    assert full(Diamond(RegexProp(And(a, b)), tt)) == "(<(a & b)>tt)"
    assert full(Diamond(RegexStar(RegexUnion(RegexProp(a), RegexProp(b))),
                        tt)) == "(<((a + b)*)>tt)"
    assert full(Diamond(RegexTest(tt), tt)) == "(<(tt?)>tt)"


@pytest.mark.parametrize("style", list(Style))
def test_each_node_prints_only_in_its_own_layer(style):
    # a regex node where a formula belongs, and a formula node in a regex slot
    with pytest.raises(TypeError, match="^not a formula node: "):
        format_formula(RegexStar(RegexProp(a)), style)
    with pytest.raises(TypeError, match="^not a regular-expression node: "):
        format_formula(Diamond(a, tt), style)
    with pytest.raises(TypeError, match="^not a formula node: "):
        format_formula(Box(RegexTest(RegexProp(a)), tt), style)


# ------------------------------------------------------------------- quoting


def test_atom_quoting():
    assert canon(Atom("a")) == "a"
    assert canon(Atom("_x9")) == "_x9"
    assert canon(Atom("p", quoted=True)) == "p"
    assert canon(Atom("Hello World")) == '"Hello World"'
    assert canon(Atom("U")) == '"U"'
    assert canon(Atom("true")) == '"true"'
    assert canon(Atom("A")) == '"A"'
    assert canon(Atom("a-b")) == '"a-b"'
    assert canon(Atom("")) == '""'
    assert canon(Atom('say "hi"')) == "'say \"hi\"'"
    assert canon(Atom("it's")) == "\"it's\""


def test_unprintable_atoms():
    for name in ['both "\' quotes', "tab\tname", "line\nname", "café"]:
        with pytest.raises(UnprintableAtomError):
            canon(Atom(name))


@pytest.mark.parametrize("name", ["Hello World", "U", "true", "it's", ""])
def test_quoted_names_round_trip(name):
    assert parse_ltlf(canon(Atom(name))) == Atom(name)


# ----------------------------------------------------------------- round trip


@pytest.mark.parametrize("logic", list(Logic))
def test_generated_formulas_round_trip(logic):
    rng = random.Random(hash(logic.value) & 0xFFFF)
    for _ in range(150):
        node = gen_formula(rng, logic, DEFAULT_ATOMS, depth=5)
        assert parse(canon(node), logic) == node
        assert parse(full(node), logic) == node


@pytest.mark.parametrize("logic", list(Logic))
def test_canonical_output_is_a_fixpoint(logic):
    rng = random.Random(99)
    for _ in range(60):
        node = gen_formula(rng, logic, DEFAULT_ATOMS, depth=4)
        text = canon(node)
        assert canon(parse(text, logic)) == text


def matched_pairs(text):
    stack, pairs, quote = [], [], None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "(":
            stack.append(i)
        elif ch == ")":
            pairs.append((stack.pop(), i))
    assert not stack
    return pairs


@pytest.mark.parametrize("logic", list(Logic))
def test_every_canonical_parenthesis_is_necessary(logic):
    # deleting any matched pair must either break the parse or change the tree
    rng = random.Random(4242)
    for _ in range(80):
        node = gen_formula(rng, logic, ("p", "q", "r"), depth=5)
        text = canon(node)
        for open_i, close_i in matched_pairs(text):
            stripped = "".join(
                ch for i, ch in enumerate(text) if i not in (open_i, close_i)
            )
            try:
                reparsed = parse(stripped, logic)
            except Exception:
                continue
            assert reparsed != node, (text, stripped)
