"""A kept refusal holds only what it reports.

``parse`` and ``tokenize`` raise a ``SourceError`` from their own frame,
with the traceback of the work that found it cut, so an error kept by a
caller (a linter, an editor, a fuzzer, the benchmark) holds its kind,
message, position and lexeme, not the scan of the text or the parser's
frames.  Every other exception keeps its whole traceback.  A node
constructor refuses a node class given where a node belongs.
"""

from __future__ import annotations

import gc
import os
import re
import tracemalloc
import weakref

import pytest

import tracelang
from tracelang import (
    And,
    Atom,
    Diamond,
    FalseConst,
    LexError,
    LexErrorKind,
    Logic,
    Node,
    Not,
    ParseError,
    ParseErrorKind,
    RegexProp,
    RegexStar,
    SourceError,
    Tautology,
    TrueConst,
    Until,
    parse,
    tokenize,
)
from tracelang import parser as parser_module

PACKAGE = os.path.dirname(tracelang.__file__)
KEPT_LIMIT = 64 * 1024  # bytes; the parser's frames over 10^5 parentheses hold 4.7 MB

PARENS = "parentheses nest deeper than 150 levels"
NESTS = "the formula nests deeper than 150 levels"
DEEP = ParseError, ParseErrorKind.NESTING_TOO_DEEP
LEXICAL = LexError, LexErrorKind.ILLEGAL_CHARACTER, "illegal character '$'", 1, 20001, "$"

# (call, text, logic, (class, kind, message, line, column, lexeme))
CASES = {
    "parse: 10^5 nested parentheses": (
        parse, "(" * 10**5 + "a" + ")" * 10**5, Logic.LTLF, (*DEEP, PARENS, 1, 151, "(")),
    "parse: lexical error after 10^4 tokens": (parse, "a & " * 5000 + "$", Logic.LTLF, LEXICAL),
    "tokenize: lexical error after 10^4 tokens": (
        tokenize, "a & " * 5000 + "$", Logic.LTLF, LEXICAL),
}
# The benchmark's deep inputs: a unit inside 3000 parentheses, and a chain of
# 2000 units joined by '->'; the LDLf chain is also the 2000-link chain of
# '<a>tt' that the parser refuses 150 levels in.
UNITS = {Logic.LTLF: "a", Logic.PLTLF: "a", Logic.LDLF: "< a > tt", Logic.PLDLF: "<< a >> tt"}
CHAIN_COLUMNS = {Logic.LTLF: 748, Logic.PLTLF: 748, Logic.LDLF: 1774, Logic.PLDLF: 2070}
for logic, unit in UNITS.items():
    CASES[f"parse: {logic} unit in 3000 parentheses"] = (
        parse, "(" * 3000 + unit.replace(" ", "") + ")" * 3000, logic, (*DEEP, PARENS, 1, 151, "("))
    CASES[f"parse: {logic} chain of 2000 units"] = (
        parse, " -> ".join([unit] * 2000), logic, (*DEEP, NESTS, 1, CHAIN_COLUMNS[logic], "->"))


@pytest.fixture
def parsers(monkeypatch):
    """Weak references to every ``_Parser`` that ``parse`` makes."""
    made = []

    class Watched(parser_module._Parser):
        def __init__(self, text, logic):
            made.append(weakref.ref(self))
            super().__init__(text, logic)

    monkeypatch.setattr(parser_module, "_Parser", Watched)
    return made


@pytest.fixture
def traced():
    """Trace allocations for the test, and stop if it was not traced before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    yield
    if not was_tracing:
        tracemalloc.stop()


def package_frames(error: BaseException) -> list[str]:
    """The names of the traceback's frames whose code lies in the package."""
    names, tb = [], error.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.startswith(PACKAGE + os.sep):
            names.append(code.co_name)
        tb = tb.tb_next
    return names


def keep(call, text, logic) -> tuple[SourceError, int]:
    """The error ``call`` raises, and the bytes that stay allocated while it is kept."""
    kept = None
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    try:
        call(text, logic)
    except SourceError as error:
        kept = error
    gc.collect()
    return kept, tracemalloc.get_traced_memory()[0] - before


@pytest.mark.parametrize("name", list(CASES))
def test_a_kept_refusal_holds_only_what_it_reports(name, parsers, traced):
    call, text, logic, expected = CASES[name]
    tokenize("a", logic)  # the logic's scanner is built on first use, not by the refusal
    error, held = keep(call, text, logic)
    cls, kind, message, line, column, lexeme = expected
    assert type(error) is cls
    assert (error.kind, error.message, error.line, error.column) == (kind, message, line, column)
    assert str(error) == f"{line}:{column}: {message}"
    assert (error.offending if cls is LexError else error.found) == lexeme
    assert error.__cause__ is None and error.__context__ is None
    assert held < KEPT_LIMIT, f"a kept error holds {held} bytes"
    assert package_frames(error) == [call.__name__]
    assert len(parsers) == (call is parse)
    assert all(ref() is None for ref in parsers)


def test_a_bug_inside_the_parser_keeps_its_frames(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken constructor")

    monkeypatch.setattr(parser_module, "Atom", broken)
    with pytest.raises(TypeError, match="^broken constructor$") as caught:
        parse("!(a & b)", Logic.LTLF)
    frames = package_frames(caught.value)
    assert frames[:2] == ["parse", "_parse"]
    assert {"climb", "formula_unit"} <= set(frames)


@pytest.mark.parametrize("call", [parse, tokenize], ids=["parse", "tokenize"])
def test_a_bad_logic_keeps_its_frames(call):
    with pytest.raises(ValueError, match="^unknown logic: 'ltlf'$") as caught:
        call("a", "ltlf")
    assert "_scanner" in package_frames(caught.value)


# ---------------------------------------------------------- node classes

@pytest.mark.parametrize("make, stranger", [
    (lambda: Not(TrueConst), TrueConst),
    (lambda: And(Atom("a"), FalseConst), FalseConst),
    (lambda: Until(Not, Atom("b")), Not),
    (lambda: Diamond(RegexProp, Tautology()), RegexProp),
    (lambda: RegexProp(Atom), Atom),
    (lambda: RegexStar(Node), Node),
], ids=["Not", "And right", "Until left", "Diamond regex", "RegexProp", "RegexStar"])
def test_a_node_class_given_for_a_node_is_refused(make, stranger):
    with pytest.raises(TypeError, match=f"^not a syntax-tree node: {re.escape(repr(stranger))}$"):
        make()
