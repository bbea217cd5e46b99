"""Tokeniser behaviour: munching, activation, positions, and rejection."""

from __future__ import annotations

import pytest

from tracelang import (
    KEYWORDS,
    LexError,
    LexErrorKind,
    Logic,
    Token,
    TokenKind,
    tokenize,
)
from tracelang.lexer import ACTIVE_KINDS

K = TokenKind
ALL_LOGICS = list(Logic)


def kinds(text, logic):
    return [token.kind for token in tokenize(text, logic)]


def lexemes(text, logic):
    return [token.lexeme for token in tokenize(text, logic)]


# ------------------------------------------------------------ basic scanning


def test_uppercase_operators_lex_one_letter_at_a_time():
    tokens = tokenize("FGa", Logic.LTLF)
    assert [(t.kind, t.lexeme, t.line, t.column) for t in tokens] == [
        (K.EVENTUALLY, "F", 1, 1),
        (K.ALWAYS, "G", 1, 2),
        (K.ATOM, "a", 1, 3),
    ]


def test_empty_input_lexes_to_no_tokens():
    for logic in ALL_LOGICS:
        assert tokenize("", logic) == []
        assert tokenize(" \t\r\n ", logic) == []


def test_strong_next_is_one_token():
    tokens = tokenize("X[!]p", Logic.LTLF)
    assert [(t.kind, t.lexeme, t.column) for t in tokens] == [
        (K.STRONG_NEXT, "X[!]", 1),
        (K.ATOM, "p", 5),
    ]


def test_quoted_atom_keeps_its_quotes_in_the_lexeme():
    tokens = tokenize('"Hello World"', Logic.LTLF)
    assert len(tokens) == 1
    assert tokens[0].kind is K.ATOM
    assert tokens[0].lexeme == '"Hello World"'


def test_equivalence_arrow_wins_over_single_diamond_under_ldlf():
    tokens = tokenize("a <-> b", Logic.LDLF)
    assert [t.kind for t in tokens] == [K.ATOM, K.EQUIV, K.ATOM]
    assert tokens[1].lexeme == "<->"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a&&b", [K.ATOM, K.AND, K.ATOM]),
        ("a&b", [K.ATOM, K.AND, K.ATOM]),
        ("a||b", [K.ATOM, K.OR, K.ATOM]),
        ("a|b", [K.ATOM, K.OR, K.ATOM]),
        ("a=>b", [K.ATOM, K.IMPL, K.ATOM]),
        ("a->b", [K.ATOM, K.IMPL, K.ATOM]),
        ("a<=>b", [K.ATOM, K.EQUIV, K.ATOM]),
        ("~a", [K.NOT, K.ATOM]),
        ("!a", [K.NOT, K.ATOM]),
        ("a^b", [K.ATOM, K.XOR, K.ATOM]),
    ],
)
def test_connective_alias_spellings(text, expected):
    for logic in ALL_LOGICS:
        assert kinds(text, logic) == expected


def test_name_munch_is_maximal():
    assert kinds("lasting", Logic.LTLF) == [K.ATOM]
    assert kinds("truex tt ttt", Logic.LTLF) == [K.ATOM, K.TT, K.ATOM]
    assert lexemes("last", Logic.LTLF) == ["last"]
    assert kinds("last", Logic.LTLF) == [K.LAST]


def test_uppercase_letter_splits_a_word():
    # "Foo" is the eventually operator applied to the atom "oo"
    assert kinds("Foo", Logic.LTLF) == [K.EVENTUALLY, K.ATOM]
    assert lexemes("Foo", Logic.LTLF) == ["F", "oo"]
    # a lowercase run stops before an uppercase letter
    assert kinds("fOf", Logic.PLTLF) == [K.ATOM, K.ONCE, K.ATOM]


def test_double_diamond_depends_on_the_logic():
    assert kinds("<<", Logic.LDLF) == [K.LDIAM, K.LDIAM]
    assert kinds("<<", Logic.PLDLF) == [K.LBDIAM]
    assert kinds(">> ]]", Logic.PLDLF) == [K.RBDIAM, K.RBBOX]
    assert kinds("[[", Logic.PLDLF) == [K.LBBOX]


def test_release_spellings_share_a_kind():
    assert kinds("a R b", Logic.LTLF) == kinds("a V b", Logic.LTLF)


# ------------------------------------------------------------------ keywords


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_keywords_never_lex_to_atoms_unquoted(keyword, logic):
    try:
        tokens = tokenize(keyword, logic)
    except LexError as error:
        assert error.kind is LexErrorKind.UNKNOWN_OPERATOR
        assert "keyword" in error.message
        return
    assert all(t.kind is not K.ATOM for t in tokens)


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_quoted_keywords_are_atoms(keyword, logic):
    tokens = tokenize(f'"{keyword}"', logic)
    assert [t.kind for t in tokens] == [K.ATOM]
    assert tokens[0].lexeme == f'"{keyword}"'


def test_each_keyword_is_an_operator_or_constant_somewhere():
    for keyword in KEYWORDS:
        lexed = set()
        for logic in ALL_LOGICS:
            try:
                lexed.update(t.kind for t in tokenize(keyword, logic))
            except LexError:
                continue
        assert lexed and K.ATOM not in lexed


# ---------------------------------------------------------- profile isolation


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_emitted_kinds_are_active_in_the_profile(logic):
    samples = [
        "a & b | !c -> d <-> e ^ f",
        "(true | false) & tt & ff",
        '"quoted one" & _x9',
    ]
    per_logic = {
        Logic.LTLF: ["a U b W c R d M e", "F G X a", "X[!]a", "last & end"],
        Logic.PLTLF: ["a S b", "O H Y a", "first & start"],
        Logic.LDLF: ["<a ; b* + c?>tt", "[a]ff", "<tt?>tt"],
        Logic.PLDLF: ["<<a ; b*>>tt", "[[a]]ff"],
    }
    for text in samples + per_logic[logic]:
        for token in tokenize(text, logic):
            assert token.kind in ACTIVE_KINDS[logic], (text, token)


def test_inactive_operators_are_rejected():
    cases = [
        ("last", Logic.PLTLF),
        ("first", Logic.LTLF),
        ("end", Logic.LDLF),
        ("start", Logic.LDLF),
        ("Y a", Logic.LTLF),
        ("a U b", Logic.PLTLF),
        ("F a", Logic.LDLF),
        ("X a", Logic.PLDLF),
        ("<a>tt", Logic.LTLF),
        ("a ; b", Logic.LTLF),
        ("a?", Logic.PLTLF),
        ("<<a>>tt", Logic.LTLF),
    ]
    for text, logic in cases:
        with pytest.raises(LexError) as info:
            tokenize(text, logic)
        assert info.value.kind is LexErrorKind.UNKNOWN_OPERATOR


def test_single_diamond_is_rejected_under_pldlf():
    with pytest.raises(LexError) as info:
        tokenize("<a>tt", Logic.PLDLF)
    assert info.value.kind is LexErrorKind.UNKNOWN_OPERATOR
    assert info.value.offending == "<"


# ------------------------------------------------------------------- errors


def test_illegal_characters():
    for text, line, column in [("é", 1, 1), ("Z", 1, 1), ("a@b", 1, 2), ("0", 1, 1)]:
        with pytest.raises(LexError) as info:
            tokenize(text, Logic.LTLF)
        assert info.value.kind is LexErrorKind.ILLEGAL_CHARACTER
        assert (info.value.line, info.value.column) == (line, column)


def test_malformed_strong_next_points_at_the_bracket():
    for text in ["X[?]a", "X[", "X[!", "X[]"]:
        with pytest.raises(LexError) as info:
            tokenize(text, Logic.LTLF)
        assert info.value.kind is LexErrorKind.MALFORMED_STRONG_NEXT
        assert (info.value.line, info.value.column) == (1, 2)


def test_strong_next_takes_no_interior_whitespace():
    # "X [!]" is a weak next followed by a bracket that LTLf does not know
    with pytest.raises(LexError) as info:
        tokenize("X [!] a", Logic.LTLF)
    assert info.value.kind is LexErrorKind.UNKNOWN_OPERATOR
    assert (info.value.line, info.value.column) == (1, 3)


def test_unterminated_quotes():
    for text in ['"abc', "'abc", '"ab\ncd"', '"ab\tcd"', '"ab\rcd"', '"']:
        with pytest.raises(LexError) as info:
            tokenize(text, Logic.LTLF)
        assert info.value.kind is LexErrorKind.UNTERMINATED_QUOTE
        assert (info.value.line, info.value.column) == (1, 1)


def test_quote_errors_after_other_tokens_keep_their_position():
    with pytest.raises(LexError) as info:
        tokenize('a & "bc', Logic.LTLF)
    assert (info.value.line, info.value.column) == (1, 5)


def test_error_rendering_includes_the_position():
    with pytest.raises(LexError) as info:
        tokenize("a\n  Z", Logic.LTLF)
    assert str(info.value).startswith("2:3: ")


# ------------------------------------------------------------------- quoting


def test_quote_styles():
    assert lexemes("''", Logic.LTLF) == ["''"]
    assert lexemes('""', Logic.LTLF) == ['""']
    assert lexemes("'it\"s'", Logic.LTLF) == ["'it\"s'"]
    assert lexemes("\"it's\"", Logic.LTLF) == ["\"it's\""]
    # the other quote character terminates nothing
    assert kinds("\"a'b\"", Logic.LTLF) == [K.ATOM]


# ------------------------------------------------- positions & reconstruction


def test_positions_across_lines():
    tokens = tokenize("a &\n  b\n| c", Logic.LTLF)
    assert [(t.lexeme, t.line, t.column) for t in tokens] == [
        ("a", 1, 1),
        ("&", 1, 3),
        ("b", 2, 3),
        ("|", 3, 1),
        ("c", 3, 3),
    ]


def offset_of(text, line, column):
    lines = text.split("\n")
    return sum(len(l) + 1 for l in lines[: line - 1]) + column - 1


@pytest.mark.parametrize(
    "text,logic",
    [
        ("a U b\n\t& X[!](c | 'd e')", Logic.LTLF),
        ("  <a ; b*>tt -> [c]ff", Logic.LDLF),
        ("first & Y (a S b)\r\n| start", Logic.PLTLF),
        ("<<a + b?>>tt ^ [[true]]ff", Logic.PLDLF),
    ],
)
def test_lexemes_sit_at_their_positions_with_whitespace_between(text, logic):
    tokens = tokenize(text, logic)
    cursor = 0
    for token in tokens:
        offset = offset_of(text, token.line, token.column)
        assert text[offset : offset + len(token.lexeme)] == token.lexeme
        assert text[cursor:offset].strip() == ""
        cursor = offset + len(token.lexeme)
    assert text[cursor:].strip() == ""


# ------------------------------------------------------------ token values


def test_tokens_keep_their_fields_repr_equality_and_hash():
    token = tokenize("  b", Logic.LTLF)[0]
    assert Token._fields == ("kind", "lexeme", "line", "column")
    assert (token.kind, token.lexeme, token.line, token.column) == (K.ATOM, "b", 1, 3)
    assert repr(token) == f"Token(kind={K.ATOM!r}, lexeme='b', line=1, column=3)"
    same, other = Token(K.ATOM, "b", 1, 3), Token(K.ATOM, "b", 1, 4)
    assert token == same and hash(token) == hash(same)
    assert token != other
    assert len({token, same, other}) == 2


def test_tokens_are_immutable():
    token = tokenize("a", Logic.LTLF)[0]
    for field in Token._fields:
        with pytest.raises(AttributeError):
            setattr(token, field, None)


def test_a_token_is_also_its_tuple():
    token = tokenize("\n G", Logic.LTLF)[0]
    kind, lexeme, line, column = token
    assert (kind, lexeme, line, column) == token == (K.ALWAYS, "G", 2, 2)
