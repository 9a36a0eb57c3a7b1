"""Lexer tests: hyphenated identifiers, comments, strings, ranges, and
the plan cache's literal skeleton agreeing with the lexer."""

import re
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro import Database
from repro.dml import parse_dml
from repro.errors import DDLSyntaxError, DMLSyntaxError
from repro.lexer import (DECIMAL, EOF, IDENT, NUMBER, STRING, SYMBOL,
                         literal_sites, skeleton, tokenize)


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


class TestIdentifiers:
    def test_hyphenated_identifier_is_one_token(self):
        assert kinds("soc-sec-no") == [(IDENT, "soc-sec-no")]

    def test_hyphen_before_digit_is_minus(self):
        assert kinds("x-1") == [(IDENT, "x"), (SYMBOL, "-"), (NUMBER, "1")]

    def test_spaced_minus_is_operator(self):
        assert kinds("salary - bonus") == [
            (IDENT, "salary"), (SYMBOL, "-"), (IDENT, "bonus")]

    def test_adjacent_letters_absorb_hyphen(self):
        # Documented consequence of the rule: unspaced letter-minus-letter
        # is a single identifier.
        assert kinds("salary-bonus") == [(IDENT, "salary-bonus")]

    def test_underscores_allowed(self):
        assert kinds("soc_sec_no") == [(IDENT, "soc_sec_no")]

    def test_trailing_hyphen_not_absorbed(self):
        assert kinds("abc- ") == [(IDENT, "abc"), (SYMBOL, "-")]


class TestNumbers:
    def test_integer(self):
        assert kinds("456887766") == [(NUMBER, "456887766")]

    def test_decimal(self):
        assert kinds("1.1") == [(DECIMAL, "1.1")]

    def test_range_operator_not_decimal(self):
        assert kinds("1001..39999") == [
            (NUMBER, "1001"), (SYMBOL, ".."), (NUMBER, "39999")]

    def test_dangling_point_rejected(self):
        with pytest.raises(DMLSyntaxError):
            tokenize("5.")

    def test_a_decimal_digit_of_any_script_is_a_digit(self):
        assert kinds("\u0663") == [(NUMBER, "\u0663")]      # Arabic-Indic 3
        assert int(tokenize("\u0663")[0].value) == 3

    def test_a_superscript_digit_is_an_unexpected_character(self):
        # isdigit() but not isdecimal(): int() cannot read it.
        with pytest.raises(DMLSyntaxError,
                           match="unexpected character.*line 1, column 44"):
            Database("Class course ( title: string[9]; credits: integer );"
                     ).query("From course Retrieve title Where credits = \u00b2")
        with pytest.raises(DDLSyntaxError, match="unexpected character"):
            Database("Class course ( credits: integer (1..\u00b2) );")


class TestStrings:
    def test_simple(self):
        assert kinds('"Algebra I"') == [(STRING, "Algebra I")]

    def test_doubled_quote_escape(self):
        assert kinds('"say ""hi"""') == [(STRING, 'say "hi"')]

    def test_unterminated(self):
        with pytest.raises(DMLSyntaxError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(DMLSyntaxError):
            tokenize('"line\nbreak"')


class TestCommentsAndSymbols:
    def test_paper_style_comment(self):
        assert kinds("a (* the schema diagram *) b") == [
            (IDENT, "a"), (IDENT, "b")]

    def test_unterminated_comment(self):
        with pytest.raises(DMLSyntaxError):
            tokenize("(* oops")

    def test_comment_tracks_line_numbers(self):
        tokens = tokenize("(* one\ntwo *)\nx")
        assert tokens[0].line == 3

    def test_assignment_symbol(self):
        assert kinds("a := 1") == [
            (IDENT, "a"), (SYMBOL, ":="), (NUMBER, "1")]

    def test_comparison_symbols(self):
        assert [k for k, _ in kinds("<= >= != <>")] == [SYMBOL] * 4

    def test_unexpected_character(self):
        with pytest.raises(DMLSyntaxError):
            tokenize("a @ b")

    def test_positions(self):
        tokens = tokenize("ab\n cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 2)

    def test_eof_token(self):
        assert tokenize("")[-1].kind == EOF


@given(st.lists(st.sampled_from(
    ["name", "of", "student", "advisor", ":=", "(", ")", ",", "123",
     '"text"', "<=", "and", "1.5", "TRUE", "false", '""', "\u0663", "x-1",
     "load2", "fal\u017fe", "x5-true"]), min_size=0, max_size=30),
    st.sampled_from([" ", '""']))
def test_lexing_never_crashes_on_token_soup(parts, joint):
    text = joint.join(parts)
    tokens = tokenize(text)
    assert tokens[-1].kind == EOF
    if joint == " ":
        # Every non-EOF token covers some of the input.
        assert len(tokens) - 1 <= len(parts) + parts.count("x-1") * 2
    # Whatever lexes, the skeleton reads the same literals: a soup that
    # parses is never ``uncacheable``.
    assert literal_sites(tokens, text, *skeleton(text)[1:]) is not None


# ------------------------------------------------- the plan cache's skeleton

EDGE_SCHEMA = """Class item (
  name: string[20];
  load2: integer;
  employee-nbr: integer;
  x: integer (1..100);
  flag: boolean;
  x-true: boolean;
  true-x: boolean;
  gr\u00f6\u00dfe: integer );"""

#: spellings where the skeleton's regex and the lexer could part ways,
#: with what the plan cache must make of each: ``hit`` (the second
#: compile binds the lexer's values), ``uncacheable`` (they disagree;
#: both read one set of rules, so no spelling here does) or
#: ``raises`` (every time, as the uncached statement does)
EDGE_SPELLINGS = [
    ('From item (* 5 "x *) Retrieve name Where x = 3', "hit"),
    ("From item Retrieve name Where x-1 = 2", "hit"),
    ("From item Retrieve name Where employee-nbr = 7 and load2 = 4", "hit"),
    ("From item Retrieve name Where flag = -true", "raises"),
    ("From item Retrieve name Where flag = false", "hit"),
    # ``\u017f`` (long s) is ``s`` under Unicode case folding, and a
    # letter to the lexer: an unknown attribute, not ``false``
    ("From item Retrieve name Where flag = fal\u017fe", "raises"),
    ("From item Retrieve name Where x-true = true", "hit"),
    ("From item Retrieve name Where true-x = false", "hit"),
    ("From item Retrieve name Where x = 1..5", "raises"),
    ('From item Retrieve name Where name = "a""b"', "hit"),
    ("From item Retrieve name\n  Where x = 999", "hit"),
    ("From item Retrieve name Where gr\u00f6\u00dfe = 5", "hit"),
    ("From item Retrieve name Where x = \u0663", "hit"),
]

_LEXED = {NUMBER: int, DECIMAL: Decimal, STRING: str}


def lexed_literals(text):
    """The literal values the lexer reads in ``text``, in order."""
    values = []
    for token in tokenize(text):
        if token.kind in _LEXED:
            values.append(_LEXED[token.kind](token.value))
        elif token.kind == IDENT and token.value.lower() in ("true", "false"):
            values.append(token.value.lower() == "true")
    return values


@pytest.fixture(scope="module")
def edge_db():
    db = Database(EDGE_SCHEMA)
    db.execute('Insert item(name := "a""b", load2 := 4, employee-nbr := 7,'
               " x := 3, flag := true, x-true := true, true-x := false,"
               " gr\u00f6\u00dfe := 5)")
    return db


@pytest.mark.parametrize("text, served_as", EDGE_SPELLINGS)
def test_an_edge_spelling_hits_with_the_lexers_values_or_is_uncacheable(
        edge_db, text, served_as):
    """Never a wrong value: a hit binds what the lexer reads, with the
    rows, diagnostics and spans of the statement compiled uncached."""
    db = edge_db
    db.plan_cache.clear()
    try:
        uncached = db.compile(parse_dml(text))
    except Exception as exc:
        assert served_as == "raises", exc
        # every hit spelling's entry is cached, so a raising text that
        # shared a key with one (``falſe`` and ``false``) would hit it
        for other, other_served_as in EDGE_SPELLINGS:
            if other_served_as == "hit":
                db.compile(other)
        for _ in range(2):      # the fill attempt, then a lookup
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                db.compile(text)
        return
    fill, served = db.compile(text), db.compile(text)
    values = lexed_literals(text)
    if served_as == "uncacheable":
        assert (fill.cache, served.cache) == ("uncacheable",) * 2
        assert skeleton(text)[1] != values
    else:
        assert (served_as, fill.cache, served.cache) == ("hit", "miss", "hit")
        assert served.params[:len(values)] == values
        assert [type(value) for value in served.params[:len(values)]] \
            == [type(value) for value in values]
    assert [(d.code, d.span) for d in served.diagnostics] \
        == [(d.code, d.span) for d in uncached.diagnostics]
    assert db.query(text).rows == db.execute(parse_dml(text)).rows
