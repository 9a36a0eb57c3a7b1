"""Shared lexer for SIM DDL and DML text.

SIM's concrete syntax (paper §4, §7) is case-insensitive and uses
hyphenated identifiers (``soc-sec-no``, ``courses-enrolled``).  The lexer
resolves the hyphen/minus ambiguity with one rule, documented in the
README: a ``-`` continues an identifier when it immediately follows an
identifier character and is immediately followed by a letter, with no
intervening whitespace.  Binary minus therefore needs surrounding
whitespace (``salary - bonus``) or a non-letter operand (``x-1`` is
``x - 1``).

Comments are ``(* ... *)`` as in the paper's §7 schema listing.

Each lexical rule is written once, as a regex fragment below.
:func:`tokenize` reads a text with all of them; the plan cache's
:func:`skeleton` reads only its literals with the same fragments, so
the two readers cannot drift apart (docs/INTERNALS.md, "Lexing").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, List, Optional, Tuple

from repro.errors import DMLSyntaxError


# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"      # integer literal
DECIMAL = "DECIMAL"    # fixed-point literal (has a '.')
STRING = "STRING"
SYMBOL = "SYMBOL"      # punctuation / operators
EOF = "EOF"

_SYMBOLS = (
    ":=", "..", "<=", ">=", "!=", "<>",
    "(", ")", "[", "]", "{", "}", ",", ";", ":",
    "=", "<", ">", "+", "-", "*", "/", ".",
)


@dataclass(frozen=True)
class Span:
    """A 1-based source position (line, column); (0, 0) means unknown.

    Spans originate here — every token carries its position — and are
    threaded through the DDL/DML parsers onto schema objects and AST
    nodes, so diagnostics (:mod:`repro.analysis`) can point back at the
    exact source location.
    """

    line: int = 0
    column: int = 0

    def __bool__(self) -> bool:
        return self.line > 0

    def offset(self, base: "Span") -> "Span":
        """This span, re-expressed in the coordinates of an enclosing
        source whose extract started at ``base`` (both 1-based)."""
        if not self or not base:
            return self
        if self.line == 1:
            return Span(base.line, base.column + self.column - 1)
        return Span(base.line + self.line - 1, self.column)

    def describe(self) -> str:
        return f"{self.line}:{self.column}" if self else "?:?"


@dataclass
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column)

    def matches(self, kind: str, value: Optional[str] = None) -> bool:
        if self.kind != kind:
            return False
        if value is None:
            return True
        if kind == IDENT:
            return self.value.lower() == value.lower()
        return self.value == value

    def is_keyword(self, *words: str) -> bool:
        """Case-insensitive identifier match (SIM has no reserved words)."""
        return self.kind == IDENT and self.value.lower() in {
            w.lower() for w in words}

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


# -- the lexical rules, each written once -----------------------------------
# ``tokenize`` reads a text with all of them (_TOKEN); the plan cache's
# ``skeleton`` reads it with the literal ones (_SKELETON).  A literal's
# rule is split at its first character, ``(head, tail)``: the skeleton
# scans for the heads as one character class and looks back at the
# head it started on.

#: a letter: ``str.isalpha`` — and the numeric characters such as
#: ``²`` that ``\w`` also holds, which :func:`tokenize` refuses
LETTER = r"[^\W\d_]"
#: any later character of an identifier...
WORD = r"\w"
#: ...and a hyphen that joins it to a word starting with a letter
JOIN = rf"-{LETTER}"
#: an identifier after its first letter
IDENT_TAIL = rf"{WORD}*(?:{JOIN}{WORD}*)*"
IDENTIFIER = LETTER + IDENT_TAIL
#: ``(* ... *)``, newlines and all
COMMENT = (r"\(", r"\*.*?\*\)")
DIGIT = r"\d"
NUMBER_RULE = (DIGIT, r"\d*")
#: one point with a digit after it: ``..`` is the range symbol
DECIMAL_RULE = (DIGIT, r"\d*\.\d+")
#: on one line; a doubled quote is a quote...
STRING_BODY = r'(?:[^"\n]|"")*'
#: ...so a string ends on a quote that does not open a doubled one
STRING_RULE = ('"', STRING_BODY + '"(?!")')
#: ``true`` and ``false`` in any case, literals to the parser.  Spelled
#: out rather than ``(?i)``: Unicode case folding would take ``ſ``
#: (long s) for ``s``, and ``falſe`` is an identifier to the lexer
TRUE_FALSE = ("[tTfF]", "(?<=[tT])[rR][uU][eE]|(?<=[fF])[aA][lL][sS][eE]")
#: longest first, so ``:=`` is not read as ``:`` ``=``
SYMBOL_RULE = "|".join(map(re.escape, _SYMBOLS))

_TOKEN = re.compile("|".join((
    r"(?P<space>[ \t\r\n]+)",
    rf"(?P<{IDENT}>{IDENTIFIER})",
    rf"(?P<comment>{''.join(COMMENT)})",
    rf"(?P<open_comment>{COMMENT[0]}\*)",
    rf"(?P<{DECIMAL}>{''.join(DECIMAL_RULE)})",
    rf"{''.join(NUMBER_RULE)}(?P<point>\.)(?!\.)",
    rf"(?P<{NUMBER}>{''.join(NUMBER_RULE)})",
    rf"(?P<{STRING}>{''.join(STRING_RULE)})",
    rf"(?P<newline_in_string>{STRING_RULE[0]}{STRING_BODY}\n)",
    rf"(?P<open_string>{STRING_RULE[0]}{STRING_BODY})",
    rf"(?P<{SYMBOL}>{SYMBOL_RULE})",
    r"(?P<other>.)",
)), re.DOTALL)
#: an error branch of _TOKEN -> its message, placed where the group starts
_LEXICAL_ERRORS = {
    "open_comment": "unterminated comment",
    "point": "digit expected after decimal point",
    "open_string": "unterminated string literal",
    "newline_in_string": "newline in string literal",
}

_READ_AS_WRITTEN = frozenset((IDENT, NUMBER, DECIMAL, SYMBOL))


def _unquote(source: str) -> str:
    """A string literal's value: its text between the quotes, with each
    doubled quote read as one."""
    return source[1:-1].replace('""', '"')


def tokenize(text: str,
             error: Callable[[str, int, int], Exception] = None) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token.

    ``error`` builds the exception to raise on lexical errors; it defaults
    to :class:`repro.errors.DMLSyntaxError`.
    """
    if error is None:
        error = DMLSyntaxError
    tokens: List[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start()
        if kind in _READ_AS_WRITTEN:
            value = match.group()
            if kind == IDENT and not value.isascii():
                _refuse_numerics(value, line, start - line_start + 1, error)
            tokens.append(Token(kind, value, line, start - line_start + 1))
        elif kind == "space" or kind == "comment":
            end = match.end()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, end) + 1
        elif kind == STRING:
            tokens.append(Token(STRING, _unquote(match.group()), line,
                                start - line_start + 1))
        else:
            message = _LEXICAL_ERRORS.get(
                kind, f"unexpected character {match.group()!r}")
            raise error(message, line, match.start(kind) - line_start + 1)
    tokens.append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


def _refuse_numerics(value: str, line: int, column: int, error) -> None:
    """:data:`LETTER` holds numeric characters such as ``²`` that
    ``str.isalpha`` does not: no word of an identifier starts with one."""
    for word in value.split("-"):
        if not word[0].isalpha():
            raise error(f"unexpected character {word[0]!r}", line, column)
        column += len(word) + 1


#: ``true`` and ``false`` are identifiers to :func:`tokenize` and
#: literals of this kind to the parser and the plan cache
BOOLEAN = "BOOLEAN"

#: literal kind -> (its value's type, its value from its source text)
_LITERALS = {
    NUMBER: (int, int),
    DECIMAL: (Decimal, Decimal),
    STRING: (str, _unquote),
    BOOLEAN: (bool, lambda source: source.lower() == "true"),
}

#: The plan cache's one pass over a statement's raw text, with the
#: rules above.  Every literal — and a comment, stepped over whole so
#: that nothing inside one is taken for a literal — starts with one of
#: the heads; the pattern leads with a class of them, so the engine
#: passes over the other characters without trying a branch, and each
#: branch looks back at the head it started on.  A digit right after an
#: identifier character (``load2``) is inside that identifier and no
#: match.  A word character before ``true`` or ``false`` that is a
#: digit ends a number (``5-true``), and any other one (``xtrue``,
#: ``x-true``) makes it part of an identifier, as does a word going on
#: after it (``true-x``, ``falsely``); so where an identifier's digits
#: run into a head of ``true`` or ``false`` (``x5true``, ``x5-false``),
#: the identifier's rest is stepped over whole.
_LETTER_OR_UNDERSCORE = rf"[^\W{DIGIT}]"     # a word character, no digit
_SKELETON_BRANCHES = rf"""
    (?: (?<={COMMENT[0]}){COMMENT[1]}
      | (?<={DIGIT})
        (?: (?<!{WORD}.)
            (?: (?P<{DECIMAL}>{DECIMAL_RULE[1]}) | (?P<{NUMBER}>{NUMBER_RULE[1]}) )
          | (?={DIGIT}*-?{TRUE_FALSE[0]}){IDENT_TAIL} )
      | (?<={STRING_RULE[0]}) (?P<{STRING}>{STRING_RULE[1]})
      | (?<!{_LETTER_OR_UNDERSCORE}.)(?<!{_LETTER_OR_UNDERSCORE}-.)
        (?P<{BOOLEAN}>{TRUE_FALSE[1]}) (?!{WORD}|{JOIN})
    )"""
#: the heads' ASCII members, spelled out so that the leading class is
#: one bitmap test per character (``\d`` in it costs a Unicode lookup)
_ASCII_HEADS = re.escape("".join(filter(
    re.compile("|".join((COMMENT[0], STRING_RULE[0], DIGIT,
                         TRUE_FALSE[0]))).match,
    map(chr, range(128)))))
#: for an all-ASCII text, where ``\d`` and ``\w`` read the same under
#: ``re.ASCII`` and cost a table lookup
_SKELETON_ASCII = re.compile(f"[{_ASCII_HEADS}]" + _SKELETON_BRANCHES,
                             re.VERBOSE | re.DOTALL | re.ASCII)
#: for any other text: every non-ASCII character goes on to the
#: branches, whose look-behinds sort it out
_SKELETON = re.compile(rf"[{_ASCII_HEADS}\x80-\U0010ffff]"
                       + _SKELETON_BRANCHES, re.VERBOSE | re.DOTALL)


def skeleton(text: str) -> Tuple[tuple, list, List[int]]:
    """The plan cache's view of a statement: ``(key, values, offsets)``,
    from one regex pass and no tokens.  ``key`` is the text with every
    number, string and ``true``/``false`` literal cut out — its
    literal-free segments with each literal's kind (``int``,
    ``Decimal``, ``str``, ``bool``) between them — so statements
    differing only in literal values share it, and ``= 5``, ``= 5.0``
    and ``= "5"`` do not.  ``values`` are the literals converted, in
    slot order, ``offsets[slot]`` where each one starts.

    Texts with equal keys have byte-identical segments, and no literal
    spans a newline: a position in one is a position in the other,
    counted from the next literal (docs/INTERNALS.md, "Plan cache").
    """
    key: list = []
    values: list = []
    offsets: List[int] = []
    position = 0
    pattern = _SKELETON_ASCII if text.isascii() else _SKELETON
    for match in pattern.finditer(text):
        group = match.lastgroup
        if group is None:   # a comment or an identifier's rest
            continue
        kind, convert = _LITERALS[group]
        start = match.start()
        key += (text[position:start], kind)
        values.append(convert(match.group()))
        offsets.append(start)
        position = match.end()
    key.append(text[position:])
    return tuple(key), values, offsets


def span_at(text: str, offset: int) -> Span:
    """The position the lexer gives a token starting at ``offset``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return Span(text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def literal(token: Token) -> Optional[tuple]:
    """``(type, value)`` of a literal token — a number, a string,
    ``true`` or ``false`` — else None."""
    kind = token.kind
    if kind == STRING:
        return str, token.value         # tokenize has unquoted it
    if kind == IDENT:
        if token.value.lower() not in ("true", "false"):
            return None
        kind = BOOLEAN
    rule = _LITERALS.get(kind)
    if rule is None:
        return None
    return rule[0], rule[1](token.value)


def literal_sites(tokens: List[Token], text: str, values: list,
                  offsets: List[int]) -> Optional[List[int]]:
    """The index of each literal token in slot order, if the lexer's
    literals are exactly the skeleton's (count, kind, position and
    value); None where they differ, and no skeleton of this text may
    bind values."""
    sites: List[int] = []
    for index, token in enumerate(tokens):
        found = literal(token)
        if found is None:
            continue
        slot = len(sites)
        if (slot == len(values) or found[0] is not type(values[slot])
                or found[1] != values[slot]
                or token.span != span_at(text, offsets[slot])):
            return None
        sites.append(index)
    return sites if len(sites) == len(values) else None


class TokenStream:
    """Cursor over a token list with the usual recursive-descent helpers."""

    def __init__(self, tokens: List[Token],
                 error: Callable[[str, int, int], Exception] = None):
        self._tokens = tokens
        self._pos = 0
        self._error = error or DMLSyntaxError

    @classmethod
    def from_text(cls, text: str,
                  error: Callable[[str, int, int], Exception] = None
                  ) -> "TokenStream":
        return cls(tokenize(text, error), error)

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 1) -> Token:
        pos = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[pos]

    def at_end(self) -> bool:
        return self.current.kind == EOF

    def advance(self) -> Token:
        token = self.current
        if token.kind != EOF:
            self._pos += 1
        return token

    def save(self) -> int:
        return self._pos

    def restore(self, mark: int) -> None:
        self._pos = mark

    # -- matching -------------------------------------------------------------

    def check_symbol(self, *symbols: str) -> bool:
        return self.current.kind == SYMBOL and self.current.value in symbols

    def check_keyword(self, *words: str) -> bool:
        return self.current.is_keyword(*words)

    def accept_symbol(self, *symbols: str) -> Optional[Token]:
        if self.check_symbol(*symbols):
            return self.advance()
        return None

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.check_keyword(*words):
            return self.advance()
        return None

    def expect_symbol(self, symbol: str) -> Token:
        if not self.check_symbol(symbol):
            self.fail(f"expected {symbol!r}, found {self._describe()}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.check_keyword(word):
            self.fail(f"expected {word.upper()!r}, found {self._describe()}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.current.kind != IDENT:
            self.fail(f"expected {what}, found {self._describe()}")
        return self.advance()

    def expect_integer(self) -> int:
        if self.current.kind != NUMBER:
            self.fail(f"expected integer, found {self._describe()}")
        return int(self.advance().value)

    def _describe(self) -> str:
        token = self.current
        if token.kind == EOF:
            return "end of input"
        return f"{token.value!r}"

    def fail(self, message: str):
        token = self.current
        raise self._error(message, token.line, token.column)

    def fail_from(self, message: str, cause: BaseException):
        """Like :meth:`fail`, but keeps ``cause`` on the raised error's
        ``__cause__`` so the original diagnosis survives the translation
        into a position-annotated syntax error."""
        token = self.current
        raise self._error(message, token.line, token.column) from cause
