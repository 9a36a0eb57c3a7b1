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


def tokenize(text: str,
             error: Callable[[str, int, int], Exception] = None) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token.

    ``error`` builds the exception to raise on lexical errors; it defaults
    to :class:`repro.errors.DMLSyntaxError`.
    """
    if error is None:
        error = DMLSyntaxError
    tokens: List[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def column(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = text[i]

        # -- whitespace ----------------------------------------------------
        if ch in " \t\r":
            i += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue

        # -- comments: (* ... *) -------------------------------------------
        if ch == "(" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*)", i + 2)
            if end < 0:
                raise error("unterminated comment", line, column(i))
            for j in range(i, end):
                if text[j] == "\n":
                    line += 1
                    line_start = j + 1
            i = end + 2
            continue

        # -- identifiers -----------------------------------------------------
        if ch.isalpha():
            start = i
            i += 1
            while i < n:
                c = text[i]
                if c.isalnum() or c == "_":
                    i += 1
                elif (c == "-" and i + 1 < n and text[i + 1].isalpha()):
                    i += 1
                else:
                    break
            tokens.append(Token(IDENT, text[start:i], line, column(start)))
            continue

        # -- numbers ---------------------------------------------------------
        # isdecimal, not isdigit: int() rejects a superscript digit, and
        # it is the skeleton's \d.
        if ch.isdecimal():
            start = i
            i += 1
            while i < n and text[i].isdecimal():
                i += 1
            kind = NUMBER
            # '..' is the range operator; a single '.' + digit is a decimal.
            if (i < n and text[i] == "."
                    and not (i + 1 < n and text[i + 1] == ".")):
                if i + 1 < n and text[i + 1].isdecimal():
                    kind = DECIMAL
                    i += 1
                    while i < n and text[i].isdecimal():
                        i += 1
                else:
                    raise error("digit expected after decimal point",
                                line, column(i))
            tokens.append(Token(kind, text[start:i], line, column(start)))
            continue

        # -- strings -----------------------------------------------------------
        if ch == '"':
            start = i
            i += 1
            pieces = []
            while True:
                if i >= n:
                    raise error("unterminated string literal",
                                line, column(start))
                c = text[i]
                if c == '"':
                    # doubled quote is an escaped quote
                    if i + 1 < n and text[i + 1] == '"':
                        pieces.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                if c == "\n":
                    raise error("newline in string literal",
                                line, column(start))
                pieces.append(c)
                i += 1
            tokens.append(Token(STRING, "".join(pieces), line, column(start)))
            continue

        # -- symbols ---------------------------------------------------------
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token(SYMBOL, symbol, line, column(i)))
                i += len(symbol)
                break
        else:
            raise error(f"unexpected character {ch!r}", line, column(i))

    tokens.append(Token(EOF, "", line, column(i)))
    return tokens


#: The plan cache's one pass over a statement's raw text.  Every literal
#: — and a comment, stepped over whole so that nothing inside one is
#: taken for a literal — starts with one of ``("0-9tTfF``; the pattern
#: leads with that class, so the engine passes over every other
#: character without trying a branch, and each branch looks back at
#: the character it started on.  A digit or ``true``/``false`` right
#: after an identifier character (``load2``, ``x-true``) is part of
#: that identifier, and a word that goes on (``true-x``, ``falsely``)
#: is not a boolean.  A string ends on a quote that does not open a
#: doubled one, so ``"a""`` is no string ``"a"``.
_SKELETON = re.compile(r"""
    [("0-9tTfF]
    (?: (?<=\() \*.*?\*\)
      | (?<=[0-9])(?<!\w.) (?: (?P<decimal>\d*\.\d+) | (?P<number>\d*) )
      | (?<=") (?P<string>(?:[^"\n]|"")*"(?!"))
      | (?<!\w.)(?<!\w-.)
        (?P<boolean>(?<=[tT])[rR][uU][eE]|(?<=[fF])[aA][lL][sS][eE])
        (?!\w|-[^\W\d_])
    )""", re.VERBOSE | re.DOTALL)

#: skeleton group -> (the literal's kind, its value from its source text)
_LITERALS = {
    "number": (int, int),
    "decimal": (Decimal, Decimal),
    "string": (str, lambda source: source[1:-1].replace('""', '"')),
    "boolean": (bool, lambda source: source[0] in "tT"),
}


def skeleton(text: str) -> Tuple[tuple, list, List[int]]:
    """The plan cache's view of a statement: ``(key, values, offsets)``,
    from one regex pass and no tokens.  ``key`` is the text with every
    number, string and ``true``/``false`` literal cut out — its
    literal-free segments with each literal's kind (``int``,
    ``Decimal``, ``str``, ``bool``) between them — so statements
    differing only in literal values share it, and ``= 5``, ``= 5.0``
    and ``= "5"`` do not.  ``values`` are the literals converted, in
    slot order, ``offsets[slot]`` where each one starts.

    Where a literal meets the text around it the lexer reads only the
    literal's first or last character, and the kind fixes that
    character's class (a digit, a quote, a letter).  So two texts with
    equal keys tokenize alike, literal for literal: one text that
    :func:`literal_sites` found the lexer agreeing with vouches for its
    whole key (docs/INTERNALS.md, "Plan cache").
    """
    key: list = []
    values: list = []
    offsets: List[int] = []
    position = 0
    for match in _SKELETON.finditer(text):
        group = match.lastgroup
        if group is None:           # a comment stays in its segment
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


def literal_sites(tokens: List[Token], text: str, values: list,
                  offsets: List[int]) -> Optional[List[int]]:
    """The index of each literal token — number, string, ``true`` or
    ``false`` — in slot order, if the lexer's literals are exactly the
    skeleton's (count, kind, position and value); None where they
    differ, and no skeleton of this text may bind values."""
    sites: List[int] = []
    for index, token in enumerate(tokens):
        kind = token.kind
        if kind == NUMBER:
            value = int(token.value)
        elif kind == DECIMAL:
            value = Decimal(token.value)
        elif kind == STRING:
            value = token.value
        elif kind == IDENT and token.value.lower() in ("true", "false"):
            value = token.value.lower() == "true"
        else:
            continue
        slot = len(sites)
        if (slot == len(values) or type(value) is not type(values[slot])
                or value != values[slot]
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
