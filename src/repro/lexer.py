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
        if ch.isdigit():
            start = i
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            kind = NUMBER
            # '..' is the range operator; a single '.' + digit is a decimal.
            if (i < n and text[i] == "."
                    and not (i + 1 < n and text[i + 1] == ".")):
                if i + 1 < n and text[i + 1].isdigit():
                    kind = DECIMAL
                    i += 1
                    while i < n and text[i].isdigit():
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


#: literal token kind -> the type its value is lifted as
_LIFTED_TYPES = {NUMBER: int, DECIMAL: Decimal, STRING: str}


def lift_literals(tokens: List[Token]) -> Tuple[tuple, list, List[int]]:
    """The plan cache's view of a token stream: ``(shape, values,
    sites)``.  ``shape`` is the stream with every number, string and
    boolean literal replaced by its *type* and identifiers lower-cased,
    so statements differing only in literal values share it — ``= 5``,
    ``= 5.0`` and ``= "5"`` do not; ``values`` are the lifted literals
    in slot order, ``sites[slot]`` the index of each one's token.
    ``true``/``false`` lift wherever they appear: a slot no parsed
    literal claims stays part of the key (:class:`repro.dml.ast.Lifted`).
    """
    shape: list = []
    values: list = []
    sites: List[int] = []
    for index, token in enumerate(tokens):
        value = token.value
        lifted = _LIFTED_TYPES.get(token.kind)
        if token.kind == IDENT:
            value = value.lower()
            if value == "true" or value == "false":
                lifted, value = bool, value == "true"
        elif lifted is not None and lifted is not str:
            value = lifted(value)
        if lifted is None:
            shape.append(value)
        else:
            shape.append(lifted)
            values.append(value)
            sites.append(index)
    return tuple(shape), values, sites


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
