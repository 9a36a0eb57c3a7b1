"""Date and time values for SIM DVAs.

SIM declares DVAs of type ``date`` (e.g. BIRTHDATE in the UNIVERSITY
schema).  We implement a small immutable date/time pair on top of the
proleptic Gregorian calendar via :mod:`datetime`, with SIM-flavoured
parsing: ISO ``YYYY-MM-DD`` and US ``MM/DD/YYYY`` literals are accepted.
"""

from __future__ import annotations

import datetime
import functools
from typing import Union

from repro.errors import TypeMismatchError


@functools.total_ordering
class SimDate:
    """An immutable calendar date, totally ordered, hashable."""

    __slots__ = ("_date",)

    def __init__(self, year: int, month: int, day: int):
        try:
            self._date = datetime.date(year, month, day)
        except ValueError as exc:
            raise TypeMismatchError(
                f"invalid date {year}-{month}-{day}: {exc}") from exc

    @classmethod
    def parse(cls, text: str) -> "SimDate":
        """Parse ``YYYY-MM-DD`` or ``MM/DD/YYYY``."""
        text = text.strip()
        for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
            try:
                d = datetime.datetime.strptime(text, fmt).date()
                return cls(d.year, d.month, d.day)
            except ValueError:
                continue
        raise TypeMismatchError(f"cannot parse date literal {text!r}")

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "SimDate":
        d = datetime.date.fromordinal(ordinal)
        return cls(d.year, d.month, d.day)

    @property
    def year(self) -> int:
        return self._date.year

    @property
    def month(self) -> int:
        return self._date.month

    @property
    def day(self) -> int:
        return self._date.day

    def ordinal(self) -> int:
        """Days since 0001-01-01; the storage representation of a date."""
        return self._date.toordinal()

    def add_days(self, days: int) -> "SimDate":
        from repro.types.tvl import NULL, is_null
        if is_null(days):
            # 3VL: date arithmetic with a null offset is null.
            return NULL
        if isinstance(days, bool) or not isinstance(days, int):
            raise TypeMismatchError(
                f"date offset must be an integer day count, "
                f"got {type(days).__name__}")
        try:
            d = self._date + datetime.timedelta(days=days)
        except OverflowError as exc:
            raise TypeMismatchError(
                f"date out of range: {self} {days:+d} days leaves the "
                f"calendar (0001-01-01 .. 9999-12-31)") from exc
        return SimDate(d.year, d.month, d.day)

    def days_until(self, other: "SimDate") -> int:
        from repro.types.tvl import NULL, is_null
        if is_null(other):
            # 3VL: the distance to an unknown date is unknown.
            return NULL
        if not isinstance(other, SimDate):
            raise TypeMismatchError(
                f"days-until needs a date operand, "
                f"got {type(other).__name__}")
        return (other._date - self._date).days

    def __eq__(self, other):
        return isinstance(other, SimDate) and self._date == other._date

    def __lt__(self, other):
        if not isinstance(other, SimDate):
            raise TypeMismatchError(f"cannot compare date with {type(other).__name__}")
        return self._date < other._date

    def __hash__(self):
        return hash(("SimDate", self._date))

    def __repr__(self):
        return f"SimDate({self.year}, {self.month}, {self.day})"

    def __str__(self):
        return self._date.isoformat()


@functools.total_ordering
class SimTime:
    """An immutable time of day with second resolution."""

    __slots__ = ("_seconds",)

    def __init__(self, hour: int, minute: int = 0, second: int = 0):
        if not (0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 60):
            raise TypeMismatchError(
                f"invalid time {hour:02d}:{minute:02d}:{second:02d}")
        self._seconds = hour * 3600 + minute * 60 + second

    @classmethod
    def parse(cls, text: str) -> "SimTime":
        """Parse ``HH:MM`` or ``HH:MM:SS``."""
        parts = text.strip().split(":")
        if len(parts) not in (2, 3):
            raise TypeMismatchError(f"cannot parse time literal {text!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError as exc:
            raise TypeMismatchError(f"cannot parse time literal {text!r}") from exc
        while len(numbers) < 3:
            numbers.append(0)
        return cls(*numbers)

    @property
    def hour(self) -> int:
        return self._seconds // 3600

    @property
    def minute(self) -> int:
        return (self._seconds % 3600) // 60

    @property
    def second(self) -> int:
        return self._seconds % 60

    def seconds(self) -> int:
        """Seconds since midnight; the storage representation of a time."""
        return self._seconds

    def __eq__(self, other):
        return isinstance(other, SimTime) and self._seconds == other._seconds

    def __lt__(self, other):
        if not isinstance(other, SimTime):
            raise TypeMismatchError(f"cannot compare time with {type(other).__name__}")
        return self._seconds < other._seconds

    def __hash__(self):
        return hash(("SimTime", self._seconds))

    def __repr__(self):
        return f"SimTime({self.hour}, {self.minute}, {self.second})"

    def __str__(self):
        return f"{self.hour:02d}:{self.minute:02d}:{self.second:02d}"


DateLike = Union[SimDate, str]
