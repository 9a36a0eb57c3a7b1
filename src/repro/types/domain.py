"""Data types (value domains) for SIM DVAs.

Each :class:`DataType` can validate and coerce candidate values, compare
values, and render values for output.  Types are immutable and hashable so
they may be shared between attributes and stored in the catalog.

The paper's type constructs (§7 example schema):

* ``integer (1001..39999, 60001..99999)`` — integers with range conditions
  (:class:`IntegerType`);
* ``number[9,2]`` — fixed-point decimal with precision and scale
  (:class:`NumberType`);
* ``string[30]`` — bounded strings (:class:`StringType`);
* ``date`` — calendar dates (:class:`DateType`);
* ``symbolic (BS, MBA, MS, PHD)`` — enumerations (:class:`SymbolicType`);
* ``subrole (student, instructor)`` — system-maintained role enumerations
  (:class:`SubroleType`).

Named types (``Type id-number = ...``) live in a :class:`TypeRegistry`.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import TypeDefinitionError, TypeMismatchError
from repro.types.dates import SimDate, SimTime
from repro.types.tvl import NULL, is_null


class DataType:
    """Abstract base for all SIM data types."""

    #: short family keyword used in DDL rendering ("integer", "string", ...)
    family = "abstract"

    def validate(self, value):
        """Coerce ``value`` into this domain or raise :class:`TypeMismatchError`.

        NULL passes through every type; REQUIRED is an attribute option, not
        a type property.
        """
        if is_null(value):
            return NULL
        return self._coerce(value)

    def _coerce(self, value):
        raise NotImplementedError

    def render(self, value) -> str:
        """Human-readable rendering used by tabular output."""
        if is_null(value):
            return "?"
        return str(value)

    def ddl(self) -> str:
        """Render the type in DDL syntax."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.ddl()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())

    def _key(self) -> tuple:
        return ()


class IntegerType(DataType):
    """Integers, optionally restricted to a union of inclusive ranges."""

    family = "integer"

    def __init__(self, ranges: Optional[Sequence[Tuple[int, int]]] = None):
        normalized = []
        for low, high in ranges or ():
            if low > high:
                raise TypeDefinitionError(f"empty integer range {low}..{high}")
            normalized.append((int(low), int(high)))
        self.ranges: Tuple[Tuple[int, int], ...] = tuple(sorted(normalized))

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeMismatchError("boolean is not an integer")
        if isinstance(value, int):
            result = value
        elif isinstance(value, float) and value.is_integer():
            result = int(value)
        elif isinstance(value, str):
            try:
                result = int(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"{value!r} is not an integer") from exc
        else:
            raise TypeMismatchError(f"{value!r} is not an integer")
        if self.ranges and not any(low <= result <= high for low, high in self.ranges):
            ranges = ", ".join(f"{lo}..{hi}" for lo, hi in self.ranges)
            raise TypeMismatchError(f"{result} outside integer ranges ({ranges})")
        return result

    def ddl(self) -> str:
        if not self.ranges:
            return "integer"
        spec = ", ".join(f"{lo}..{hi}" for lo, hi in self.ranges)
        return f"integer ({spec})"

    def _key(self):
        return (self.ranges,)


class NumberType(DataType):
    """Fixed-point decimal ``number[precision, scale]`` (paper: number[9,2])."""

    family = "number"

    def __init__(self, precision: int = 11, scale: int = 0):
        if precision <= 0 or scale < 0 or scale > precision:
            raise TypeDefinitionError(f"invalid number[{precision},{scale}]")
        self.precision = precision
        self.scale = scale
        self._quantum = Decimal(1).scaleb(-scale)
        self._limit = Decimal(10) ** (precision - scale)

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeMismatchError("boolean is not a number")
        if isinstance(value, Decimal):
            candidate = value
        elif isinstance(value, (int, str)):
            try:
                candidate = Decimal(str(value).strip())
            except InvalidOperation as exc:
                raise TypeMismatchError(f"{value!r} is not a number") from exc
        elif isinstance(value, float):
            candidate = Decimal(repr(value))
        else:
            raise TypeMismatchError(f"{value!r} is not a number")
        quantized = candidate.quantize(self._quantum, rounding=ROUND_HALF_UP)
        if abs(quantized) >= self._limit:
            raise TypeMismatchError(
                f"{value} exceeds number[{self.precision},{self.scale}]"
            )
        return quantized

    def render(self, value) -> str:
        if is_null(value):
            return "?"
        return f"{value:.{self.scale}f}" if self.scale else str(value)

    def ddl(self) -> str:
        return f"number[{self.precision},{self.scale}]"

    def _key(self):
        return (self.precision, self.scale)


class RealType(DataType):
    """Floating-point reals (host-language doubles)."""

    family = "real"

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeMismatchError("boolean is not a real")
        if isinstance(value, (int, float, Decimal)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"{value!r} is not a real") from exc
        raise TypeMismatchError(f"{value!r} is not a real")

    def ddl(self) -> str:
        return "real"


class StringType(DataType):
    """Bounded strings ``string[maxlen]``; unbounded when maxlen is None."""

    family = "string"

    def __init__(self, max_length: Optional[int] = None):
        if max_length is not None and max_length <= 0:
            raise TypeDefinitionError(f"invalid string length {max_length}")
        self.max_length = max_length

    def _coerce(self, value):
        if not isinstance(value, str):
            raise TypeMismatchError(f"{value!r} is not a string")
        if self.max_length is not None and len(value) > self.max_length:
            raise TypeMismatchError(
                f"string of length {len(value)} exceeds string[{self.max_length}]"
            )
        return value

    def ddl(self) -> str:
        if self.max_length is None:
            return "string"
        return f"string[{self.max_length}]"

    def _key(self):
        return (self.max_length,)


class BooleanType(DataType):
    """Booleans; participate in 3-valued logic when null."""

    family = "boolean"

    def _coerce(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "yes"):
                return True
            if lowered in ("false", "f", "no"):
                return False
        raise TypeMismatchError(f"{value!r} is not a boolean")

    def ddl(self) -> str:
        return "boolean"


class DateType(DataType):
    """Calendar dates (see :class:`repro.types.dates.SimDate`)."""

    family = "date"

    def _coerce(self, value):
        if isinstance(value, SimDate):
            return value
        if isinstance(value, str):
            return SimDate.parse(value)
        raise TypeMismatchError(f"{value!r} is not a date")

    def ddl(self) -> str:
        return "date"


class TimeType(DataType):
    """Times of day (see :class:`repro.types.dates.SimTime`)."""

    family = "time"

    def _coerce(self, value):
        if isinstance(value, SimTime):
            return value
        if isinstance(value, str):
            return SimTime.parse(value)
        raise TypeMismatchError(f"{value!r} is not a time")

    def ddl(self) -> str:
        return "time"


class SymbolicType(DataType):
    """Enumerated types: ``symbolic (BS, MBA, MS, PHD)``.

    Values are case-insensitive symbols stored in canonical (declared) form.
    """

    family = "symbolic"

    def __init__(self, values: Iterable[str]):
        canonical = tuple(values)
        if not canonical:
            raise TypeDefinitionError("symbolic type needs at least one value")
        lowered = [v.lower() for v in canonical]
        if len(set(lowered)) != len(lowered):
            raise TypeDefinitionError(f"duplicate symbolic values in {canonical}")
        self.values = canonical
        self._by_lower = {v.lower(): v for v in canonical}

    def _coerce(self, value):
        if isinstance(value, str):
            canonical = self._by_lower.get(value.strip().lower())
            if canonical is not None:
                return canonical
        raise TypeMismatchError(
            f"{value!r} is not one of symbolic values {self.values}"
        )

    def ddl(self) -> str:
        return f"symbolic ({', '.join(self.values)})"

    def _key(self):
        return (self.values,)


class SubroleType(DataType):
    """System-maintained role enumeration (paper §3.2).

    A subrole attribute of class C enumerates the names of C's immediate
    subclasses; its value for an entity is the (multi)set of roles the
    entity currently holds.  Subrole attributes are read-only to users; the
    engine writes them when roles are acquired or dropped.
    """

    family = "subrole"

    def __init__(self, subclass_names: Iterable[str]):
        canonical = tuple(subclass_names)
        if not canonical:
            raise TypeDefinitionError("subrole type needs at least one subclass")
        self.subclass_names = canonical
        self._by_lower = {v.lower(): v for v in canonical}

    def _coerce(self, value):
        if isinstance(value, str):
            canonical = self._by_lower.get(value.strip().lower())
            if canonical is not None:
                return canonical
        raise TypeMismatchError(
            f"{value!r} is not one of subroles {self.subclass_names}"
        )

    def ddl(self) -> str:
        return f"subrole ({', '.join(self.subclass_names)})"

    def _key(self):
        return (self.subclass_names,)


class SurrogateType(DataType):
    """System-defined entity identifiers (paper §3.1).

    Surrogates are opaque, unique, non-null, immutable integers assigned by
    the system when a base-class entity is created.
    """

    family = "surrogate"

    def _coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"{value!r} is not a surrogate")
        if value < 0:
            raise TypeMismatchError(f"surrogate {value} is negative")
        return value

    def ddl(self) -> str:
        return "surrogate"


def _normalize_type_name(name: str) -> str:
    return name.strip().lower().replace("_", "-")


class TypeRegistry:
    """Registry of named types (``Type id-number = integer (...)``).

    Lookup is case-insensitive and hyphen/underscore-insensitive, matching
    SIM identifier conventions.
    """

    def __init__(self):
        self._types = {}

    def define(self, name: str, data_type: DataType) -> None:
        key = _normalize_type_name(name)
        if key in self._types:
            raise TypeDefinitionError(f"type {name!r} already defined")
        self._types[key] = data_type

    def lookup(self, name: str) -> DataType:
        key = _normalize_type_name(name)
        try:
            return self._types[key]
        except KeyError:
            raise TypeDefinitionError(f"unknown type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return _normalize_type_name(name) in self._types

    def names(self):
        return sorted(self._types)


#: The built-in (unparameterized) types available in every schema.
STANDARD_TYPES = {
    "integer": IntegerType(),
    "number": NumberType(),
    "real": RealType(),
    "string": StringType(),
    "boolean": BooleanType(),
    "date": DateType(),
    "time": TimeType(),
}
