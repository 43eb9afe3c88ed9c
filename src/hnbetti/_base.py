"""The two helpers every layer shares: the record base class and the integer check.

_Record is the base of the package's immutable value types: slotted fields,
set once, compared and hashed by value.  It stands in for frozen dataclasses,
whose module imports inspect and ast and costs every process more start-up
time than the arithmetic of a small request.  _check_int validates every
integer argument.  Both live here, not in exactalg, so that a layer that does
no polynomial arithmetic (strata, and render for a type list) loads no
polynomial module.
"""

from __future__ import annotations

from typing import Optional


class _Record:
    """Immutable record: its fields are the subclass's __slots__, in order.

    A subclass's constructor parameters are exactly its slots, in the same
    order: __reduce__ rebuilds a record by calling its class with the slot
    values, and _trusted takes the same values positionally.  A value derived
    from the fields is a property, not a slot.  __init__ validates its
    arguments and passes the field values to _fill; _trusted builds a record
    from values already known to be valid.
    Records compare equal when their classes and field values are equal, and
    hash their field values.  Assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """Build from valid field values, skipping validation."""
        record = object.__new__(cls)
        record._fill(*values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle would restore the slots by assignment, which raises.
        return type(self), self._values()


def _check_int(name: str, value: int, least: Optional[int] = None) -> int:
    """value itself, when it is an int (a bool is not) no smaller than least; else a ValueError.

    The package's one check for an integer argument: a genus, rank, degree,
    exponent or truncation order.  The error names the argument.  int() would
    truncate 2.7 to 2 and read "3" as 3 without a word.
    """
    if type(value) is not int:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}: expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value
