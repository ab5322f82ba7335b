"""Plain slotted record classes with field-wise equality, hashing and repr.

The value classes of coh are written by hand instead of with the standard
library's record-class decorator.  Importing its module loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, and it builds each class's
methods from generated source at import time; together that costs a fresh
process about 30 ms, twenty times what a small CLI query takes (see
"Start-up cost" in ``docs/design-notes.md``).

A record class names its fields, in constructor order, in ``__match_args__``
(which also lets a ``match`` class pattern bind them positionally) and stores
them in ``__slots__``.  The generic methods here read the fields in that
order; classes on hot paths override them with explicit ones.
"""

from __future__ import annotations

set_field = object.__setattr__  # how a frozen record's __init__ stores its fields


def _fields(record) -> tuple:
    """The field values of a record, in declaration order."""
    return tuple([getattr(record, name) for name in record.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _fields(self) == _fields(other)
    return NotImplemented


def _repr(self) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({args})"


class Record:
    """Mutable record: equal to a record of the same class with equal fields;
    unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __eq__ = _eq
    __hash__ = None
    __repr__ = _repr


class Frozen:
    """Immutable record: compared and hashed by fields; assignment raises.

    The hash is that of the tuple of field values, as for the standard
    library's frozen records, so hash-based set and dict orders do not move.
    Pickling and copying rebuild the record through its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __eq__ = _eq
    __repr__ = _repr

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, _fields(self))
