"""Immutable records: the base class of the package's exact values.

An exponent, an index entry, set or family, a face lattice, a b-map, a
blow-up and the reports on them are each a ``Record``.  Its fields are its
class's ``__slots__``, in order, and each is set once, when it is built.  A
record then behaves as a frozen dataclass with the same fields would:

* ``==`` holds between two records of the same class whose fields are equal,
  and is ``NotImplemented`` against any other object;
* ``hash(r)`` is the hash of the tuple of its fields;
* ``repr(r)`` is ``Name(field=value!r, ...)``;
* assigning or deleting an attribute raises ``AttributeError``;
* ``copy`` and ``pickle`` rebuild a record through its constructor.

A record class with defaults or checks writes its own ``__init__`` and sets
each field with ``_set``; any other takes its fields positionally.  This
module imports nothing and generates no code, so ``bcalc`` starts without
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and compiles
the methods of each class it decorates.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
