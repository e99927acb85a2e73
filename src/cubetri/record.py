"""Immutable records with named fields.

A record class lists its fields as its `__slots__` and sets them in its own
`__init__`, which also validates them; `Record` supplies the rest.  No
class is generated: the standard library's record generator imports
`inspect`, `ast`, `dis` and `tokenize` and compiles source for each class,
which would more than double what a fresh `cubetri` process spends on
importing.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """A value whose fields are its class's `__slots__`.  Two records are
    equal when they are of the same class and their fields are equal, the
    hash is that of the tuple of fields, no field can be assigned or
    deleted, and `replace` copies with changes through `__init__`, so the
    copy is validated again."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter reads several fields as a tuple in C; one field it
        # returns bare, so that case is wrapped
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through `__init__`, as `replace` does
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by `__init__`."""
        values = dict(zip(self.__slots__, self._values(self)))
        values.update(changes)
        return type(self)(**values)
