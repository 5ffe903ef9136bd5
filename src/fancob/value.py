"""The immutable base of fancob's value classes.

A subclass names its fields once, in __slots__, in the order of its
constructor's parameters.  Value reads them into _fields when the class is
made (a subclass's fields are its parent's followed by its own); its
__init__ sets them and its _key returns them, so equality, hashing, repr,
copy and pickle follow from that one declaration.  A slot whose name starts
with an underscore (a cached hash, adjacency lists, __dict__) is no part of
the value.  A subclass keeps its typed __init__, which passes the fields on
to Value.__init__.

Plain classes instead of dataclasses keep `import fancob` off the
dataclasses module and its per-class code generation.
"""

from __future__ import annotations


class Value:
    """Equal to an instance of the same class with an equal _key(), hashed
    as _key(), and read-only once built (assignment and deletion raise
    AttributeError)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(name for name in own if not name.startswith("_"))

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
