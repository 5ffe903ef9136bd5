"""The immutable base of fancob's value classes.

A subclass lists its attributes in __slots__, sets them in __init__ through
object.__setattr__, and returns from _key the compared ones, which are its
constructor's arguments in order, so copy and pickle rebuild a value through
the constructor.

Plain classes instead of dataclasses keep `import fancob` off the
dataclasses module and its per-class code generation.
"""

from __future__ import annotations


class Value:
    """Equal to an instance of the same class with an equal _key(), hashed
    as _key(), and read-only once built (assignment and deletion raise
    AttributeError)."""

    __slots__ = ()

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
