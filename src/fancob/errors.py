"""Exception types shared across the package.

Every geometric precondition violation has its own class so callers (and the
CLI) can map failures to exit codes without string matching.
"""

from __future__ import annotations


class FancobError(Exception):
    """Base class for all package-specific errors."""


class AssertionFailed(FancobError):
    """An exact invariant the library certifies did not hold."""


# --- exact linear algebra ---------------------------------------------------

class ZeroVector(FancobError):
    """An operation that needs a nonzero vector received the zero vector."""


class DimensionMismatch(FancobError):
    """Vectors of different dimensions were mixed in one operation."""


class NullityTooLarge(FancobError):
    """kernel_relation needs nullity 0 or 1; the input had nullity >= 2."""


class DependentInput(FancobError):
    """An operation that needs linearly independent vectors got a dependent set."""


# --- fans --------------------------------------------------------------------

class NotInSupport(FancobError):
    """A point expected inside the support of a fan lies outside it."""


class InvalidFan(FancobError):
    """A fan or cobordism violates a structural invariant at construction."""


# --- cobordisms ---------------------------------------------------------------

class CenterNotInSupport(FancobError):
    """A subdivision center fell outside the running fan's support."""


class CenterAlreadyRay(FancobError):
    """A subdivision center coincides with an existing ray of the fan."""


class DegenerateHeights(FancobError):
    """The chosen heights put a lifted center on the span of its face's lifts.

    The lifted cone would not be simplicial.  Re-run with different heights.
    """


# --- collapse / factorization --------------------------------------------------

class NotCollapsible(FancobError):
    """The circuit graph has a directed cycle; no crossing order exists."""

    def __init__(self, message: str, cycle: tuple = ()):  # noqa: ANN001
        super().__init__(message)
        self.cycle = cycle


class FrontMismatch(FancobError):
    """A circuit's lower faces are missing from the current front fan."""


class BrokenFan(FancobError):
    """An intermediate fan produced during a driver run failed validation."""


# --- demos ---------------------------------------------------------------------

class EqualRays(FancobError):
    """midray needs two distinct rays."""


class NotAllPointingUp(FancobError):
    """The midray schedule needs every maximal cone to have a single positive ray."""


# --- documents -------------------------------------------------------------------

class ParseError(FancobError):
    """A fan or cobordism document is malformed."""
