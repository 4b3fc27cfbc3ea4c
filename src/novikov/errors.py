"""Typed errors shared across the package.

Every failure that a caller can meaningfully react to gets its own class;
plain ValueError/ZeroDivisionError are used where Python already has the
right notion.
"""

from __future__ import annotations


class NovikovError(Exception):
    """Base class for domain errors raised by this package."""


class InsufficientPrecision(NovikovError):
    """An identity check needed terms beyond the carried truncation.

    Distinguished from inequality: the check could neither pass nor fail.
    """


class ResonantExponent(NovikovError):
    """The indicial factor vanishes at an exponent the recursion must
    determine; the solution is not determined by this recursion."""


class LatticeMismatch(NovikovError):
    """A coefficient exponent is not representable on the seed lattice."""


class InconsistentSeed(NovikovError):
    """The seeded leading coefficients contradict the low-order equations."""


class NoSolution(NovikovError):
    """The linear system defining the requested quantities is unsolvable."""


class DegreeMismatch(NovikovError):
    """A class-valued input lies outside the degrees or classes a check
    requires."""


class PrerequisiteFailed(NovikovError):
    """A check that depends on earlier checks was run on a model where
    those earlier checks fail."""


class ZConflict(NovikovError):
    """Both configurations carry a marked point; at most one is allowed."""


class GlueError(NovikovError):
    """A gluing that the exact disc geometry cannot carry out: an invalid
    input configuration, or a slot framing that is not a quarter turn."""


class ParseError(NovikovError):
    """An input file or literal could not be parsed."""


def require_object(data, what: str) -> dict:
    """*data* if it is a JSON object; anything else is a :class:`ParseError`
    naming *what* was expected."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be an object, got {type(data).__name__}")
    return data


def require_list(data, what: str) -> list:
    """*data* if it is a JSON array; anything else is a :class:`ParseError`
    naming *what* was expected."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list, got {type(data).__name__}")
    return data
