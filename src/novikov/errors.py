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


class PrerequisiteFailed(NovikovError):
    """A check that depends on earlier checks was run on a model where
    those earlier checks fail."""


class ZConflict(NovikovError):
    """Both configurations carry a marked point; at most one is allowed."""


class GlueError(NovikovError):
    """A gluing that the exact disc geometry cannot carry out: an invalid
    input configuration, or a slot framing that is not a quarter turn."""


class ParseError(NovikovError):
    """An input file or literal could not be parsed.  ``path`` holds the keys
    and indices of the field it was raised under, innermost first, as the
    readers below push them."""

    path: tuple = ()

    def at(self, key) -> "ParseError":
        self.path += (key,)
        return self

    @property
    def pointer(self) -> str:
        """The path as an RFC 6901 JSON Pointer; ``""`` is the whole document."""
        return "".join("/" + str(k).replace("~", "~0").replace("/", "~1")
                       for k in reversed(self.path))


#: Most characters of an input value that an error message echoes.
MAX_SHOWN = 60


def shown(value, text=repr) -> str:
    """*value* as an error message echoes it, ``text(value)``: whole up to
    :data:`MAX_SHOWN` characters, else cut there and followed by its full
    length.  A number past the interpreter's limit on int -> str
    conversion, which ``str`` refuses, is shown by its size."""
    try:
        s = text(value)
    except ValueError:
        return f"a number of {value.numerator.bit_length()} bits"
    return s if len(s) <= MAX_SHOWN else f"{s[:MAX_SHOWN]}... ({len(s)} characters)"


def members(data) -> dict:
    """The JSON object *data*; anything else is a :class:`ParseError`."""
    if not isinstance(data, dict):
        raise ParseError(f"expected an object, got {type(data).__name__}")
    return data


def each(data, read=None) -> list:
    """The JSON array *data*, each item read by *read* when given and pushed
    its index (:func:`field`); anything else is a :class:`ParseError`."""
    if not isinstance(data, list):
        raise ParseError(f"expected a list, got {type(data).__name__}")
    if read is None:
        return data
    out = []
    try:
        for i, item in enumerate(data):
            out.append(read(item))
    except ParseError as exc:
        raise exc.at(i)
    return out


_REQUIRED = object()


def field(data, key, read=None, default=_REQUIRED):
    """The one field reader: ``read(data[key])``, or ``data[key]`` with no
    *read*, and a :class:`ParseError` that *read* raises is pushed *key*.
    A *data* that is not an object, or a missing *key* with no *default*,
    is a :class:`ParseError`; a missing *key* gives *default* unread."""
    if not isinstance(data, dict):
        members(data)  # raises the object check's error
    if key not in data:
        if default is _REQUIRED:
            raise ParseError(f"missing field {key!r}")
        return default
    if read is None:
        return data[key]
    try:
        return read(data[key])
    except ParseError as exc:
        raise exc.at(key)


def one_of(names):
    """A reader of one of the strings *names*."""
    def read(value):
        if value.__class__ is not str or value not in names:
            raise ParseError(f"expected one of {', '.join(names)}, got {shown(value)}")
        return value
    return read
