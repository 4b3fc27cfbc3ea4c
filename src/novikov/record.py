"""Value records: ``==``, ``repr`` and ``hash`` from a tuple of field names.

The package's records are plain classes with explicit ``__init__``s.  Each
names its fields in ``_fields``, in signature order; :class:`Record` makes
``==`` compare those fields, between instances of the same class only, and
``repr`` show them as ``Name(field=value, ...)``.  An attribute outside
``_fields``, such as a cache, takes part in neither.  :class:`FrozenRecord`
also refuses assignment after ``__init__`` and hashes by value.

(Plain classes rather than ``dataclasses``: building a dataclass execs its
generated methods at import, and importing ``dataclasses`` pulls in
``inspect``, which every ``novikov run`` would pay before its task.)
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    __slots__ = ()

    def _set(self, *values) -> None:
        """Assign *values* to ``_fields`` in order; ``__init__`` only."""
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())
