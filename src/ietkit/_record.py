"""Value semantics for the package's record classes.

A record is a plain class with ``__slots__`` and an explicit ``__init__``;
it is immutable by convention, like ``VisitationMatrix``.  The records that
are compared, hashed or printed by value derive from ``Value``, which gives
them, over the fields named in ``_fields``: equality with records of the
same class only, the hash of the field tuple, and the
``Name(field=value, ...)`` repr.
"""
from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
