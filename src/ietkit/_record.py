"""Argument binding and value semantics for the package's record classes.

A record is a plain class with ``__slots__``, immutable by convention, like
``VisitationMatrix``.  A record that only stores its arguments derives from
``Record``, whose one ``__init__`` binds them to the slots in order; a field
given neither positionally nor by keyword takes its value from the class's
``_defaults`` dict.  The records built per diagram move or per plane
section, and those that validate or convert an argument, keep an explicit
``__init__``.  The records that are compared, hashed or printed by value
derive from ``Value``, which gives them, over the fields named in
``_fields`` (by default the slots): equality with records of the same class
only, the hash of the field tuple, and the ``Name(field=value, ...)`` repr.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                setattr(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                setattr(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")


class Value(Record):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

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
