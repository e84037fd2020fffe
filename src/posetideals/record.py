"""Immutable value records, the base of every result type in the package.

A record is a plain class with ``__slots__`` naming its fields and an
``__init__`` of its own that stores them with ``setfield``.  It compares
and hashes by its field values, and only with records of its own class;
its repr lists the fields; assigning to or deleting an attribute raises
AttributeError; copy and pickle rebuild it through its constructor.  A
class whose slots include ``__dict__`` can carry cached properties, which
write to the instance dict directly.

This is what ``dataclass(frozen=True)`` gives, without importing
``dataclasses`` (and with it ``inspect``) on every start.
"""

from operator import attrgetter

# the one way to store a field of a frozen record, used only by __init__
setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__slots__ if s != "__dict__")
        # one field gives its bare value, several a tuple: equal and hashable alike
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)
