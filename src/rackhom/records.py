"""The behaviour that the package's record classes share.

A record lists its fields in ``_fields``, in the order its own written-out
``__init__`` takes them.  Two records are equal when they are of the same
class and their fields are equal in that order; ``repr`` prints
``Name(field=value, ...)``.  A :class:`Record` is mutable and unhashable.
A :class:`Frozen` record refuses assignment and deletion, so its
constructor sets fields through ``object.__setattr__``, and it hashes its
fields.  Frozen records keep an instance ``__dict__``, which
``functools.cached_property``, ``copy`` and ``pickle`` write to; a cached
value is not a field, so equality and hashing never read it.
"""


def read_only(record, name, value=None):
    """``__setattr__`` and ``__delattr__`` of a frozen record."""
    raise AttributeError(f"{type(record).__name__} is immutable: cannot set or delete {name!r}")


class Record:
    __slots__ = ()
    _fields = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()
    __setattr__ = __delattr__ = read_only

    def __hash__(self):
        return hash(self._key())
