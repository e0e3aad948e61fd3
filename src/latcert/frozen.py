"""The immutable base class of latcert's value types.

A subclass names its fields in `__slots__` and sets them once, in its own
`__init__`, through `object.__setattr__`; afterwards assigning or deleting
an attribute raises AttributeError. The fields are the slots whose names
do not start with "_" (such a slot holds a cache, such as a hash). Two
values are equal when they are of the same class and their fields are
equal in order, and the hash is that of the tuple of fields. A class with
a derived field, or one compared or hashed in the inner loops, defines its
own `__eq__` and `__hash__`; its hash is still that of the tuple of the
fields that identify it.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _fields(self):
        return (n for n in self.__slots__ if n[0] != "_")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields())
        return f"{type(self).__name__}({shown})"
