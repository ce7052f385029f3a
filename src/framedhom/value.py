"""One base for the library's value classes, written out once by hand.

Every value class declares its fields once, in `_fields`, and stores them in
`__slots__`; its `__init__` validates its arguments and sets each field with
`_set`, as generated code would.  Generating that code per class at import,
as the standard library's record-class decorator does, costs a cold CLI call
the import of `inspect` and about a millisecond per class.
"""

from __future__ import annotations

from operator import attrgetter, index

# sets one slot of a frozen instance, bypassing Value.__setattr__: for
# constructors and first-use caches only
_set = object.__setattr__


# the library's one integer rule, operator.index: int, bool and numpy integers
# pass, and a float or a string raises TypeError where int() would truncate 1.9
# to 1 or parse "3".  ints applies it to each value; scalar fields call index.
def ints(values) -> tuple[int, ...]:
    return tuple(map(index, values))


class Value:
    """Immutable value compared by the field names in `_fields`.

    - Equality: an instance equals only an instance of the very same class
      whose fields, compared in `_fields` order, are equal.  Against any
      other object, a subclass or a sibling class included, `==` returns
      NotImplemented, so two siblings with equal fields compare unequal.
    - Hash: the hash of the fields, so equal instances hash equal.  A field
      that is unhashable (a list, a dict) makes the instance unhashable.
    - Repr: `Name(field=value, ...)` over `_fields`, each value by its own
      repr, as the standard library's generated reprs read.
    - Immutability: assigning or deleting an attribute raises AttributeError.
      Fields are set once, by `_set`, in `__init__` or a classmethod.

    A subclass declares `__slots__` (empty when it adds no field) and, when
    it changes the field list, `_fields`; slots outside `_fields` (caches)
    take no part in equality, hash or repr.  A subclass that compares by
    identity sets `__eq__ = object.__eq__` and `__hash__ = object.__hash__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:  # the common case of a surface shared by its objects
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __setstate__(self, state) -> None:
        # copy and pickle restore slots by setattr, which the class refuses
        for name, value in state[1].items():
            _set(self, name, value)
