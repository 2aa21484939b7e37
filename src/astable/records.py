"""Immutable records with their fields in `__slots__`.

A record class names its fields in `__slots__` and sets them in its own
`__init__`; a slot whose name begins with `_` holds a cache, not a field.
The fields of a class are those of its bases, then its own.  `Record`
gives every record what a frozen dataclass has: a repr that lists the
fields, equality and a hash over them between records of one class, and a
pickle and copy that call the class again.  Assigning or deleting an
attribute raises AttributeError, so an `__init__` writes its fields with
`object.__setattr__` or through their slot descriptors.  No method is
generated, so defining a record costs no more than defining a class.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (type(self), self._values())
