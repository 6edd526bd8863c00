"""The frozen base of every value class in the package.

A value class names its fields in `__slots__`, so its instances carry no
`__dict__`, and once built it cannot be changed: assigning or deleting a
field raises AttributeError.  `__init__` sets the slots through
`object.__setattr__`, or through the setters `slot_setters` returns.

`Value` derives `__init__`, `==`, `hash`, `repr` and `__reduce__` from
the class's own `__slots__` when they are called, so defining a subclass
generates no code.  Two values are equal when they are of the same class
and their fields are equal.  A field whose name starts with "_" is
state, not value: it is left out of `==`, `hash`, `repr` and
`__reduce__`, so `__init__` must give it a default.  The node and term
classes, which are built and compared per node, write those methods out
by hand.
"""

from __future__ import annotations


def slot_setters(cls: type) -> list:
    """The setters of `cls`'s own slots, in `__slots__` order; they bypass `__setattr__`."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Value:
    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = [name for name in self.__slots__ if name[0] != "_"]
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
