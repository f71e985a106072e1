"""Record base classes, written once so that importing ffvar generates no code.
A record's fields are its __slots__ in constructor order; the first `_shown`
(all when None) give equality, hash and repr, and pickle and deepcopy rebuild
it through its constructor. A Frozen record takes its fields, by position or
name, once in __init__, and refuses assignment and deletion."""

from operator import attrgetter


class Record:
    __slots__ = ()
    _shown: int | None = None

    def __init_subclass__(cls) -> None:
        if cls.__slots__:  # one C getter of the shown fields, for __eq__ and __hash__
            cls._key = staticmethod(attrgetter(*cls.__slots__[: cls._shown]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__[: self._shown])
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Frozen(Record):
    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        names = self.__slots__
        if len(values) + len(named) != len(names) or not named.keys() <= set(names[len(values):]):
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}")
        for name, value in zip(names, values + tuple(named[name] for name in names[len(values):])):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"field {name!r} of a frozen record is read-only")

    __delattr__ = __setattr__
