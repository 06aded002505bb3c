"""Read-only value records without generated code.

A subclass of :class:`Record` behaves like a ``@dataclass(frozen=True)``
class: its fields are its annotations in order (after any inherited ones),
class attributes are their defaults, ``__post_init__`` runs once the fields
are set, and instances compare, hash and print field by field.  Nothing is
compiled per class, so import time does not grow with the number of records.
Instances keep a ``__dict__``, so ``functools.cached_property`` works on them,
and ``__post_init__`` normalises a field with ``object.__setattr__`` as under
a frozen dataclass.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in state:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            state[name] = value
        if len(state) < len(fields):
            for name in fields:
                if name not in state:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                    state[name] = cls._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
