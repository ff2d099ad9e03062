"""Frozen value records, the part of frozen dataclasses that kconn uses.

A subclass lists its fields as annotations, in order, with each default as
the class attribute of that name.  Every kconn module uses ``from __future__
import annotations``, so the annotations are strings that nothing evaluates,
and no code is generated per class: one ``__init__``, ``__eq__``,
``__hash__`` and ``__repr__`` serve them all.  That keeps ``dataclasses``,
and the ``inspect`` it imports, off the start-up path of every process.

An instance takes its fields positionally or by keyword, runs
``__post_init__``, refuses assignment and deletion, equals only an instance
of its own class with equal fields, hashes as its field tuple and prints as
the dataclass repr does.  Fields live in the instance ``__dict__``, so pickle
and ``copy`` work unchanged, and ``__post_init__`` may normalise a field or
store a derived value with ``object.__setattr__``.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arrange(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _arrange(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call with keywords or defaults."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing field(s): {', '.join(missing)}")
        return tuple(values[f] if f in values else cls._defaults[f] for f in fields)

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


def as_dict(value):
    """``value`` with every record turned into a dict of its fields and every
    tuple or list into a list, recursively: the JSON form of a report."""
    if isinstance(value, Record):
        return {name: as_dict(item) for name, item in zip(value._fields, value._values())}
    if isinstance(value, (tuple, list)):
        return [as_dict(item) for item in value]
    return value
