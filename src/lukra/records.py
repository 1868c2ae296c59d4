"""Frozen records: the one base class of lukra's value types.

A subclass of `Record` names its fields by annotating them in its class
body; the fields of its bases come first.  A value in the class body is
that field's default, and `field(...)` gives a default made fresh for each
record (`factory=`) or leaves a field out of `==` and `hash`
(`compare=False`).  A record is built from its fields by position or by
keyword, and then its class's `__post_init__` runs, looked up anew on each
construction.  Fields cannot be assigned or deleted afterwards
(`__post_init__` normalises through `object.__setattr__`).  Two records
are equal when they are of the same class and their compared fields are
equal, the hash is that of the tuple of compared fields, and the repr
reads `Var(name='p')`.

These are the semantics of `dataclasses.dataclass(frozen=True)`, which the
tests keep as the oracle.  On CPython 3.11, importing `dataclasses` and
generating each class's methods took about 20 ms, most of the start-up of
a one-verb CLI process; a class here costs one `__init_subclass__` call.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class field:
    """A field default beyond a plain value: `factory()` makes a fresh
    default for each record, and `compare=False` leaves the field out of
    `==` and `hash` (it still shows in the repr)."""

    __slots__ = ("default", "factory", "compare")

    def __init__(self, default=_MISSING, *, factory=None, compare=True):
        self.default, self.factory, self.compare = default, factory, compare


def _getter(names):
    """The tuple of the named attributes of a record."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """Base of frozen records; see the module docstring."""

    __slots__ = ()
    _fields = ()        # field names, bases' first
    _specs = {}         # field name -> its `field`

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        specs = dict(cls._specs)
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            if not isinstance(spec, field):
                spec = field(spec)
            elif spec.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
            specs[name] = spec
        optional = None
        for name, spec in specs.items():
            if spec.default is not _MISSING or spec.factory is not None:
                optional = name
            elif optional is not None:
                raise TypeError(f"field {name!r} without a default follows {optional!r}")
        cls._specs, cls._fields = specs, tuple(specs)
        cls._key = staticmethod(_getter([name for name, spec in specs.items() if spec.compare]))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call that does not give every field by
        position, refused as a plain function's call would be."""
        fields, specs = cls._fields, cls._specs
        values = dict(zip(fields, args))
        values.update(kwargs)
        if len(args) > len(fields) or len(values) < len(args) + len(kwargs) \
                or not values.keys() <= specs.keys():
            bad = [repr(name) for name in kwargs if name not in specs or name in fields[:len(args)]]
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} fields, got {len(args)} "
                            f"by position and unknown or repeated {', '.join(bad) or 'none'}")
        if len(values) < len(fields):
            for name, spec in specs.items():
                if name in values:
                    pass
                elif spec.factory is not None:
                    values[name] = spec.factory()
                elif spec.default is not _MISSING:
                    values[name] = spec.default
            missing = [repr(name) for name in fields if name not in values]
            if missing:
                raise TypeError(f"{cls.__qualname__}() missing required field "
                                f"{', '.join(missing)}")
        return [values[name] for name in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
