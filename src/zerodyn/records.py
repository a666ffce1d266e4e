"""Plain report records: fields from class annotations, no generated code.

``class OnsetReport(Record):`` with annotated fields gives positional or
keyword construction, field-wise equality between instances of the same
class, ``Name(field=value, ...)`` repr, immutability and a hash of the
field tuple.  A class attribute is the field's default.  ``_replace``
gives a copy with some fields changed.
"""


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unknown or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}: missing field {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def _astuple(self):
        return tuple(getattr(self, n) for n in self._fields)

    def _asdict(self) -> dict:
        return {n: getattr(self, n) for n in self._fields}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"
