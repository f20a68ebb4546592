"""Immutable records, the base of quatflow's small value classes.

A record's fields are the names in its class's __match_args__, in order.
Record.__init__ binds its arguments to them as a def would; BlockDim,
StructureKind, StructureTensor, the forms and Trajectory check or
normalise theirs in their own __init__ and store them with _set.  Then
assigning or deleting an attribute raises AttributeError.  repr shows the
fields.  A Value also compares and hashes by its fields, and equals only a
record of its own class; a plain Record compares by identity.  A record
pickles as its class and fields, so what it caches on first use (rows,
compiled kernels, generated functions) stays out of the pickle and is
built again when next read.  The methods are written out, not generated
at import, so defining a record is cheap.
"""


class Record:
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):  # the parser's all-positional calls skip the binding
            args = self._bind(args, kwargs)
        vars(self).update(zip(fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        fields, rest = self.__match_args__, self.__match_args__[len(args):]
        problems = [f"extra argument {value!r}" for value in args[len(fields):]]
        problems += [f"{'repeated' if k in fields else 'unknown'} argument {k!r}" for k in kwargs if k not in rest]
        problems += [f"missing argument {field!r}" for field in rest if field not in kwargs]
        if problems:
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}): {', '.join(problems)}")
        return args + tuple(map(kwargs.get, rest))

    def _set(self, *values) -> None:
        vars(self).update(zip(self.__match_args__, values))

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__match_args__)

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())
