"""Immutable records, the base of quatflow's small value classes.

A record's fields are the names in its class's __match_args__, in order.
Its __init__ checks the arguments and stores them with _set; after that,
assigning or deleting any attribute raises AttributeError.  repr shows the
fields.  A Value also compares and hashes by its fields, and equals only a
record of its own class; a plain Record compares by identity.  The methods
are written out, not generated at import, so defining a record is cheap.
"""


class Record:
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        vars(self).update(zip(self.__match_args__, values))

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__match_args__)

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
