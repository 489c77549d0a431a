"""Base class for repvar's immutable value records, and ``echo``, the
bounded ``repr`` through which error messages quote input values.

A record subclass names its fields in ``_fields`` and sets them once, in its
``__init__``, through ``self.__dict__``.  The base class then compares,
hashes and prints instances by those fields, in that order, and refuses
every later assignment.  A record whose fields are not all hashable is
not hashable either: ``hash`` raises ``TypeError``.  Anything else kept
in ``__dict__``, such as a ``functools.cached_property`` value, is not
part of the value.  Among those entries are the field tuple and the
hash, each cached on first use: the fields cannot be assigned, so the
caches cannot go stale.  Pickling leaves out the cached hash, since a
string's hash differs between processes.
"""

__all__ = ["Record", "echo"]

#: The most characters of an input value that an error message quotes.
ECHO_LIMIT = 80


def echo(value) -> str:
    """``repr(value)``, cut after ``ECHO_LIMIT`` characters, where the
    length of the whole is given: a long row or a deeply nested value in
    an input file makes a short error message."""
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        try:
            return self.__dict__["_record_values"]
        except KeyError:
            values = tuple(self.__dict__[name] for name in self._fields)
            self.__dict__["_record_values"] = values
            return values

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        try:
            return self.__dict__["_record_hash"]
        except KeyError:
            value = self.__dict__["_record_hash"] = hash(self._values())
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_record_hash", None)
        return state

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
