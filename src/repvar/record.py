"""Base class for repvar's immutable value records, and the helpers through
which error messages speak of input: ``echo``, the bounded ``repr`` that
quotes an input value, and ``decoding``, which words the JSON decoder's
errors for a group or datum file.

A record subclass names its fields in ``_fields`` and sets them once, in its
``__init__``, through ``self.__dict__``.  The base class then compares,
hashes and prints instances by those fields, in that order, and refuses
every later assignment.  A record whose fields are not all hashable is
not hashable either: ``hash`` raises ``TypeError``.  Anything else kept
in ``__dict__``, such as a ``functools.cached_property`` value, is not
part of the value.
"""

import sys
from contextlib import contextmanager

__all__ = ["Record", "echo", "decoding"]

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


@contextmanager
def decoding(kind: str, error: type[Exception]):
    """Raise ``error`` with a message naming the ``kind`` of file
    ("group", "datum") for each way ``json.load`` inside the block can
    refuse a file.  A ``with`` block, not a function that calls
    ``json.load``: the decoder's recursion limit counts the caller's
    frames, so the parse must run at the loader's own depth."""
    import json

    try:
        yield
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise error(f"{kind} file nests JSON arrays or objects too deeply") from None
    except ValueError:  # an integer over CPython's digit limit, which is kept
        limit = sys.get_int_max_str_digits()
        raise error(
            f"{kind} file holds an integer longer than the {limit} digits allowed"
        ) from None


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
