"""Base class for repvar's immutable value records, and the helpers through
which error messages speak of input: ``echo``, the bounded ``repr`` that
quotes an input value, and ``read_json``, which reads a group or datum
file and words the JSON decoder's errors.  ``read_json`` decodes the text
with json's C scanner, the one ``json.loads`` uses; the ``json`` package
is imported only to word an error.

A record subclass names its fields in ``_fields`` and sets them once, in its
``__init__``, through ``self.__dict__``.  The base class then compares,
hashes and prints instances by those fields, in that order, and refuses
every later assignment.  A record whose fields are not all hashable is
not hashable either: ``hash`` raises ``TypeError``.
"""

import re
import sys
from itertools import accumulate
from types import SimpleNamespace

__all__ = ["Record", "echo", "read_json"]

#: The most characters of an input value that an error message quotes.
ECHO_LIMIT = 80

#: The deepest nesting of JSON arrays and objects a group or datum file
#: may have; the file formats need four levels.
MAX_JSON_DEPTH = 64

# A string literal, read as the decoder reads it: from a quote to the next
# unescaped quote or to the end of the text; or a run of characters that
# are neither brackets nor quotes.
_NOT_A_BRACKET = r'(?s)"(?:[^"\\]|\\.)*"?|[^\[\]{}"]+'

# The options json.loads gives its scanner, and the whitespace it skips
# before and after the value.
_LOADS_OPTIONS = SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}.__getitem__,
)
_JSON_SPACE = " \t\n\r"


def echo(value, form=repr) -> str:
    """``form(value)``, ``repr`` unless given, cut after ``ECHO_LIMIT``
    characters, where the length of the whole is given: a long row or a
    deeply nested value in an input file makes a short error message."""
    text = form(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def read_json(path, kind: str, error: type[Exception]):
    """The JSON value in the file at ``path``.  ``error`` is raised with a
    message naming the ``kind`` of file ("group", "datum") when the file
    is not UTF-8 text, nests arrays or objects more than
    ``MAX_JSON_DEPTH`` deep, is not valid JSON or holds an integer over
    CPython's digit limit.  The depth is checked on the text before it is
    parsed, so the answer depends on the file alone, not on the stack of
    the caller, whose frames the decoder's recursion limit counts.

    The text is decoded by json's C scanner with ``json.loads``' options,
    so a file that decodes gives what ``json.loads`` gives without the
    ``json`` package being imported; that is imported only to word an
    error, which ``json.loads`` then raises in its own words."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file is not UTF-8 text: {exc}") from None
    if _json_depth(text) > MAX_JSON_DEPTH:
        raise error(f"{kind} file nests JSON arrays or objects too deeply")
    try:
        from _json import make_scanner

        value, end = make_scanner(_LOADS_OPTIONS)(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if not text[end:].strip(_JSON_SPACE):
            return value
    except Exception:
        # Trailing data, a missing _json and any error of the scanner fall
        # through to json.loads, which raises the error in its own words.
        # The catch is broad because, while json.decoder is not loaded, the
        # scanner cannot build its JSONDecodeError and raises SystemError.
        pass
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file is not valid JSON: {exc}") from None
    except ValueError:  # an integer over CPython's digit limit, which is kept
        limit = sys.get_int_max_str_digits()
        raise error(
            f"{kind} file holds an integer longer than the {limit} digits allowed"
        ) from None


def _json_depth(text: str) -> int:
    """How deep the arrays and objects of JSON ``text`` nest: the most
    brackets open at once, outside string literals."""
    brackets = re.sub(_NOT_A_BRACKET, "", text)
    return max(accumulate(1 if c in "[{" else -1 for c in brackets), default=0)


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
