"""The JSON round trip shared by every serializable type: ``to_json`` returns
text, and a type with a ``from_dict`` reads ``from_dict(loads(text))``.
Nothing here opens a file; the command line does."""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError


class _Object(dict):
    """A parsed JSON object: a key that a reader needs and it lacks is
    invalid input, named in the error."""

    def __missing__(self, key):
        raise InvalidInputError(f"missing key {key!r}")


def loads(text):
    """Parse JSON text whose top level is an object."""
    data = json.loads(text, object_hook=_Object)
    if not isinstance(data, dict):
        raise InvalidInputError(f"expected a JSON object, got {type(data).__name__}")
    return data


def field(d, key, convert, *default):
    """``convert(d[key])``, or ``convert(default)`` when ``d`` lacks the key
    and a default is given.  InvalidInputError naming the key when ``d`` is
    not an object or ``convert`` raises TypeError or ValueError."""
    if not isinstance(d, dict):
        raise InvalidInputError(f"expected an object with key {key!r}, got {type(d).__name__}")
    try:
        return convert(d[key] if key in d or not default else default[0])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid value of key {key!r}: {exc}") from None


def integer(value):
    """A JSON integer: not a bool, a string or a number written with a fraction."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def floats(value, size=None):
    """A JSON list of numbers as a float array, of ``size`` entries when given."""
    out = np.asarray(value, dtype=float)
    if out.ndim != 1 or size not in (None, out.size):
        raise ValueError(f"expected {size or 'a list of'} numbers, got {value!r}")
    return out


class JSONWriter:
    """``to_json`` on top of a class's ``to_dict``."""

    # empty, so that slotted subclasses gain no per-instance __dict__
    __slots__ = ()

    def to_json(self):
        return json.dumps(self.to_dict())
