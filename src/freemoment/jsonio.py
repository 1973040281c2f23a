"""The JSON round trip shared by every serializable type."""

from __future__ import annotations

import json

from .errors import InvalidInputError


class _Object(dict):
    """A parsed JSON object: a key that a reader needs and it lacks is
    invalid input, named in the error."""

    def __missing__(self, key):
        raise InvalidInputError(f"missing key {key!r}")


def loads(text):
    return json.loads(text, object_hook=_Object)


class JSONMixin:
    """``to_json``/``from_json`` on top of a class's ``to_dict``/``from_dict``."""

    # empty, so that slotted subclasses gain no per-instance __dict__
    __slots__ = ()

    def to_json(self, path=None):
        text = json.dumps(self.to_dict())
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_json(cls, text_or_path):
        """Parse JSON text; anything that does not parse is read as a file path."""
        try:
            d = loads(text_or_path)
        except (ValueError, TypeError):
            with open(text_or_path) as fh:
                d = loads(fh.read())
        return cls.from_dict(d)
