"""The JSON round trip shared by every serializable type."""

from __future__ import annotations

import json


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
            d = json.loads(text_or_path)
        except (ValueError, TypeError):
            with open(text_or_path) as fh:
                d = json.load(fh)
        return cls.from_dict(d)
