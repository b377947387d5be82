"""The one JSON codec of every configuration section.

A section is a dataclass whose fields are numbers or nested sections. It
is written as ``dataclasses.asdict``. Reading it back rejects a key that
names no field, fills a missing field with its default, names every
missing field that has none, and converts each value to the field's
annotated type; an int field refuses a fraction, and a numeric field
refuses a boolean. Every error is a
ValueError naming the dotted key, e.g. ``'guidance.rho'``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing


class Section:
    """Base of every config dataclass: gives it to_dict and from_dict."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, prefix: str = ""):
        """Build from a (possibly partial) dict; ``prefix`` is the dotted
        path of this section inside its parent, for error messages."""
        section = prefix.rstrip(".") or cls.__name__
        if not isinstance(d, dict):
            raise ValueError(f"config key '{section}' must be an object")
        types, required = _schema(cls)
        for key in d:
            if key not in types:
                raise ValueError(f"unknown config key '{prefix}{key}'")
        missing = [name for name in required if name not in d]
        if missing:
            raise ValueError(f"{section} must be given whole: missing {', '.join(missing)}")
        return cls(**{key: _decode(types[key], value, prefix + key) for key, value in d.items()})


@functools.cache
def _schema(cls: type) -> tuple[dict[str, type], list[str]]:
    """Each field's annotated type, and the fields that have no default;
    cached, since a manifest decodes one section per record."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    return {f.name: hints[f.name] for f in fields}, required


def _decode(tp: type, value, key: str):
    if issubclass(tp, Section):
        return tp.from_dict(value, key + ".")
    if tp in (int, float) and isinstance(value, bool):
        raise ValueError(f"config key '{key}' must be a number, not {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"config key '{key}' must be an integer, not {value!r}")
    try:
        return tp(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key '{key}': {exc}") from exc
