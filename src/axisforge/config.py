"""The one JSON codec of every configuration section.

A section is a dataclass whose fields are numbers or nested sections. It
is written as ``dataclasses.asdict``. Reading it back rejects a key that
names no field, fills a missing field with its default, names every
missing field that has none, and converts each value to the field's
annotated type; an int field refuses a fraction, and a numeric field
refuses a boolean. Every error is a
ValueError naming the dotted key, e.g. ``'guidance.rho_base'``.

The denoiser's ``ArchConfig`` and ``OptConfig`` and the sampler's
``GuidanceParams`` live here, so that reading a run configuration imports
neither the denoiser nor the sampler.
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


@dataclasses.dataclass(frozen=True)
class ArchConfig(Section):
    image_size: int = 32
    hidden: int = 512
    time_embed_dim: int = 32

    def __post_init__(self):
        if self.image_size < 4 or self.hidden < 1:
            raise ValueError("bad architecture configuration")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even")

    @property
    def triaxis_dim(self) -> int:
        return 3 * self.image_size * self.image_size

    @property
    def cond_dim(self) -> int:
        return self.image_size * self.image_size

    @property
    def input_dim(self) -> int:
        return self.triaxis_dim + self.cond_dim + self.time_embed_dim


@dataclasses.dataclass(frozen=True)
class OptConfig(Section):
    steps: int = 2000
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    log_every: int = 50

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.log_every) < 1:
            raise ValueError("steps, batch_size and log_every must be >= 1")
        if not (self.lr > 0 and self.adam_eps > 0):
            raise ValueError("lr and adam_eps must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


@dataclasses.dataclass(frozen=True)
class GuidanceParams(Section):
    """Geometric-consistency guidance of one sampling run: the step size
    rho_base (0 samples unguided) and the soft threshold's sharpness at the
    end of sampling."""

    rho_base: float = 1.0
    sharpness: float = 50.0

    def __post_init__(self):
        if not (self.rho_base >= 0 and self.sharpness > 0):
            raise ValueError("rho_base must be >= 0 and sharpness > 0")
