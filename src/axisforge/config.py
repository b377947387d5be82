"""The one JSON codec of every configuration section.

A section is a dataclass whose fields are numbers or nested sections. It
is written as ``dataclasses.asdict``. Reading it back rejects a key that
names no field, fills a missing field with its default, names every
missing field that has none, and converts each value to the field's
annotated type; an int field refuses a fraction, a float field refuses
NaN and infinity, and a numeric field refuses a boolean. Every error is a
ValueError naming the dotted key, e.g. ``'guidance.rho_base'``.

Every section lives here, from the camera to the guidance, with
``RunConfig`` and its reader and writer, so that reading a run
configuration imports neither NumPy nor any other axisforge module.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from functools import cached_property
from pathlib import Path


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


def _schema(cls: type) -> tuple[dict[str, type], list[str]]:
    """Each field's annotated type, and the fields that have no default."""
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
        value = tp(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key '{key}': {exc}") from exc
    if tp is float and not math.isfinite(value):
        raise ValueError(f"config key '{key}' must be finite, not {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class CameraIntrinsics(Section):
    """Pinhole parameters. The matrix K is upper triangular with positive diagonal."""

    f_x: float
    f_y: float
    c_x: float
    c_y: float
    width: int
    height: int
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.f_x > 0 and self.f_y > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image size must be positive")

    @cached_property
    def K(self):
        """The 3x3 float array K, built on first use and shared read-only."""
        import numpy as np

        K = np.array([[self.f_x, self.gamma, self.c_x], [0.0, self.f_y, self.c_y], [0.0, 0.0, 1.0]])
        K.flags.writeable = False  # shared by every later caller
        return K

    @cached_property
    def K_inv(self):
        import numpy as np

        K_inv = np.linalg.inv(self.K)
        K_inv.flags.writeable = False  # shared by every later caller
        return K_inv


def default_intrinsics(size: int = 32) -> CameraIntrinsics:
    """Reference camera scaled from the 128 px / f=100 configuration."""
    return CameraIntrinsics(
        f_x=100.0 * size / 128.0,
        f_y=100.0 * size / 128.0,
        c_x=size / 2.0,
        c_y=size / 2.0,
        width=size,
        height=size,
    )


@dataclasses.dataclass(frozen=True)
class RenderParams(Section):
    """Raster settings shared by every record of a dataset."""

    axis_len: float = 1.0
    thickness_px: float = 1.5

    def __post_init__(self):
        if not (self.axis_len > 0 and self.thickness_px > 0):
            raise ValueError("axis_len and thickness_px must be > 0")


@dataclasses.dataclass(frozen=True)
class SamplingConfig(Section):
    """Pose distribution and nondegeneracy thresholds for dataset generation."""

    depth_min: float = 3.0
    depth_max: float = 5.0
    lateral: float = 0.35
    min_axis_px: float = 5.0
    origin_margin_frac: float = 0.25

    def __post_init__(self):
        if not 0 < self.depth_min < self.depth_max:
            raise ValueError("need 0 < depth_min < depth_max")
        if self.lateral < 0 or self.min_axis_px <= 0:
            raise ValueError("lateral must be >= 0 and min_axis_px > 0")
        if not 0.0 <= self.origin_margin_frac < 0.5:
            raise ValueError("origin_margin_frac must lie in [0, 0.5)")


@dataclasses.dataclass(frozen=True)
class DegradationSpec(Section):
    """Controlled corruption: occlusion rectangle, additive noise, box blur.
    Its random draws come from the seed of the record it degrades."""

    occlusion_frac: float = 0.0
    noise_sigma: float = 0.0
    blur_radius: int = 0

    def __post_init__(self):
        if not 0.0 <= self.occlusion_frac < 1.0:
            raise ValueError("occlusion_frac must lie in [0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.blur_radius < 0:
            raise ValueError("blur_radius must be >= 0")


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


@dataclasses.dataclass(frozen=True)
class RunConfig(Section):
    """Top-level configuration for every CLI command."""

    intrinsics: CameraIntrinsics = dataclasses.field(default_factory=default_intrinsics)
    render: RenderParams = dataclasses.field(default_factory=RenderParams)
    sampling: SamplingConfig = dataclasses.field(default_factory=SamplingConfig)
    degradation: DegradationSpec = dataclasses.field(default_factory=DegradationSpec)
    schedule_T: int = 200
    zeta_start: float = 1e-4
    zeta_end: float = 0.05
    arch: ArchConfig = dataclasses.field(default_factory=ArchConfig)
    opt: OptConfig = dataclasses.field(default_factory=OptConfig)
    guidance: GuidanceParams = dataclasses.field(default_factory=GuidanceParams)
    sample_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        # make_schedule checks the same, but importing it would load the sampler
        if self.schedule_T < 1:
            raise ValueError("config key 'schedule_T' must be >= 1")
        if not 0.0 < self.zeta_start <= self.zeta_end < 1.0:
            raise ValueError("config keys 'zeta_start' and 'zeta_end' need 0 < zeta_start <= zeta_end < 1")
        if not 1 <= self.sample_steps <= self.schedule_T:
            raise ValueError(f"config key 'sample_steps' must lie in 1..schedule_T ({self.schedule_T})")

    def schedule(self):
        """The run's DiffusionSchedule; the sampler is imported only here."""
        from .diffusion import make_schedule

        return make_schedule(self.schedule_T, self.zeta_start, self.zeta_end)


def load_config(path: str | Path) -> RunConfig:
    with open(path) as f:
        return RunConfig.from_dict(json.load(f))


def save_config(path: str | Path, cfg: RunConfig) -> None:
    from .render import atomic_write

    with atomic_write(path) as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
