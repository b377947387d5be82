"""Dataset generation and persistence.

A dataset directory holds a single JSON manifest (``manifest.json``,
versioned) describing every record: pose, intrinsics, degradation settings,
and the per-record seed. Its images are read through ``load_images``: one raw
little-endian float32 file per split and kind, rows in manifest order. Poses
are drawn by rejection sampling so that every record is nondegenerate for the
full render -> extract -> solve path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .camera import AXIS_DEGENERACY_PX, CameraIntrinsics, Pose, project_triaxis, random_rotation, triaxis_lengths
from .config import ArchConfig, GuidanceParams, OptConfig, Section
from .errors import DegenerateSamplingExhausted, ManifestError, NonPositiveDepth
from .render import DegradationSpec, apply_degradation, atomic_write, load_f32, render_query, render_triaxis, save_f32

MANIFEST_VERSION = 2  # 2: one image file per split and kind, in place of three per record
IMAGE_KINDS = ("triaxis", "query", "degraded")
MANIFEST_NAME = "manifest.json"
MAX_CONSECUTIVE_REJECTIONS = 1000


def record_seed(global_seed: int, record_id: str) -> int:
    """Stable 63-bit per-record seed derived from the run seed and record id."""
    digest = hashlib.sha256(f"{global_seed}:{record_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RenderParams(Section):
    """Raster settings shared by every record of a dataset."""

    axis_len: float = 1.0
    thickness_px: float = 1.5

    def __post_init__(self):
        if not (self.axis_len > 0 and self.thickness_px > 0):
            raise ValueError("axis_len and thickness_px must be > 0")


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


@dataclass(frozen=True)
class RunConfig(Section):
    """Top-level configuration for every CLI command."""

    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    render: RenderParams = field(default_factory=RenderParams)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    schedule_T: int = 200
    zeta_start: float = 1e-4
    zeta_end: float = 0.05
    arch: ArchConfig = field(default_factory=ArchConfig)
    opt: OptConfig = field(default_factory=OptConfig)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
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
    with atomic_write(path) as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset sample: pose and degradation. Its images are its row of
    its split's image files."""

    id: str
    split: str
    pose: Pose
    scale_lambda_O: float
    degradation: DegradationSpec
    seed: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "split": self.split,
            "pose": {"R": [float(v) for v in self.pose.R.ravel()], "T": [float(v) for v in self.pose.T]},
            "scale_lambda_O": self.scale_lambda_O,
            "degradation": self.degradation.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetRecord":
        """Raises KeyError, ValueError or TypeError on a malformed record."""
        pose = Pose(
            R=np.asarray(d["pose"]["R"], dtype=float).reshape(3, 3),
            T=np.asarray(d["pose"]["T"], dtype=float),
        )
        return cls(
            id=str(d["id"]),
            split=str(d["split"]),
            pose=pose,
            scale_lambda_O=float(d["scale_lambda_O"]),
            degradation=DegradationSpec.from_dict(d["degradation"], "degradation."),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class Manifest:
    intrinsics: CameraIntrinsics
    render: RenderParams
    records: list[DatasetRecord]

    def split(self, name: str) -> list[DatasetRecord]:
        return [r for r in self.records if r.split == name]


def pose_is_nondegenerate(
    K: CameraIntrinsics,
    pose: Pose,
    sampling: SamplingConfig,
    axis_len: float,
) -> bool:
    """Acceptance test for sampled poses.

    Requires: origin and all axis endpoints projectable with positive depth,
    the projected origin inside the central image box, every endpoint inside
    the image, and each projected axis at least min_axis_px long. The length
    floor also keeps solver probe points on the positive-depth branch of
    each axis line (the vanishing point, when one exists, lies beyond the
    projected endpoint).
    """
    try:
        points = project_triaxis(K, pose, axis_len)
    except NonPositiveDepth:
        return False
    lengths = triaxis_lengths(points)
    if np.min(lengths) < AXIS_DEGENERACY_PX:  # project_axes would raise DegenerateAxis
        return False
    origin, endpoints = points[0], points[1:]
    w, h = K.width, K.height
    mx, my = sampling.origin_margin_frac * w, sampling.origin_margin_frac * h
    if not (mx <= origin[0] <= w - 1 - mx and my <= origin[1] <= h - 1 - my):
        return False
    for p in endpoints:
        if not (0 <= p[0] <= w - 1 and 0 <= p[1] <= h - 1):
            return False
    return bool(np.min(lengths) >= sampling.min_axis_px)


def sample_pose(
    rng: np.random.Generator,
    K: CameraIntrinsics,
    sampling: SamplingConfig,
    axis_len: float = 1.0,
) -> Pose:
    """Rejection-sample a nondegenerate pose; uniform rotation, boxed translation."""
    for _ in range(MAX_CONSECUTIVE_REJECTIONS):
        R = random_rotation(rng)
        T = np.array(
            [
                rng.uniform(-sampling.lateral, sampling.lateral),
                rng.uniform(-sampling.lateral, sampling.lateral),
                rng.uniform(sampling.depth_min, sampling.depth_max),
            ]
        )
        pose = Pose(R=R, T=T)
        if pose_is_nondegenerate(K, pose, sampling, axis_len):
            return pose
    raise DegenerateSamplingExhausted(
        f"{MAX_CONSECUTIVE_REJECTIONS} consecutive pose rejections"
    )


def generate_dataset(
    cfg: RunConfig,
    n_train: int,
    n_test: int,
    out_dir: str | Path,
) -> Manifest:
    """Render a seeded dataset: its image files, then its manifest."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    K = cfg.intrinsics
    records: list[DatasetRecord] = []
    for split, count in (("train", n_train), ("test", n_test)):
        rows = {kind: np.empty((count, *_image_shape(K, kind)), "<f4") for kind in IMAGE_KINDS}
        for i in range(count):
            rid = f"{split}_{i:05d}"
            seed = record_seed(cfg.seed, rid)
            rng = np.random.default_rng(seed)
            pose = sample_pose(rng, K, cfg.sampling, cfg.render.axis_len)
            rows["triaxis"][i] = render_triaxis(K, pose, cfg.render.axis_len, cfg.render.thickness_px).data
            rows["query"][i] = query = render_query(K, pose).data  # degrade the float64 render, not the row
            degr = replace(cfg.degradation, seed=seed)
            rows["degraded"][i] = apply_degradation(query, degr)
            records.append(
                DatasetRecord(
                    id=rid, split=split, pose=pose, scale_lambda_O=float(pose.T[2]), degradation=degr, seed=seed
                )
            )
        for kind, images in rows.items():
            save_f32(out / _image_file(split, kind), images)
    doc = {
        "version": MANIFEST_VERSION,
        "intrinsics": K.to_dict(),
        "render": cfg.render.to_dict(),
        "records": [r.to_dict() for r in records],
    }
    with atomic_write(out / MANIFEST_NAME) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return Manifest(intrinsics=K, render=cfg.render, records=records)


def load_manifest(dataset_dir: str | Path) -> Manifest:
    path = Path(dataset_dir) / MANIFEST_NAME
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MANIFEST_VERSION:
        raise ManifestError(f"{path}: manifest version {version!r} is not supported; re-render the dataset")
    try:
        intrinsics = CameraIntrinsics.from_dict(doc["intrinsics"])
        render = RenderParams.from_dict(doc["render"])
        records = [DatasetRecord.from_dict(r) for r in doc["records"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from exc
    for split, count in Counter(r.split for r in records).items():
        for kind in IMAGE_KINDS:
            image_path = Path(dataset_dir) / _image_file(split, kind)
            if not image_path.is_file():
                raise ManifestError(f"missing image file {image_path}")
            size, want = image_path.stat().st_size, 4 * count * math.prod(_image_shape(intrinsics, kind))
            if size != want:
                raise ManifestError(f"image file {image_path} holds {size} bytes, not the {want} of {count} records")
    return Manifest(intrinsics=intrinsics, render=render, records=records)


def load_images(dataset_dir: str | Path, manifest: Manifest, split: str, kind: str) -> np.ndarray:
    """One kind of image of a split, one row per record in manifest order:
    (n, H, W, 3) for ``triaxis``, (n, H, W) for ``query`` and ``degraded``."""
    shape = (len(manifest.split(split)), *_image_shape(manifest.intrinsics, kind))
    return load_f32(Path(dataset_dir) / _image_file(split, kind), shape)


def _image_file(split: str, kind: str) -> str:
    return f"images/{split}_{kind}.f32"


def _image_shape(K: CameraIntrinsics, kind: str) -> tuple[int, ...]:
    return (K.height, K.width, 3) if kind == "triaxis" else (K.height, K.width)
