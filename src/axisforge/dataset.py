"""Dataset generation and persistence.

A dataset directory contains raw float32 images plus a single JSON manifest
(``manifest.json``, versioned) describing every record: pose, intrinsics,
image paths, degradation settings, and the per-record seed. Poses are drawn
by rejection sampling so that every record is nondegenerate for the full
render -> extract -> solve path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .camera import AXIS_DEGENERACY_PX, CameraIntrinsics, Pose, project_triaxis, random_rotation, triaxis_lengths
from .config import Section
from .denoiser import ArchConfig, OptConfig
from .diffusion import DiffusionSchedule, make_schedule
from .errors import DegenerateSamplingExhausted, ManifestError, NonPositiveDepth
from .render import DegradationSpec, apply_degradation, atomic_write, render_query, render_triaxis, save_f32

MANIFEST_VERSION = 1
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


@dataclass(frozen=True)
class GuidanceParams(Section):
    """Guidance strength settings carried by the run configuration."""

    rho_base: float = 1.0
    sharpness: float = 50.0


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

    def schedule(self) -> DiffusionSchedule:
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
    """One dataset sample: pose, file references, and its degradation."""

    id: str
    split: str
    pose: Pose
    scale_lambda_O: float
    query_path: str
    triaxis_path: str
    degraded_path: str
    degradation: DegradationSpec
    seed: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "split": self.split,
            "pose": {"R": [float(v) for v in self.pose.R.ravel()], "T": [float(v) for v in self.pose.T]},
            "scale_lambda_O": self.scale_lambda_O,
            "query_path": self.query_path,
            "triaxis_path": self.triaxis_path,
            "degraded_path": self.degraded_path,
            "degradation": self.degradation.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetRecord":
        try:
            pose = Pose(
                R=np.asarray(d["pose"]["R"], dtype=float).reshape(3, 3),
                T=np.asarray(d["pose"]["T"], dtype=float),
            )
            return cls(
                id=str(d["id"]),
                split=str(d["split"]),
                pose=pose,
                scale_lambda_O=float(d["scale_lambda_O"]),
                query_path=str(d["query_path"]),
                triaxis_path=str(d["triaxis_path"]),
                degraded_path=str(d["degraded_path"]),
                degradation=DegradationSpec.from_dict(d["degradation"], "degradation."),
                seed=int(d["seed"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ManifestError(f"malformed record: {exc}") from exc


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
    """Render a seeded dataset and write its manifest."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    K = cfg.intrinsics
    records: list[DatasetRecord] = []
    ids = [("train", f"train_{i:05d}") for i in range(n_train)]
    ids += [("test", f"test_{i:05d}") for i in range(n_test)]
    for split, rid in ids:
        seed = record_seed(cfg.seed, rid)
        rng = np.random.default_rng(seed)
        pose = sample_pose(rng, K, cfg.sampling, cfg.render.axis_len)
        triaxis = render_triaxis(K, pose, cfg.render.axis_len, cfg.render.thickness_px)
        query = render_query(K, pose)
        degr = replace(cfg.degradation, seed=seed)
        degraded = apply_degradation(query.data, degr)
        paths = {
            "query_path": f"images/{rid}_query.f32",
            "triaxis_path": f"images/{rid}_triaxis.f32",
            "degraded_path": f"images/{rid}_query_degraded.f32",
        }
        save_f32(out / paths["query_path"], query.data)
        save_f32(out / paths["triaxis_path"], triaxis.data)
        save_f32(out / paths["degraded_path"], degraded)
        records.append(
            DatasetRecord(
                id=rid,
                split=split,
                pose=pose,
                scale_lambda_O=float(pose.T[2]),
                degradation=degr,
                seed=seed,
                **paths,
            )
        )
    manifest = Manifest(intrinsics=K, render=cfg.render, records=records)
    write_manifest(out / MANIFEST_NAME, manifest)
    return manifest


def write_manifest(path: str | Path, manifest: Manifest) -> None:
    doc = {
        "version": MANIFEST_VERSION,
        "intrinsics": manifest.intrinsics.to_dict(),
        "render": manifest.render.to_dict(),
        "records": [r.to_dict() for r in manifest.records],
    }
    with atomic_write(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(dataset_dir: str | Path) -> Manifest:
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.is_file():
        raise ManifestError(f"missing {path}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
    if doc.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {doc.get('version')!r}")
    try:
        intrinsics = CameraIntrinsics.from_dict(doc["intrinsics"])
        render = RenderParams.from_dict(doc["render"])
        records = [DatasetRecord.from_dict(r) for r in doc["records"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from exc
    base = Path(dataset_dir)
    for rec in records:
        for p in (rec.query_path, rec.triaxis_path, rec.degraded_path):
            if not (base / p).is_file():
                raise ManifestError(f"missing image file {p} referenced by {rec.id}")
    return Manifest(intrinsics=intrinsics, render=render, records=records)
