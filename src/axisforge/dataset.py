"""Dataset generation and persistence.

A dataset directory holds a single JSON manifest (``manifest.json``,
versioned): the intrinsics, render and degradation settings shared by every
record, then each record's split, pose and seed. Its images are read through
``load_images``: one raw little-endian float32 file per split and kind, rows
in manifest order. Poses are drawn by rejection sampling: one predicate,
pose_is_nondegenerate, judges every draw, so that every record is
nondegenerate for the full render -> extract -> solve path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import AXIS_DEGENERACY_PX, DEPTH_EPS, Pose, random_rotation
from .config import CameraIntrinsics, DegradationSpec, RenderParams, RunConfig, SamplingConfig
from .errors import DegenerateSamplingExhausted, ManifestError
from .render import apply_degradation, atomic_write, load_f32, render_query, render_triaxis, save_f32

MANIFEST_VERSION = 3  # load_manifest refuses every other version
IMAGE_KINDS = ("triaxis", "query", "degraded")
MANIFEST_NAME = "manifest.json"
MAX_CONSECUTIVE_REJECTIONS = 1000


def record_seed(global_seed: int, record_id: str) -> int:
    """Stable 63-bit per-record seed derived from the run seed and record id."""
    digest = hashlib.sha256(f"{global_seed}:{record_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset sample: its pose and the seed of its pose and degradation
    draws. Its images are its row of its split's image files."""

    id: str
    split: str
    pose: Pose
    seed: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "split": self.split,
            "pose": {"R": [float(v) for v in self.pose.R.ravel()], "T": [float(v) for v in self.pose.T]},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetRecord":
        """Raises KeyError, ValueError or TypeError on a malformed record."""
        pose = Pose(
            R=np.asarray(d["pose"]["R"], dtype=float).reshape(3, 3),
            T=np.asarray(d["pose"]["T"], dtype=float),
        )
        return cls(id=str(d["id"]), split=str(d["split"]), pose=pose, seed=int(d["seed"]))


@dataclass(frozen=True)
class Manifest:
    intrinsics: CameraIntrinsics
    render: RenderParams
    degradation: DegradationSpec
    records: list[DatasetRecord]

    def split(self, name: str) -> list[DatasetRecord]:
        return [r for r in self.records if r.split == name]


def pose_is_nondegenerate(
    K: CameraIntrinsics,
    R,
    T,
    sampling: SamplingConfig,
    axis_len: float,
) -> bool:
    """Acceptance test for a sampled pose (R 3x3 with rows as sequences, T
    three numbers), projected by project_triaxis's formula in Python floats.

    Requires the origin and every axis endpoint at depth above DEPTH_EPS,
    each projected axis at least max(min_axis_px, AXIS_DEGENERACY_PX) long
    (project_axes raises DegenerateAxis below the latter), every endpoint
    inside the image and the projected origin inside the central image box.
    """
    (fx, g, cx), (_, fy, cy), _ = K.K.tolist()
    tx, ty, tz = T
    if tz <= DEPTH_EPS:
        return False
    u0, v0 = (fx * tx + g * ty + cx * tz) / tz, (fy * ty + cy * tz) / tz
    min_len = max(sampling.min_axis_px, AXIS_DEGENERACY_PX)
    w, h = K.width - 1, K.height - 1
    for x, y, z in zip(*R):  # the axis endpoints: R's columns
        x, y, z = x * axis_len + tx, y * axis_len + ty, z * axis_len + tz
        if z <= DEPTH_EPS:
            return False
        u, v = (fx * x + g * y + cx * z) / z, (fy * y + cy * z) / z
        if math.hypot(u - u0, v - v0) < min_len or not (0 <= u <= w and 0 <= v <= h):
            return False
    mx, my = sampling.origin_margin_frac * K.width, sampling.origin_margin_frac * K.height
    return mx <= u0 <= w - mx and my <= v0 <= h - my


def sample_pose(
    rng: np.random.Generator,
    K: CameraIntrinsics,
    sampling: SamplingConfig,
    axis_len: float = 1.0,
) -> Pose:
    """Rejection-sample a nondegenerate pose; uniform rotation, boxed translation.

    pose_is_nondegenerate judges every draw; the Pose of the first draw it
    accepts is built and returned.
    """
    for _ in range(MAX_CONSECUTIVE_REJECTIONS):
        R = random_rotation(rng)
        T = [
            rng.uniform(-sampling.lateral, sampling.lateral),
            rng.uniform(-sampling.lateral, sampling.lateral),
            rng.uniform(sampling.depth_min, sampling.depth_max),
        ]
        if pose_is_nondegenerate(K, R.tolist(), T, sampling, axis_len):
            return Pose(R=R, T=np.array(T))
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
            rows["triaxis"][i] = render_triaxis(K, pose, cfg.render.axis_len, cfg.render.thickness_px)
            rows["query"][i] = query = render_query(K, pose)  # degrade the float64 render, not the row
            rows["degraded"][i] = apply_degradation(query, cfg.degradation, seed)
            records.append(DatasetRecord(id=rid, split=split, pose=pose, seed=seed))
        for kind, images in rows.items():
            save_f32(out / _image_file(split, kind), images)
    doc = {
        "version": MANIFEST_VERSION,
        "intrinsics": K.to_dict(),
        "render": cfg.render.to_dict(),
        "degradation": cfg.degradation.to_dict(),
        "records": [r.to_dict() for r in records],
    }
    with atomic_write(out / MANIFEST_NAME) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return Manifest(intrinsics=K, render=cfg.render, degradation=cfg.degradation, records=records)


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
        intrinsics = CameraIntrinsics.from_dict(doc["intrinsics"], "intrinsics.")
        render = RenderParams.from_dict(doc["render"], "render.")
        degradation = DegradationSpec.from_dict(doc["degradation"], "degradation.")
        records = []
        for i, r in enumerate(doc["records"]):
            try:
                records.append(DatasetRecord.from_dict(r))
            except (KeyError, ValueError, TypeError) as exc:
                rid = f", id {r['id']!r}" if isinstance(r, dict) and "id" in r else ""
                raise ValueError(f"{exc} (record {i}{rid})") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from exc
    repeated = [rid for rid, n in Counter(r.id for r in records).items() if n > 1]
    if repeated:  # records are keyed by id: a second one would overwrite the first's results
        raise ManifestError(f"{path}: record id {repeated[0]!r} appears more than once")
    for split, count in Counter(r.split for r in records).items():
        for kind in IMAGE_KINDS:
            image_path = Path(dataset_dir) / _image_file(split, kind)
            if not image_path.is_file():
                raise ManifestError(f"missing image file {image_path}")
            size, want = image_path.stat().st_size, 4 * count * math.prod(_image_shape(intrinsics, kind))
            if size != want:
                raise ManifestError(f"image file {image_path} holds {size} bytes, not the {want} of {count} records")
    return Manifest(intrinsics=intrinsics, render=render, degradation=degradation, records=records)


def load_images(dataset_dir: str | Path, manifest: Manifest, split: str, kind: str) -> np.ndarray:
    """One kind of image of a split, one row per record in manifest order:
    (n, H, W, 3) for ``triaxis``, (n, H, W) for ``query`` and ``degraded``,
    in the file's float32. Raises ManifestError, naming the file, when a
    value is NaN or lies outside [0, 1]."""
    path = Path(dataset_dir) / _image_file(split, kind)
    images = load_f32(path, (len(manifest.split(split)), *_image_shape(manifest.intrinsics, kind)))
    # a NaN makes its reduction NaN, which fails the comparison
    if not (images.min() >= 0.0 and images.max() <= 1.0):
        raise ManifestError(f"image file {path} holds a value that is NaN or outside [0, 1]")
    return images


def _image_file(split: str, kind: str) -> str:
    return f"images/{split}_{kind}.f32"


def _image_shape(K: CameraIntrinsics, kind: str) -> tuple[int, ...]:
    return (K.height, K.width, 3) if kind == "triaxis" else (K.height, K.width)
