"""Dataset generation and persistence.

A dataset directory holds a single JSON manifest (``manifest.json``,
versioned): the intrinsics, render and degradation settings shared by every
record, then each record's split, pose and seed. Its images are read through
``load_images``: one raw little-endian float32 file per split and kind, rows
in manifest order. Poses are drawn by rejection sampling so that every
record is nondegenerate for the full render -> extract -> solve path.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import AXIS_DEGENERACY_PX, Pose, project_triaxis, random_rotation, triaxis_lengths
from .config import CameraIntrinsics, DegradationSpec, RenderParams, RunConfig, SamplingConfig
from .errors import DegenerateSamplingExhausted, ManifestError, NonPositiveDepth
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
    pose: Pose,
    sampling: SamplingConfig,
    axis_len: float,
) -> bool:
    """Acceptance test for sampled poses.

    Requires: origin and all axis endpoints projectable with positive depth,
    the projected origin inside the central image box, every endpoint inside
    the image, and each projected axis at least min_axis_px long.
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
        intrinsics = CameraIntrinsics.from_dict(doc["intrinsics"])
        render = RenderParams.from_dict(doc["render"])
        degradation = DegradationSpec.from_dict(doc["degradation"], "degradation.")
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
