"""Pose accuracy metrics and benchmark aggregation.

Threshold passes use strict inequality. The reference reprojection
threshold of 15 px is defined at the 128x128 / f=100 configuration;
reproj_threshold_px scales it to another camera by its focal length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import Pose, project_points, row_norms
from .config import CameraIntrinsics

REPROJ_THRESHOLD_PX = 15.0
REFERENCE_FOCAL_PX = 100.0
ADD_DIAMETER_FRAC = 0.2


def reproj_threshold_px(K: CameraIntrinsics) -> float:
    """The reference reprojection threshold scaled by K's focal length:
    15 px at f = 100 (128 px), 3.75 px at the default 32 px."""
    return REPROJ_THRESHOLD_PX * (K.f_x / REFERENCE_FOCAL_PX)


@dataclass(frozen=True)
class ModelPoints:
    """Object-frame evaluation points with the model diameter."""

    points: np.ndarray
    diameter: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", pts)
        if len(pts) < 8:
            raise ValueError("need at least 8 model points")
        d = 0.0
        for i in range(len(pts)):
            d = max(d, float(np.max(np.linalg.norm(pts - pts[i], axis=1))))
        if self.diameter <= 0 or abs(self.diameter - d) > 1e-9:
            raise ValueError("diameter must equal the max pairwise distance")


def cuboid_model() -> ModelPoints:
    """8 corners plus 6 face centers of the cube of half-extent 1."""
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
    )
    centers = np.concatenate([np.eye(3), -np.eye(3)])
    return ModelPoints(points=np.concatenate([corners, centers]), diameter=2.0 * math.sqrt(3.0))


def add_metric(gt: Pose, pred: Pose, model: ModelPoints) -> float:
    """Mean camera-frame distance between the two transformed point sets."""
    a = model.points @ gt.R.T + gt.T
    b = model.points @ pred.R.T + pred.T
    return float(np.linalg.norm(a - b, axis=1).mean())


def reproj_metric(gt: Pose, pred: Pose, model: ModelPoints, K: CameraIntrinsics) -> float:
    """Mean pixel distance between projections under the two poses, summed
    left to right in Python floats."""
    P = model.points
    return sum(row_norms(project_points(K, gt, P) - project_points(K, pred, P)).tolist()) / len(P)


def rotation_geodesic(R1: np.ndarray, R2: np.ndarray) -> float:
    """Relative rotation angle in degrees, accurate at every angle.

    For M = R1^T R2 at angle theta, |M - M^T|_F = sqrt(8) sin(theta) and
    trace(M) = 1 + 2 cos(theta). The arccos of the trace alone quantizes
    near 0 deg at sqrt(eps); atan2 of the two does not.
    """
    M = np.asarray(R1).T @ np.asarray(R2)
    sin = float(np.linalg.norm(M - M.T)) / math.sqrt(8.0)
    cos = (float(np.trace(M)) - 1.0) / 2.0
    return math.degrees(math.atan2(sin, cos))


@dataclass
class MetricsReport:
    records: list[dict] = field(default_factory=list)
    n_failed: int = 0

    @property
    def n_total(self) -> int:
        return len(self.records) + self.n_failed

    def _rate(self, key: str) -> float:
        if self.n_total == 0:
            return 0.0
        return sum(1 for r in self.records if r[key]) / self.n_total

    def _median(self, key: str) -> float:
        vals = [r[key] for r in self.records]
        return float(np.median(vals)) if vals else float("nan")

    @property
    def add_rate(self) -> float:
        return self._rate("add_pass")

    @property
    def reproj_rate(self) -> float:
        return self._rate("reproj_pass")

    def aggregates(self) -> dict:
        return {
            "n_total": self.n_total,
            "n_failed": self.n_failed,
            "add_rate": self.add_rate,
            "reproj_rate": self.reproj_rate,
            "median_rot_deg": self._median("rot_deg"),
            "median_trans": self._median("trans_err"),
            "median_add": self._median("add"),
            "median_reproj_px": self._median("reproj_px"),
        }

    def summary_csv(self) -> str:
        agg = self.aggregates()
        keys = list(agg)
        return ",".join(keys) + "\n" + ",".join(str(agg[k]) for k in keys) + "\n"


def evaluate_pair(gt: Pose, pred: Pose, model: ModelPoints, K: CameraIntrinsics) -> dict:
    add = add_metric(gt, pred, model)
    reproj = reproj_metric(gt, pred, model, K)
    return {
        "rot_deg": rotation_geodesic(gt.R, pred.R),
        "trans_err": float(np.linalg.norm(gt.T - pred.T)),
        "add": add,
        "add_pass": bool(add < ADD_DIAMETER_FRAC * model.diameter),
        "reproj_px": reproj,
        "reproj_pass": bool(reproj < reproj_threshold_px(K)),
    }


def evaluate_suite(
    records: list[tuple[Pose, Pose]],
    model: ModelPoints,
    K: CameraIntrinsics,
    ids: list | None = None,
    n_failed: int = 0,
) -> MetricsReport:
    """Per-sample metrics plus aggregate rates; failed records count against rates."""
    if not records and n_failed == 0:
        raise ValueError("no records to evaluate")
    report = MetricsReport(n_failed=n_failed)
    for i, (gt, pred) in enumerate(records):
        rec = evaluate_pair(gt, pred, model, K)
        rec["id"] = ids[i] if ids is not None else i
        report.records.append(rec)
    return report
