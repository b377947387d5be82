"""Pinhole camera model, tri-axis forward projection, and rotation helpers.

``AxisObservation`` is the one type of a tri-axis image, the object that
passes from projection and extraction to guidance and the pose solver: an
origin, three directed unit axes and a centroid, for one image or a batch.

Conventions (standard computer vision):
    camera frame  - X right, Y down, Z forward along the optical axis
    image frame   - u right, v down, in pixels; pixel (col j, row i) has
                    center at (u, v) = (j, i)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import CameraIntrinsics
from .errors import DegenerateAxis, NonPositiveDepth

DEPTH_EPS = 1e-9
AXIS_DEGENERACY_PX = 1e-6


@dataclass(frozen=True)
class Pose:
    """Rigid transform from object frame to camera frame: x_cam = R @ x_obj + T."""

    R: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        T = np.asarray(self.T, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)
        if R.shape != (3, 3):
            raise ValueError("R must be 3x3")
        if not (np.isfinite(R).all() and np.isfinite(T).all()):
            raise ValueError("R and T must be finite")
        if np.linalg.norm(R.T @ R - np.eye(3)) > 1e-9:
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("R is not a proper rotation")


@dataclass(frozen=True)
class AxisObservation:
    """The image of the object's tri-axis, for one image or for B records
    stacked along a leading axis.

    origin_px : (..., 2) image of the object origin
    dir       : (..., 3, 2) unit vectors pointing from the origin toward each
                axis (X, Y, Z order)
    centroid  : (..., 2) centroid of the three axis segments' ink
    errors    : for a batch, errors[b] is the exception of record b, whose
                extraction failed and whose rows are nan; empty for one image
    """

    origin_px: np.ndarray
    dir: np.ndarray
    centroid: np.ndarray
    errors: Sequence[Exception | None] = ()

    def __post_init__(self):
        origin = np.asarray(self.origin_px, dtype=float)
        lead = origin.shape[:-1]
        d = np.asarray(self.dir, dtype=float).reshape(*lead, 3, 2)
        object.__setattr__(self, "origin_px", origin.reshape(*lead, 2))
        object.__setattr__(self, "dir", d)
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float).reshape(*lead, 2))
        # a nan row compares False: a failed record's rows pass, and hide no other row
        if np.any(np.abs(np.linalg.norm(d, axis=-1) - 1.0) > 1e-9):
            raise ValueError("axis directions must be unit vectors")

    @classmethod
    def stack(cls, observations: Sequence["AxisObservation"]) -> "AxisObservation":
        """B single-image observations as one batch without errors."""
        return cls(
            origin_px=np.stack([o.origin_px for o in observations]),
            dir=np.stack([o.dir for o in observations]),
            centroid=np.stack([o.centroid for o in observations]),
            errors=[None] * len(observations),
        )

    def record(self, b: int) -> "AxisObservation":
        """Record b of a batch; raises its extraction error if it failed."""
        if self.errors[b] is not None:
            raise self.errors[b]
        return AxisObservation(origin_px=self.origin_px[b], dir=self.dir[b], centroid=self.centroid[b])

    def to_flat(self) -> list[float]:
        return [*self.origin_px, *self.dir.ravel(), *self.centroid]


def project_points(K: CameraIntrinsics, pose: Pose, X_obj) -> np.ndarray:
    """Pixel coordinates (N, 2) of the object-frame points X_obj (N, 3):
    each point gets its own R @ x and K @ x matrix-vector products. Raises
    NonPositiveDepth for the first point, in order, behind the camera."""
    Xc = (pose.R @ np.asarray(X_obj, dtype=float)[:, :, None])[:, :, 0] + pose.T
    behind = np.flatnonzero(Xc[:, 2] <= DEPTH_EPS)
    if behind.size:
        raise NonPositiveDepth(f"transformed depth {Xc[behind[0], 2]:.3g} <= {DEPTH_EPS}")
    h = (K.K @ Xc[:, :, None])[:, :, 0]
    return h[:, :2] / h[:, 2:]


def project_point(K: CameraIntrinsics, pose: Pose, X_obj) -> np.ndarray:
    """Project an object-frame point to pixel coordinates."""
    return project_points(K, pose, np.reshape(X_obj, (1, 3)))[0]


def project_triaxis(K: CameraIntrinsics, pose: Pose, axis_len: float = 1.0) -> np.ndarray:
    """Pixel coordinates (4, 2) of the object origin and of the X, Y, Z axis
    endpoints ``axis_len`` along each axis. Raises NonPositiveDepth for the
    first point, in that order, behind the camera."""
    if axis_len <= 0:
        raise ValueError("axis_len must be positive")
    return project_points(K, pose, axis_len * np.eye(4, 3, -1))  # rows: 0, then axis_len e_i


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (N, 2) array d, bit-identical to
    np.linalg.norm on each row: each row @ row product goes to the BLAS dot
    np.linalg.norm uses, which rounds differently from the sum of squares
    of np.linalg.norm(d, axis=1)."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def triaxis_lengths(points: np.ndarray) -> np.ndarray:
    """Pixel length of each axis segment of project_triaxis's points."""
    return row_norms(points[1:] - points[0])


def require_nondegenerate(lengths: np.ndarray) -> None:
    """Raise DegenerateAxis for the first axis segment shorter than AXIS_DEGENERACY_PX."""
    for i in range(3):
        if lengths[i] < AXIS_DEGENERACY_PX:
            raise DegenerateAxis(i)


def project_axes(K: CameraIntrinsics, pose: Pose, axis_len: float = 1.0) -> AxisObservation:
    """Forward-project the object tri-axis to its image.

    Each direction points from the projected origin toward the projected
    endpoint ``axis_len`` along the corresponding object axis. The centroid
    is that of the three projected segments, each weighted by its length.
    """
    points = project_triaxis(K, pose, axis_len)
    lengths = triaxis_lengths(points)
    require_nondegenerate(lengths)
    rel = points[1:] - points[0]
    return AxisObservation(
        origin_px=points[0],
        dir=rel / lengths[:, None],
        centroid=points[0] + lengths @ rel / (2.0 * lengths.sum()),
    )


# --- rotation helpers ---

def rot_x(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = (q / np.linalg.norm(q)).tolist()  # Python floats: the same IEEE products and sums
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
