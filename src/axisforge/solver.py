"""Triaxial back-projection: closed-form 6D pose from an axis observation.

The camera centre and each directed image axis line span an interpretation
plane, and the camera-frame axis lies in it (Dhome et al., IEEE TPAMI 1989).
With r_O = K^-1 [x_O; 1] and w_i = K^-1 [d_i; 0], plane i has normal
n_i = r_O x w_i, and axis a_i points along +d_i in the image exactly when
(a_i - a_i,z r_O) . w_i > 0. Put a_1 in plane 1, a_2 = +-(n_2 x a_1)/|.| and
a_3 = a_1 x a_2; then n_3 . a_3 = 0 reduces to
(n_2 . a_1)(n_3 . a_1) = n_2 . n_3, a quadratic in a_1's angle within
plane 1. R = [a_1 a_2 a_3] is orthonormal and right-handed by construction,
and T = scale_lambda_O r_O.
"""

from __future__ import annotations

import math

import numpy as np

from .camera import AxisObservation, Pose, project_axes
from .config import CameraIntrinsics
from .errors import DegenerateAxis, NonPositiveDepth, NoValidSolution


def _real_roots(poly: np.ndarray) -> list[float]:
    """Real roots of c0 + c1 x + c2 x^2 in the stable form, unpolished."""
    c0, c1, c2 = (float(c) for c in poly)
    if abs(c2) < 1e-14:
        if abs(c1) < 1e-14:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        # a slightly negative discriminant is a numerically tangent pair
        if disc < -1e-12 * max(c1 * c1, abs(4.0 * c2 * c0)):
            return []
        disc = 0.0
    sq = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(sq, c1) if c1 != 0 else c1 + sq)
    roots = {q / c2}
    if q != 0.0:
        roots.add(c0 / q)
    return sorted(roots)


def _axis_residual(K: CameraIntrinsics, pose: Pose, obs: AxisObservation) -> float:
    """Sum of angular errors between the reprojected and observed axis directions."""
    try:
        lines = project_axes(K, pose)
    except (DegenerateAxis, NonPositiveDepth):
        return math.inf
    total = 0.0
    for i in range(3):
        dot = float(np.clip(lines.dir[i] @ obs.dir[i], -1.0, 1.0))
        total += math.acos(dot)
    return total


def recover_pose(obs: AxisObservation, K: CameraIntrinsics, scale_lambda_O: float = 1.0) -> Pose:
    """Closed-form 6D pose from an axis observation.

    Each real root of the plane quadratic gives one right-handed frame; a
    frame survives when every axis points along its observed direction. Two
    survivors are told apart by axis reprojection residual. Translation is
    scale_lambda_O * K^-1 x_O. Raises NoValidSolution when no frame survives.
    """
    if scale_lambda_O <= 0:
        raise ValueError("scale_lambda_O must be positive")
    x_O = np.array([*obs.origin_px, 1.0])
    r_O = K.K_inv @ x_O
    W = np.column_stack([obs.dir, np.zeros(3)]) @ K.K_inv.T  # row i: w_i = K^-1 [d_i; 0]
    N = np.cross(r_O, W)
    N /= np.linalg.norm(N, axis=1, keepdims=True)

    def along(A: np.ndarray, i: int) -> np.ndarray:
        """Positive for each row a of A that images along +d_i."""
        return (A - A[:, 2:] * r_O) @ W[i]

    # a_1 = alpha u + beta v spans plane 1; the quadratic form
    # (n_2.a)(n_3.a) - (n_2.n_3)|a|^2 is solved for the ratio whose leading
    # coefficient is the larger, so that no root sits at infinity
    u = r_O / np.linalg.norm(r_O)
    v = np.cross(N[0], u)
    p, q, c = N[1:] @ u, N[1:] @ v, N[1] @ N[2]  # p, q: n_2 and n_3 in the (u, v) basis
    form = np.array([p[0] * p[1] - c, p[0] * q[1] + q[0] * p[1], q[0] * q[1] - c])
    scale = np.max(np.abs(form))
    if scale == 0.0:
        raise NoValidSolution("plane quadratic vanished identically")
    form /= scale
    if abs(form[2]) >= abs(form[0]):
        A1 = u + np.multiply.outer(_real_roots(form), v)
    else:
        A1 = np.multiply.outer(_real_roots(form[::-1]), u) + v

    # rows are roots; a zero sign zeroes an axis, and its root drops out
    A1 *= (np.sign(along(A1, 0)) / np.linalg.norm(A1, axis=1))[:, None]
    A2 = np.cross(N[1], A1)
    m = np.linalg.norm(A2, axis=1)
    keep = m > 1e-12  # a_1 along n_2 would leave a_2 free
    A1, A2 = A1[keep], A2[keep] / m[keep, None]
    A2 *= np.sign(along(A2, 1))[:, None]
    A3 = np.cross(A1, A2)
    T = scale_lambda_O * r_O
    poses = [
        Pose(R=np.column_stack([A1[k], A2[k], A3[k]]), T=T)
        for k in np.flatnonzero((along(A1, 0) > 0) & (along(A2, 1) > 0) & (along(A3, 2) > 0))
    ]
    if not poses:
        raise NoValidSolution("no real root of the plane quadratic gives a frame along the observed axes")
    if len(poses) == 1:
        return poses[0]
    # min keeps the first of equal residuals: earlier roots win ties
    return min(poses, key=lambda pose: _axis_residual(K, pose, obs))
