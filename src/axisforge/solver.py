"""Triaxial back-projection: closed-form 6D pose from an axis observation.

The object origin and three directed axis lines define a cube-corner image
(x_O, x_A, x_B, x_C in homogeneous pixels). Leg orthogonality in camera
space gives three bilinear equations in the depth scales; eliminating two
of them leaves a quadratic in the third, solved exactly. Legs are assembled
in the camera frame and projected to the nearest rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, Omega, Pose, compute_omega, nearest_rotation, project_axes
from .errors import AllCandidatesRejected, DegenerateAxis, IllConditioned, NonPositiveDepth, NoValidSolution
from .extraction import AxisObservation

RESIDUAL_TOL = 1e-9
_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class CornerImage:
    """Homogeneous pixel coordinates of the corner and one point per leg line."""

    x_O: np.ndarray
    x_A: np.ndarray
    x_B: np.ndarray
    x_C: np.ndarray

    def __post_init__(self):
        for name in ("x_O", "x_A", "x_B", "x_C"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if abs(v[2] - 1.0) > 1e-12:
                raise ValueError(f"{name} must be homogeneous with third component 1")
            object.__setattr__(self, name, v)
        for name in ("x_A", "x_B", "x_C"):
            if np.linalg.norm(getattr(self, name)[:2] - self.x_O[:2]) < 1.0:
                raise ValueError(f"{name} must be at least 1 px from the corner")


@dataclass(frozen=True)
class CornerSolution:
    """Positive depth scales (lambda_O normalized to 1) and camera-frame legs."""

    lam: np.ndarray          # (lambda_A, lambda_B, lambda_C)
    legs: np.ndarray         # (3, 3) rows l_A, l_B, l_C
    residual: float          # max |orthogonality equation|

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(3))
        object.__setattr__(self, "legs", np.asarray(self.legs, dtype=float).reshape(3, 3))


def corner_from_observation(obs: AxisObservation, probe_px: float = 10.0) -> CornerImage:
    """Place one sample point at probe_px along each directed leg line."""
    if probe_px <= 0:
        raise ValueError("probe_px must be positive")
    o = obs.origin_px
    pts = [np.array([*(o + probe_px * obs.dir[i]), 1.0]) for i in range(3)]
    return CornerImage(x_O=np.array([*o, 1.0]), x_A=pts[0], x_B=pts[1], x_C=pts[2])


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


def _polish_on_system(lam_A: float, d: dict) -> float:
    """Newton steps on the (B,C) equation with lambda_B, lambda_C eliminated.

    The cleared polynomial loses accuracy when its roots nearly coalesce, so
    the root is refined against the equation whose residual is reported.
    """
    best = lam_A
    best_g = math.inf
    x = lam_A
    for _ in range(8):
        num = x * d["AO"] - d["OO"]
        den_B = x * d["AB"] - d["BO"]
        den_C = x * d["CA"] - d["CO"]
        if abs(den_B) < _DENOM_FLOOR or abs(den_C) < _DENOM_FLOOR:
            break
        lB = num / den_B
        lC = num / den_C
        g = lB * lC * d["BC"] - lB * d["BO"] - lC * d["CO"] + d["OO"]
        if abs(g) < abs(best_g):
            best, best_g = x, g
        dlB = (d["AO"] * den_B - num * d["AB"]) / (den_B * den_B)
        dlC = (d["AO"] * den_C - num * d["CA"]) / (den_C * den_C)
        gp = dlB * (lC * d["BC"] - d["BO"]) + dlC * (lB * d["BC"] - d["CO"])
        if gp == 0.0:
            break
        x -= g / gp
        if not math.isfinite(x):
            break
    return best


def solve_depth_scales(corner: CornerImage, omega: Omega) -> list[CornerSolution]:
    """All-positive real solutions of the leg-orthogonality system.

    With d_ij = x_i^T Omega x_j the pairwise equations read
        lam_i lam_j d_ij - lam_i d_iO - lam_j d_jO + d_OO = 0.
    lambda_B and lambda_C are eliminated via the (A,B) and (C,A) equations,
    leaving a quadratic in lambda_A after clearing denominators.
    """
    M = omega.m
    xs = {"O": corner.x_O, "A": corner.x_A, "B": corner.x_B, "C": corner.x_C}
    xM = {i: xs[i] @ M for i in "OABC"}
    d = {ij: float(xM[ij[0]] @ xs[ij[1]]) for ij in ("OO", "AO", "BO", "CO", "AB", "BC", "CA")}

    # linear polynomials in lambda_A, coefficient order [const, linear]
    N = np.array([-d["OO"], d["AO"]])        # lam_A d_AO - d_OO
    DB = np.array([-d["BO"], d["AB"]])       # lam_A d_AB - d_BO
    DC = np.array([-d["CO"], d["CA"]])       # lam_A d_CA - d_CO

    # (B,C) equation times DB*DC:
    #   d_BC N^2 - d_BO N DC - d_CO N DB + d_OO DB DC = 0
    poly = (
        d["BC"] * np.convolve(N, N)
        - d["BO"] * np.convolve(N, DC)
        - d["CO"] * np.convolve(N, DB)
        + d["OO"] * np.convolve(DB, DC)
    )

    scale = np.max(np.abs(poly))
    if scale == 0.0:
        raise NoValidSolution("orthogonality polynomial vanished identically")
    roots = _real_roots(poly / scale)

    # omega = U^T U with U upper triangular (unique Cholesky) recovers K^-1,
    # so camera-frame legs are available from omega alone
    U = omega.chol_upper
    ray_O = U @ corner.x_O
    rays = [U @ x for x in (corner.x_A, corner.x_B, corner.x_C)]

    sols: list[CornerSolution] = []
    seen: list[float] = []
    for lam_A in roots:
        if not math.isfinite(lam_A) or lam_A <= 0:
            continue
        lam_A = _polish_on_system(lam_A, d)
        if any(abs(lam_A - s) <= 1e-12 * max(1.0, abs(s)) for s in seen):
            continue
        seen.append(lam_A)
        num = lam_A * d["AO"] - d["OO"]
        den_B = lam_A * d["AB"] - d["BO"]
        den_C = lam_A * d["CA"] - d["CO"]
        if abs(den_B) < _DENOM_FLOOR or abs(den_C) < _DENOM_FLOOR:
            raise IllConditioned("depth-scale elimination denominator vanished")
        lam_B = num / den_B
        lam_C = num / den_C
        if not all(math.isfinite(v) and v > 0 for v in (lam_A, lam_B, lam_C)):
            continue
        lam = np.array([lam_A, lam_B, lam_C])
        res = _system_residual(lam, d)
        if res < RESIDUAL_TOL:
            legs = np.stack([lam[i] * rays[i] - ray_O for i in range(3)])
            sols.append(CornerSolution(lam=lam, legs=legs, residual=res))
    if not sols:
        raise NoValidSolution("no all-positive real depth scales")
    return sols


def _system_residual(lam: np.ndarray, d: dict) -> float:
    lA, lB, lC = lam
    rows = (
        lA * lB * d["AB"] - lA * d["AO"] - lB * d["BO"] + d["OO"],
        lB * lC * d["BC"] - lB * d["BO"] - lC * d["CO"] + d["OO"],
        lC * lA * d["CA"] - lC * d["CO"] - lA * d["AO"] + d["OO"],
    )
    return float(max(abs(r) for r in rows))


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


def recover_pose(
    obs: AxisObservation,
    K: CameraIntrinsics,
    scale_lambda_O: float = 1.0,
    probe_px: float = 10.0,
) -> Pose:
    """Closed-form 6D pose from an axis observation.

    Rotation columns are the normalized camera-frame legs projected to the
    nearest rotation; reflected candidates are discarded and ties are broken
    by axis reprojection residual. Translation is scale_lambda_O * K^-1 x_O.
    """
    if scale_lambda_O <= 0:
        raise ValueError("scale_lambda_O must be positive")
    corner = corner_from_observation(obs, probe_px)
    solutions = solve_depth_scales(corner, compute_omega(K))
    T = scale_lambda_O * (K.K_inv @ corner.x_O)

    poses: list[Pose] = []
    for sol in solutions:
        legs = sol.legs / (np.linalg.norm(sol.legs, axis=1, keepdims=True))
        M = legs.T  # columns are normalized legs
        if np.linalg.det(M) <= 0:
            continue  # a reflection
        poses.append(Pose(R=nearest_rotation(M), T=T))
    if not poses:
        raise AllCandidatesRejected(f"all {len(solutions)} corner candidates were reflections")
    if len(poses) == 1:
        return poses[0]
    # min keeps the first of equal residuals: earlier candidates win ties
    return min(poses, key=lambda pose: _axis_residual(K, pose, obs))
