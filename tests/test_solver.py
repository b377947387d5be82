import math

import numpy as np
import pytest

from axisforge.camera import Omega, compute_omega, project_axes
from axisforge.errors import AxisForgeError
from axisforge.extraction import AxisObservation
from axisforge.metrics import rotation_geodesic
from axisforge.oracle import K128 as K, _geometry_pose, _probe_safe
from axisforge.solver import (
    CornerImage,
    corner_from_observation,
    recover_pose,
    solve_depth_scales,
)


def _exact_observation(pose):
    lines = project_axes(K, pose)
    return AxisObservation(origin_px=lines.origin_px, dir=lines.dir, centroid=lines.origin_px)


def _exact_poses(rng, n):
    out = []
    while len(out) < n:
        pose = _geometry_pose(rng)
        try:
            obs = _exact_observation(pose)
        except AxisForgeError:
            continue
        if not _probe_safe(K, pose, 10.0):
            continue
        out.append((pose, obs))
    return out


def test_exact_roundtrip():
    rng = np.random.default_rng(0)
    for pose, obs in _exact_poses(rng, 100):
        pred = recover_pose(obs, K, scale_lambda_O=float(pose.T[2]))
        assert math.radians(rotation_geodesic(pose.R, pred.R)) < 1e-6
        assert np.linalg.norm(pose.T - pred.T) / np.linalg.norm(pose.T) < 1e-6


def test_corner_solution_residuals():
    rng = np.random.default_rng(1)
    omega = compute_omega(K)
    for pose, obs in _exact_poses(rng, 50):
        corner = corner_from_observation(obs)
        for sol in solve_depth_scales(corner, omega):
            assert sol.residual < 1e-9
            # independent residual recomputation from the solution itself
            lam = np.concatenate([[1.0], sol.lam])
            pts = [corner.x_O, corner.x_A, corner.x_B, corner.x_C]
            for (i, j) in ((1, 2), (2, 3), (3, 1)):
                r = (
                    lam[i] * lam[j] * float(pts[i] @ omega.m @ pts[j])
                    - lam[i] * float(pts[i] @ omega.m @ pts[0])
                    - lam[j] * float(pts[j] @ omega.m @ pts[0])
                    + float(pts[0] @ omega.m @ pts[0])
                )
                assert abs(r) < 1e-9


def test_legs_are_orthogonal():
    rng = np.random.default_rng(2)
    for pose, obs in _exact_poses(rng, 20):
        best = min(solve_depth_scales(corner_from_observation(obs), compute_omega(K)), key=lambda s: s.residual)
        legs = best.legs / np.linalg.norm(best.legs, axis=1, keepdims=True)
        gram = legs @ legs.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6


def test_translation_scale_linearity():
    rng = np.random.default_rng(4)
    (pose, obs), = _exact_poses(rng, 1)
    p1 = recover_pose(obs, K, scale_lambda_O=1.0)
    p2 = recover_pose(obs, K, scale_lambda_O=2.0)
    assert np.allclose(2.0 * p1.T, p2.T, atol=1e-12)
    assert np.allclose(p1.R, p2.R, atol=1e-12)


def test_noise_degrades_gracefully():
    rng = np.random.default_rng(5)
    errs = {0.0: [], 0.5: []}
    for pose, obs in _exact_poses(rng, 30):
        for noise in errs:
            d = obs.dir + noise * 0.01 * rng.standard_normal((3, 2))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            noisy = AxisObservation(origin_px=obs.origin_px, dir=d, centroid=obs.centroid)
            try:
                pred = recover_pose(noisy, K, scale_lambda_O=float(pose.T[2]))
                errs[noise].append(rotation_geodesic(pose.R, pred.R))
            except AxisForgeError:
                errs[noise].append(180.0)
    assert np.median(errs[0.0]) < np.median(errs[0.5])
    assert np.median(errs[0.5]) < 10.0  # half-percent direction noise stays benign


def test_wrong_omega_breaks_roundtrip():
    # canary: the solver must actually use the conic matrix
    rng = np.random.default_rng(6)
    wrong = Omega(np.eye(3))
    worst = 0.0
    for pose, obs in _exact_poses(rng, 10):
        corner = corner_from_observation(obs)
        lam_true = min(
            solve_depth_scales(corner, compute_omega(K)), key=lambda s: s.residual
        ).lam
        try:
            sols = solve_depth_scales(corner, wrong)
        except AxisForgeError:
            worst = math.inf
            continue
        best = min(float(np.max(np.abs(s.lam - lam_true))) for s in sols)
        worst = max(worst, best)
    assert worst > 1e-3


def test_corner_image_validation():
    with pytest.raises(ValueError):
        CornerImage(
            x_O=np.array([0.0, 0.0, 2.0]),  # not homogeneous-normalized
            x_A=np.array([10.0, 0.0, 1.0]),
            x_B=np.array([0.0, 10.0, 1.0]),
            x_C=np.array([-10.0, 0.0, 1.0]),
        )
    with pytest.raises(ValueError):
        CornerImage(
            x_O=np.array([0.0, 0.0, 1.0]),
            x_A=np.array([0.5, 0.0, 1.0]),  # closer than 1 px to the corner
            x_B=np.array([0.0, 10.0, 1.0]),
            x_C=np.array([-10.0, 0.0, 1.0]),
        )


def test_recover_pose_input_validation():
    rng = np.random.default_rng(7)
    (_, obs), = _exact_poses(rng, 1)
    with pytest.raises(ValueError):
        recover_pose(obs, K, scale_lambda_O=0.0)
    with pytest.raises(ValueError):
        recover_pose(obs, K, probe_px=-1.0)
