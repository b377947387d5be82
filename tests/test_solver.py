import dataclasses
import math

import numpy as np
import pytest

from axisforge import solver
from axisforge.camera import AxisObservation, project_axes
from axisforge.errors import AxisForgeError
from axisforge.metrics import rotation_geodesic
from axisforge.oracle import K128 as K, _geometry_pose
from axisforge.solver import recover_pose


def _exact_poses(rng, n):
    """The first n poses of the stream that project, whatever their axes' vanishing points."""
    out = []
    while len(out) < n:
        pose = _geometry_pose(rng)
        try:
            obs = project_axes(K, pose)
        except AxisForgeError:
            continue
        out.append((pose, obs))
    return out


def _noisy(obs, rng, sigma):
    d = obs.dir + sigma * rng.standard_normal((3, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return AxisObservation(origin_px=obs.origin_px, dir=d, centroid=obs.centroid)


def _no_tie_break(*args):
    raise AssertionError("two frames survived the sign tests")


def test_exact_roundtrip(monkeypatch):
    # the sign tests leave one frame per exact observation: no tie-break
    monkeypatch.setattr(solver, "_axis_residual", _no_tie_break)
    rng = np.random.default_rng(0)
    for pose, obs in _exact_poses(rng, 100):
        pred = recover_pose(obs, K, scale_lambda_O=float(pose.T[2]))
        assert math.radians(rotation_geodesic(pose.R, pred.R)) < 1e-6
        assert np.linalg.norm(pose.T - pred.T) / np.linalg.norm(pose.T) < 1e-6


def test_axes_toward_a_near_vanishing_point():
    # an axis that recedes from the camera images toward its vanishing point;
    # these observations are solved like any other, however close that point
    rng = np.random.default_rng(2)
    near = []
    while len(near) < 5:
        ((pose, obs),) = _exact_poses(rng, 1)
        o = K.K @ pose.T
        for k in range(3):
            v = K.K @ pose.R[:, k]
            if v[2] > 0 and np.linalg.norm(v[:2] / v[2] - o[:2] / o[2]) < 10.0:
                near.append((pose, obs))
                break
    for pose, obs in near:
        pred = recover_pose(obs, K, scale_lambda_O=float(pose.T[2]))
        assert math.radians(rotation_geodesic(pose.R, pred.R)) < 1e-6


def test_corner_solution_residuals():
    # the recovered pose, projected forward, reproduces the observed directed axes
    rng = np.random.default_rng(1)
    for pose, obs in _exact_poses(rng, 50):
        lines = project_axes(K, recover_pose(obs, K, scale_lambda_O=float(pose.T[2])))
        assert np.max(np.abs(lines.dir - obs.dir)) < 1e-9
        assert np.max(np.abs(lines.origin_px - obs.origin_px)) < 1e-9


def test_legs_are_orthogonal():
    # every returned frame is a proper rotation whose axes, projected forward,
    # point along the observed directions, for exact and noisy observations
    rng = np.random.default_rng(2)
    solved = 0
    for _, obs in _exact_poses(rng, 40):
        for sigma in (0.0, 0.005, 0.05):
            noisy = _noisy(obs, rng, sigma)
            try:
                pose = recover_pose(noisy, K)
            except AxisForgeError:
                continue
            solved += 1
            assert np.max(np.abs(pose.R.T @ pose.R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(pose.R) - 1.0) < 1e-12
            assert np.all(np.sum(project_axes(K, pose, axis_len=1e-3).dir * noisy.dir, axis=1) > 0)
    assert solved >= 100


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
            try:
                pred = recover_pose(_noisy(obs, rng, noise * 0.01), K, scale_lambda_O=float(pose.T[2]))
                errs[noise].append(rotation_geodesic(pose.R, pred.R))
            except AxisForgeError:
                errs[noise].append(180.0)
    assert np.median(errs[0.0]) < np.median(errs[0.5])
    assert np.median(errs[0.5]) < 10.0  # half-percent direction noise stays benign


def test_wrong_focal_length_breaks_roundtrip():
    # canary: the solver must actually use the intrinsics
    wrong = dataclasses.replace(K, f_x=120.0, f_y=120.0)
    rng = np.random.default_rng(6)
    worst = 0.0
    for pose, obs in _exact_poses(rng, 10):
        try:
            pred = recover_pose(obs, wrong, scale_lambda_O=float(pose.T[2]))
        except AxisForgeError:
            worst = math.inf
            continue
        worst = max(worst, math.radians(rotation_geodesic(pose.R, pred.R)))
    assert worst > 1e-3


def test_recover_pose_input_validation():
    rng = np.random.default_rng(7)
    (_, obs), = _exact_poses(rng, 1)
    with pytest.raises(ValueError):
        recover_pose(obs, K, scale_lambda_O=0.0)
