import itertools
import math

import numpy as np
import pytest

from axisforge.camera import (
    AxisObservation,
    Pose,
    project_axes,
    project_point,
    project_points,
    project_triaxis,
    random_rotation,
    rot_x,
    rot_y,
    rot_z,
    triaxis_lengths,
)
from axisforge.config import CameraIntrinsics, default_intrinsics
from axisforge.errors import DegenerateAxis, EmptyChannel, NonPositiveDepth
from axisforge.extraction import extract_axes_hard
from axisforge.render import render_triaxis

K = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)


def test_intrinsics_matrix_and_inverse():
    assert np.allclose(K.K, [[100, 0, 64], [0, 100, 64], [0, 0, 1]])
    assert np.allclose(K.K @ K.K_inv, np.eye(3), atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(f_x=-1.0, f_y=100.0, c_x=0, c_y=0, width=10, height=10)
    with pytest.raises(ValueError):
        CameraIntrinsics(f_x=1.0, f_y=1.0, c_x=0, c_y=0, width=0, height=10)


def test_intrinsics_dict_roundtrip():
    k2 = CameraIntrinsics.from_dict(K.to_dict())
    assert k2 == K


def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(R=np.eye(3) * 2.0, T=np.zeros(3))
    with pytest.raises(ValueError):
        Pose(R=np.diag([1.0, 1.0, -1.0]), T=np.zeros(3))  # reflection


def test_project_point_known_value():
    pose = Pose(R=np.eye(3), T=np.array([0.0, 0.0, 5.0]))
    uv = project_point(K, pose, [1.0, 0.0, 0.0])
    assert np.allclose(uv, [64.0 + 100.0 / 5.0, 64.0])


def test_project_point_behind_camera_raises():
    pose = Pose(R=np.eye(3), T=np.array([0.0, 0.0, -5.0]))
    with pytest.raises(NonPositiveDepth):
        project_point(K, pose, [0.0, 0.0, 0.0])


def test_project_axes_matches_pointwise_projection():
    pose = Pose(R=rot_x(25.0) @ rot_y(-40.0), T=np.array([0.3, -0.2, 6.0]))
    lines = project_axes(K, pose)
    origin = project_point(K, pose, np.zeros(3))
    assert np.array_equal(lines.origin_px, origin)
    for i in range(3):
        delta = project_point(K, pose, np.eye(3)[i]) - origin
        assert np.array_equal(lines.dir[i], delta / np.linalg.norm(delta))
        assert math.isclose(np.linalg.norm(lines.dir[i]), 1.0, abs_tol=1e-12)


def test_project_axes_degenerate_axis():
    # Z axis along the optical ray through the origin: projects to one point
    pose = Pose(R=np.eye(3), T=np.array([0.0, 0.0, 5.0]))
    with pytest.raises(DegenerateAxis):
        project_axes(K, pose)


def test_projected_axis_lengths_positive_and_consistent():
    pose = Pose(R=rot_x(30.0) @ rot_z(10.0), T=np.array([0.1, 0.0, 5.0]))
    lengths = triaxis_lengths(project_triaxis(K, pose, 1.0))
    assert lengths.shape == (3,)
    assert np.all(lengths > 0)
    origin = project_point(K, pose, np.zeros(3))
    for i in range(3):
        ref = np.linalg.norm(project_point(K, pose, np.eye(3)[i]) - origin)
        assert lengths[i] == ref


def test_observation_batches_concatenate_and_take_rows_with_their_errors():
    k32 = default_intrinsics(32)
    images = [
        render_triaxis(k32, Pose(R=rot_x(a) @ rot_y(b), T=np.array([0.0, 0.0, 3.0])), thickness_px=1.5)
        for a, b in ((25.0, -40.0), (-30.0, 35.0))
    ]
    first = extract_axes_hard(np.stack([images[0], np.zeros_like(images[0])]))  # row 1 fails
    second = extract_axes_hard(images[1][None])
    joined = AxisObservation.concatenate([first, second])
    sources = [(first, 0), (first, 1), (second, 0)]

    def same_rows(batch, picked):
        # each row of batch is row b of source, bit for bit, with its error object
        assert batch.origin_px.shape == (len(picked), 2) and len(batch.errors) == len(picked)
        for row, (source, b) in enumerate(picked):
            for name in ("origin_px", "dir", "centroid"):
                assert getattr(batch, name)[row].tobytes() == getattr(source, name)[b].tobytes()
            assert batch.errors[row] is source.errors[b]

    assert isinstance(first.errors[1], EmptyChannel) and np.isnan(first.origin_px[1]).all()
    same_rows(joined, sources)
    picked = joined.take([2, 1, 2, 0])
    same_rows(picked, [sources[i] for i in (2, 1, 2, 0)])
    same_rows(joined.take([]), [])
    with pytest.raises(EmptyChannel) as raised:
        picked.record(1)
    assert raised.value is first.errors[1]
    assert picked.record(0).origin_px.tobytes() == second.record(0).origin_px.tobytes()


def test_project_points_matches_per_point_products():
    rng = np.random.default_rng(6)
    skewed = CameraIntrinsics(f_x=37.5, f_y=41.25, c_x=15.3, c_y=17.9, width=32, height=32, gamma=0.7)
    for k in range(300):
        cam = (K, skewed)[k % 2]
        pose = Pose(R=random_rotation(rng), T=[*rng.uniform(-1.0, 1.0, 2), rng.uniform(2.0, 6.0)])
        X = rng.uniform(-1.0, 1.0, (8, 3))
        ref = []
        for x in X:  # one R @ x and one K @ x product per point
            h = cam.K @ (pose.R @ x + pose.T)
            ref.append(h[:2] / h[2])
        assert np.array_equal(project_points(cam, pose, X), np.array(ref))
        assert np.array_equal(project_point(cam, pose, X[3]), ref[3])
    pose = Pose(R=np.eye(3), T=[0.0, 0.0, 0.5])
    with pytest.raises(NonPositiveDepth, match="transformed depth -0.5"):
        project_points(K, pose, [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, -2.0]])


def _project_each(K, pose, axis_len):
    """The origin and the three axis endpoints, one project_point call each,
    or the message of the first NonPositiveDepth."""
    try:
        return np.stack([project_point(K, pose, X) for X in [np.zeros(3), *(axis_len * np.eye(3))]])
    except NonPositiveDepth as exc:
        return str(exc)


def test_project_triaxis_matches_project_point_exactly():
    rng = np.random.default_rng(4)
    skewed = CameraIntrinsics(f_x=37.5, f_y=41.25, c_x=15.3, c_y=17.9, width=32, height=32, gamma=0.7)
    behind = 0
    for k in range(1000):
        cam = (K, skewed)[k % 2]
        pose = Pose(R=random_rotation(rng), T=[*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 6.0)])
        axis_len = rng.uniform(0.2, 2.0)
        ref = _project_each(cam, pose, axis_len)
        if isinstance(ref, str):
            behind += 1
            with pytest.raises(NonPositiveDepth) as err:
                project_triaxis(cam, pose, axis_len)
            assert str(err.value) == ref
        else:
            assert np.array_equal(project_triaxis(cam, pose, axis_len), ref)
    assert 10 < behind < 500
    # axis-aligned rotations, whose products hold exact zeros, with no lateral translation
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            if np.linalg.det(R) < 0:
                continue
            for cam, depth, axis_len in itertools.product((K, skewed), (0.5, 4.0), (1.0, 0.8, 1e-3)):
                pose = Pose(R=R, T=[0.0, 0.0, depth])
                ref = _project_each(cam, pose, axis_len)
                if isinstance(ref, str):
                    with pytest.raises(NonPositiveDepth, match=ref):
                        project_triaxis(cam, pose, axis_len)
                else:
                    assert project_triaxis(cam, pose, axis_len).tobytes() == ref.tobytes()
    # the first point behind the camera is the one reported: the origin, then an endpoint
    for pose in (
        Pose(R=np.eye(3), T=[0.0, 0.0, -1.0]),
        Pose(R=rot_y(180.0), T=[0.1, 0.0, 0.5]),
    ):
        ref = _project_each(K, pose, 1.0)
        with pytest.raises(NonPositiveDepth, match=ref):
            project_triaxis(K, pose, 1.0)
    with pytest.raises(ValueError):
        project_triaxis(K, Pose(R=np.eye(3), T=[0.0, 0.0, 5.0]), 0.0)


def test_rotation_helpers_are_rotations():
    for R in (rot_x(33.0), rot_y(-70.0), rot_z(120.0)):
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(R), 1.0, abs_tol=1e-12)
    assert np.allclose(rot_z(90.0) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(rot_x(90.0) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


def test_random_rotation_uniform_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        R = random_rotation(rng)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(R), 1.0, abs_tol=1e-9)
