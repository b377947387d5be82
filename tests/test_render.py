import errno
import io

import numpy as np
import pytest

from axisforge import render
from axisforge.camera import Pose, project_axes, project_point, random_rotation, rot_x, rot_y
from axisforge.config import CameraIntrinsics, DegradationSpec
from axisforge.errors import NonPositiveDepth
from axisforge.render import (
    _AMBIENT,
    _LIGHT,
    _fill_convex_quad,
    _pixel_grid,
    apply_degradation,
    atomic_write,
    load_f32,
    render_query,
    render_triaxis,
    save_f32,
)

K = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)
POSE = Pose(R=rot_x(25.0) @ rot_y(-40.0), T=np.array([0.2, -0.1, 5.0]))


def test_triaxis_shape_range_determinism():
    a = render_triaxis(K, POSE)
    b = render_triaxis(K, POSE)
    assert a.shape == (128, 128, 3) and a.dtype == np.float64
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert np.array_equal(a, b)


def test_triaxis_channels_lie_on_projected_segments():
    img = render_triaxis(K, POSE, thickness_px=2.0)
    lines = project_axes(K, POSE)
    origin = lines.origin_px
    for i in range(3):
        endpoint = project_point(K, POSE, np.eye(3)[i])
        ys, xs = np.nonzero(img[:, :, i] > 0.5)
        assert len(ys) > 0
        # every bright pixel is within the stroke width of the segment
        pts = np.stack([xs, ys], axis=1).astype(float)
        d = endpoint - origin
        t = np.clip((pts - origin) @ d / (d @ d), 0.0, 1.0)
        dist = np.linalg.norm(pts - (origin + t[:, None] * d), axis=1)
        assert dist.max() < 2.0


def test_query_image_shape_and_range():
    q = render_query(K, POSE)
    assert q.shape == (128, 128) and q.dtype == np.float64
    assert q.min() >= 0.0 and q.max() <= 1.0
    assert q.max() > 0.1  # the cuboid is visible


def _fill_convex_quad_per_edge(img, quad, value):
    """The quad fill as one pass per edge, the form the broadcast over the
    four edges must reproduce bit for bit."""
    h, w = img.shape
    area2 = 0.0
    for k in range(4):
        p, q = quad[k], quad[(k + 1) % 4]
        area2 += p[0] * q[1] - q[0] * p[1]
    if abs(area2) < 1e-12:
        return
    orient = np.sign(area2)
    vv, uu = np.mgrid[0:h, 0:w].astype(float)
    inside = np.full((h, w), -np.inf)
    for k in range(4):
        p, q = quad[k], quad[(k + 1) % 4]
        e = q - p
        n = np.linalg.norm(e)
        if n < 1e-12:
            continue
        d = (orient * ((uu - p[0]) * e[1] - (vv - p[1]) * e[0])) / n
        inside = np.maximum(inside, d)
    cover = np.clip(0.5 - inside, 0.0, 1.0)
    np.copyto(img, value * cover + img * (1 - cover))


def test_fill_convex_quad_matches_per_edge_passes():
    rng = np.random.default_rng(9)
    a, b, c = rng.uniform(2.0, 20.0, (3, 2))
    quads = [
        np.array([a, a, b, c]),  # a zero-length edge: a triangle
        np.array([a, b, b, c]),
        np.array([a, a, a, a]),  # zero area
        np.array([a, b, a, b]),  # zero area, nonzero edges
        np.array([a, b, 2 * b - a, 3 * b - 2 * a]),  # collinear
    ]
    for _ in range(200):
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, 4))[:: rng.choice([-1, 1])]  # either winding
        radius = rng.uniform(0.5, 15.0)
        quads.append(rng.uniform(0.0, 24.0, 2) + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    quads += list(rng.uniform(-5.0, 30.0, (50, 4, 2)))  # arbitrary, also non-convex
    painted = 0
    for quad in quads:
        base = rng.uniform(0.0, 1.0, (20, 28))
        img, ref = base.copy(), base.copy()
        value = rng.uniform(0.0, 1.0)
        _fill_convex_quad(img, quad, value)
        _fill_convex_quad_per_edge(ref, quad, value)
        assert np.array_equal(img, ref)
        painted += not np.array_equal(img, base)
    assert painted >= 200  # the zero-area quads paint nothing


def _face_corners(axis, sign, hx):
    a, b = (axis + 1) % 3, (axis + 2) % 3
    out = np.zeros((4, 3))
    for k, (sa, sb) in enumerate(((-1, -1), (1, -1), (1, 1), (-1, 1))):
        out[k, axis] = sign * hx
        out[k, a] = sa * hx
        out[k, b] = sb * hx
    return out


def _render_query_per_face(K, pose):
    """render_query projecting the four corners of each face and filling
    each quad one edge at a time, the form it must reproduce bit for bit."""
    corners_obj = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    if (corners_obj @ pose.R.T + pose.T)[:, 2].min() <= 1e-9:
        raise NonPositiveDepth("cuboid is not fully in front of the camera")
    faces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            pts = _face_corners(axis, sign, 1.0)
            cam = pts @ pose.R.T + pose.T
            quad = np.stack([project_point(K, pose, p) for p in pts])
            shade = _AMBIENT + (1 - _AMBIENT) * max(0.0, float((pose.R[:, axis] * sign) @ (-_LIGHT)))
            faces.append((float(cam[:, 2].mean()), quad, shade))
    img = np.zeros((K.height, K.width))
    for _, quad, shade in sorted(faces, key=lambda f: -f[0]):
        _fill_convex_quad_per_edge(img, quad, shade)
    return np.clip(img, 0.0, 1.0)


def test_render_query_matches_per_face_projection():
    rng = np.random.default_rng(10)
    cams = [
        CameraIntrinsics(f_x=25.0, f_y=25.0, c_x=16.0, c_y=16.0, width=32, height=32),
        CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=112, height=96),
        CameraIntrinsics(f_x=25.0, f_y=25.0, c_x=16.0, c_y=16.0, width=40, height=24),
    ]
    for k in range(150):
        pose = Pose(R=random_rotation(rng), T=[*rng.uniform(-0.5, 0.5, 2), rng.uniform(3.0, 6.0)])
        cam = cams[k % 3]
        q = render_query(cam, pose)
        assert q.shape == (cam.height, cam.width) and q.min() >= 0.0 and q.max() <= 1.0
        assert np.array_equal(q, _render_query_per_face(cam, pose))


def test_pixel_grid_is_the_mgrid():
    vv, uu = np.mgrid[0:20, 0:28].astype(float)
    assert np.array_equal(_pixel_grid(20, 28), np.stack([uu, vv], axis=-1))


def test_degradation_spec_validation():
    with pytest.raises(ValueError):
        DegradationSpec(occlusion_frac=1.0)
    with pytest.raises(ValueError):
        DegradationSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        DegradationSpec(blur_radius=-1)


def test_degradation_occlusion_area_and_determinism():
    img = np.ones((64, 64))
    spec = DegradationSpec(occlusion_frac=0.25)
    out = apply_degradation(img, spec, 3)
    out2 = apply_degradation(img, spec, 3)
    assert np.array_equal(out, out2)
    frac = float((out == 0).sum()) / img.size
    assert abs(frac - 0.25) < 0.05


def test_degradation_noise_and_clamp():
    img = np.full((32, 32), 0.5)
    out = apply_degradation(img, DegradationSpec(noise_sigma=0.2), 5)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, img)


def test_degradation_blur_preserves_interior_mean():
    rng = np.random.default_rng(7)
    img = rng.uniform(0.2, 0.8, size=(32, 32))
    out = apply_degradation(img, DegradationSpec(blur_radius=1), 0)
    assert abs(out[4:-4, 4:-4].mean() - img[4:-4, 4:-4].mean()) < 0.02


def test_f32_roundtrip(tmp_path):
    img = render_triaxis(K, POSE)
    p = tmp_path / "img.f32"
    save_f32(p, img)
    back = load_f32(p, img.shape)
    assert np.allclose(back, img, atol=1e-7)
    with pytest.raises(ValueError):
        load_f32(p, (4, 4, 3))


def test_atomic_write_keeps_old_file_on_error(tmp_path):
    p = tmp_path / "doc.json"
    with atomic_write(p) as f:
        f.write("old")
    with pytest.raises(RuntimeError):
        with atomic_write(p) as f:
            f.write("new, half written")
            raise RuntimeError("interrupted")
    assert p.read_text() == "old"
    assert list(tmp_path.iterdir()) == [p]  # the temporary file is gone
    with atomic_write(p, "wb") as f:
        f.write(b"new")
    assert p.read_bytes() == b"new"


def test_failed_save_f32_keeps_old_file(tmp_path, monkeypatch):
    p = tmp_path / "img.f32"
    save_f32(p, np.ones(256))

    class DiskFull(io.FileIO):
        """A file whose write stores a few bytes, then finds the disk full."""

        def write(self, data):
            super().write(bytes(data)[:16])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(render, "open", DiskFull, raising=False)
    with pytest.raises(OSError):
        save_f32(p, np.zeros(256))
    assert list(tmp_path.iterdir()) == [p]  # the temporary file is gone
    assert np.array_equal(load_f32(p, (256,)), np.ones(256))
