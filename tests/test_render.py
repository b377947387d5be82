import numpy as np
import pytest

from axisforge.camera import CameraIntrinsics, Pose, project_axes, project_point, rot_x, rot_y
from axisforge.render import (
    DegradationSpec,
    QueryImage,
    TriAxisImage,
    apply_degradation,
    atomic_write,
    load_f32,
    render_query,
    render_triaxis,
    save_f32,
    save_ppm,
)

K = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)
POSE = Pose(R=rot_x(25.0) @ rot_y(-40.0), T=np.array([0.2, -0.1, 5.0]))


def test_triaxis_shape_range_determinism():
    a = render_triaxis(K, POSE)
    b = render_triaxis(K, POSE)
    assert a.data.shape == (128, 128, 3)
    assert a.data.min() >= 0.0 and a.data.max() <= 1.0
    assert np.array_equal(a.data, b.data)


def test_triaxis_channels_lie_on_projected_segments():
    img = render_triaxis(K, POSE, thickness_px=2.0)
    lines = project_axes(K, POSE)
    origin = lines.origin_px
    for i in range(3):
        endpoint = project_point(K, POSE, np.eye(3)[i])
        ys, xs = np.nonzero(img.data[:, :, i] > 0.5)
        assert len(ys) > 0
        # every bright pixel is within the stroke width of the segment
        pts = np.stack([xs, ys], axis=1).astype(float)
        d = endpoint - origin
        t = np.clip((pts - origin) @ d / (d @ d), 0.0, 1.0)
        dist = np.linalg.norm(pts - (origin + t[:, None] * d), axis=1)
        assert dist.max() < 2.0


def test_triaxis_image_validation():
    with pytest.raises(ValueError):
        TriAxisImage(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        TriAxisImage(np.full((8, 8, 3), 2.0))


def test_query_image_shape_and_range():
    q = render_query(K, POSE)
    assert q.data.shape == (128, 128)
    assert q.data.min() >= 0.0 and q.data.max() <= 1.0
    assert q.data.max() > 0.1  # the cuboid is visible


def test_query_image_validation():
    with pytest.raises(ValueError):
        QueryImage(np.zeros((4, 4, 3)))


def test_degradation_spec_validation():
    with pytest.raises(ValueError):
        DegradationSpec(occlusion_frac=1.0)
    with pytest.raises(ValueError):
        DegradationSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        DegradationSpec(blur_radius=-1)


def test_degradation_occlusion_area_and_determinism():
    img = np.ones((64, 64))
    spec = DegradationSpec(occlusion_frac=0.25, seed=3)
    out = apply_degradation(img, spec)
    out2 = apply_degradation(img, spec)
    assert np.array_equal(out, out2)
    frac = float((out == 0).sum()) / img.size
    assert abs(frac - 0.25) < 0.05


def test_degradation_noise_and_clamp():
    img = np.full((32, 32), 0.5)
    out = apply_degradation(img, DegradationSpec(noise_sigma=0.2, seed=5))
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, img)


def test_degradation_blur_preserves_interior_mean():
    rng = np.random.default_rng(7)
    img = rng.uniform(0.2, 0.8, size=(32, 32))
    out = apply_degradation(img, DegradationSpec(blur_radius=1))
    assert abs(out[4:-4, 4:-4].mean() - img[4:-4, 4:-4].mean()) < 0.02


def test_f32_roundtrip(tmp_path):
    img = render_triaxis(K, POSE).data
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


def test_save_ppm_header_and_size(tmp_path):
    p = tmp_path / "img.ppm"
    save_ppm(p, np.zeros((8, 6)))
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n6 8\n255\n")
    assert len(raw) == len(b"P6\n6 8\n255\n") + 8 * 6 * 3
