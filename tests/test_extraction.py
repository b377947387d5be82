import math

import numpy as np
import pytest

from axisforge.camera import AxisObservation, project_axes
from axisforge.config import SamplingConfig, default_intrinsics
from axisforge.dataset import sample_pose
from axisforge.errors import DegenerateChannel, EmptyChannel, NoIntersection, VanishingMass
from axisforge.extraction import (
    MIN_HARD_PIXELS,
    _channel_sums,
    extract_axes_hard,
    extract_axes_soft,
    soft_extract_vjp,
    soft_weights,
)
from axisforge.render import render_triaxis

K = default_intrinsics(128)
SAMPLING = SamplingConfig(min_axis_px=10.0)


def _angle_deg(a, b):
    return math.degrees(math.acos(float(np.clip(a @ b, -1.0, 1.0))))


def test_hard_extraction_matches_forward_projection():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pose = sample_pose(rng, K, SAMPLING)
        img = render_triaxis(K, pose, thickness_px=2.0)
        lines = project_axes(K, pose)
        obs = extract_axes_hard(img[None]).record(0)
        assert np.linalg.norm(obs.origin_px - lines.origin_px) < 1.5
        for i in range(3):
            assert _angle_deg(obs.dir[i], lines.dir[i]) < 3.0


def test_hard_extraction_reads_float32_as_its_float64_widening():
    # infer extracts float32 dataset rows and float32 samples; their moments
    # summed in float32 would move the origin by about 1e-5 px
    pose = sample_pose(np.random.default_rng(3), K, SAMPLING)
    img = render_triaxis(K, pose, thickness_px=2.0).astype(np.float32)
    widened = extract_axes_hard(img.astype(float)[None]).record(0)
    assert extract_axes_hard(img[None]).record(0).to_flat() == widened.to_flat()


def test_hard_extraction_empty_channel():
    with pytest.raises(EmptyChannel):
        extract_axes_hard(np.zeros((1, 32, 32, 3))).record(0)


def test_hard_extraction_blob_is_degenerate():
    img = np.zeros((32, 32, 3))
    img[10:20, 10:20, :] = 1.0  # isotropic square in every channel
    with pytest.raises(DegenerateChannel):
        extract_axes_hard(img[None]).record(0)


def test_hard_extraction_of_a_batch_returns_each_images_error():
    # a clean render, a channel with too few pixels above threshold, a blob
    # channel, three parallel lines, and a blob channel before a sparse one:
    # each healthy row is that image extracted alone, and each failed row is
    # nan, with the error that the image's first failing channel gives
    clean = render_triaxis(K, sample_pose(np.random.default_rng(2), K, SAMPLING), thickness_px=2.0)
    sparse = clean.copy()
    sparse[..., 1] = 0.0
    sparse[60, 40 : 40 + MIN_HARD_PIXELS - 1, 1] = 1.0
    blob = clean.copy()
    blob[..., 2] = _blob_image(128)[..., 2]
    parallel = np.zeros_like(clean)
    for ch in range(3):
        parallel[30 * (ch + 1), 10:110, ch] = 1.0
    ordered = sparse.copy()
    ordered[..., 0] = _blob_image(128)[..., 0]
    images = np.stack([clean, sparse, blob, clean[::-1], parallel, ordered])
    obs = extract_axes_hard(images)
    expected = {
        1: (EmptyChannel, 1, "channel 1 is empty"),
        2: (DegenerateChannel, 2, "channel 2 is not line-like"),
        4: (NoIntersection, None, "axis lines are mutually parallel"),
        5: (DegenerateChannel, 0, "channel 0 is not line-like"),
    }
    for b in range(len(images)):
        if b in expected:
            kind, channel, message = expected[b]
            err = obs.errors[b]
            assert type(err) is kind and getattr(err, "channel", None) == channel and str(err) == message
            assert np.isnan(obs.origin_px[b]).all() and np.isnan(obs.dir[b]).all() and np.isnan(obs.centroid[b]).all()
        else:
            alone = extract_axes_hard(images[b : b + 1])
            assert alone.errors == [None] and obs.record(b).to_flat() == alone.record(0).to_flat()
    with pytest.raises(ValueError, match=r"\(128, 128, 3\)"):
        extract_axes_hard(clean)


def test_directions_point_toward_channel_mass():
    rng = np.random.default_rng(1)
    pose = sample_pose(rng, K, SAMPLING)
    img = render_triaxis(K, pose, thickness_px=2.0)
    obs = extract_axes_hard(img[None]).record(0)
    for i in range(3):
        ys, xs = np.nonzero(img[:, :, i] > 0.5)
        mean = np.array([xs.mean(), ys.mean()])
        assert float(obs.dir[i] @ (mean - obs.origin_px)) > 0


def test_soft_extraction_sharpness_validation():
    img = np.zeros((8, 8, 3))
    with pytest.raises(ValueError):
        extract_axes_soft(img[None], sharpness=0.0)
    with pytest.raises(ValueError):
        extract_axes_soft(img, 50.0)  # one image, not a batch


def test_observation_flat_roundtrip():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((3, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    obs = AxisObservation(origin_px=[1.0, 2.0], dir=d, centroid=[3.0, 4.0])
    flat = np.array(obs.to_flat())  # the layout the finite-difference checks read
    back = AxisObservation(origin_px=flat[:2], dir=flat[2:8], centroid=flat[8:])
    assert np.allclose(back.origin_px, obs.origin_px)
    assert np.allclose(back.dir, obs.dir)
    assert np.allclose(back.centroid, obs.centroid)


def test_observation_requires_unit_directions():
    with pytest.raises(ValueError):
        AxisObservation(origin_px=np.zeros(2), dir=np.ones((3, 2)), centroid=np.zeros(2))


def test_batch_observation_checks_every_row_that_is_not_nan():
    # the maximum over a nan row is nan, which once passed the check and hid a bad row beside it
    with pytest.raises(ValueError, match="unit vectors"):
        AxisObservation(origin_px=np.zeros(2), dir=[[np.nan, np.nan], [0.0, 2.0], [1.0, 0.0]], centroid=np.zeros(2))
    d = np.tile([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], (3, 1, 1))
    d[0] = np.nan  # a failed record's rows
    errors = [VanishingMass(1), None, None]
    obs = AxisObservation(origin_px=np.zeros((3, 2)), dir=d, centroid=np.zeros((3, 2)), errors=errors)
    with pytest.raises(VanishingMass):
        obs.record(0)
    assert np.array_equal(obs.record(2).dir, d[2])
    d[2, 1] = [0.0, 2.0]
    with pytest.raises(ValueError, match="unit vectors"):
        AxisObservation(origin_px=np.zeros((3, 2)), dir=d, centroid=np.zeros((3, 2)), errors=errors)


@pytest.mark.parametrize("size, thickness", [(32, 1.5), (128, 2.0)])
def test_projected_centroid_matches_hard_extraction(size, thickness):
    # the length-weighted centroid of the projected segments is where the
    # rendered ink's centroid lies; the origin is 1.6 px off in the median at 32 px
    cam = default_intrinsics(size)
    rng = np.random.default_rng(60000)
    gaps = []
    for _ in range(100):
        pose = sample_pose(rng, cam, SamplingConfig())
        try:
            obs = extract_axes_hard(render_triaxis(cam, pose, thickness_px=thickness)[None]).record(0)
        except (DegenerateChannel, EmptyChannel):
            continue
        gaps.append(float(np.linalg.norm(project_axes(cam, pose).centroid - obs.centroid)))
    assert len(gaps) > 90
    assert max(gaps) < 1.0


def _blob_image(size=32, stds=(3.0, 2.2)):
    """Three Gaussian blobs, one per channel, with moment eigen-ratio
    (std ratio squared) below the hard extraction's line-likeness floor."""
    vv, uu = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size, 3))
    for ch, (cu, cv, deg) in enumerate([(10.3, 12.2, 0.0), (20.6, 11.4, 60.0), (15.2, 21.7, 120.0)]):
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        du, dv = uu - cu, vv - cv
        img[:, :, ch] = np.exp(-0.5 * (((c * du + s * dv) / stds[0]) ** 2 + ((c * dv - s * du) / stds[1]) ** 2))
    return img


def _cotangent(rng):
    """A random observation cotangent, flat and as the adjoint's arrays
    (d_origin, d_dir, d_centroid) for a batch of one."""
    cot_vec = rng.standard_normal(10)
    adj = (cot_vec[:2].reshape(1, 2), cot_vec[2:8].reshape(1, 3, 2), cot_vec[8:].reshape(1, 2))
    return cot_vec, adj


def test_soft_extraction_is_graded_on_blobs():
    img = _blob_image()
    with pytest.raises(DegenerateChannel):
        extract_axes_hard(img[None]).record(0)
    rng = np.random.default_rng(5)
    cot_vec, adj = _cotangent(rng)

    def soft_flat(x):
        return np.array(extract_axes_soft(x[None], 50.0)[0].record(0).to_flat())

    grad = soft_extract_vjp(extract_axes_soft(img[None], 50.0)[3], *adj)[0]
    assert np.all(np.isfinite(soft_flat(img)))
    h = 1e-4
    for _ in range(5):
        v = rng.standard_normal(img.shape)
        v /= np.linalg.norm(v)
        sp = float(cot_vec @ soft_flat(img + h * v))
        sm = float(cot_vec @ soft_flat(img - h * v))
        fd = (sp - sm) / (2 * h)
        an = float((grad * v).sum())
        assert abs(an - fd) < 1e-4 * max(1.0, abs(fd))


def test_soft_extraction_accepts_isotropic_channel():
    img = _blob_image()
    vv, uu = np.mgrid[0:32, 0:32].astype(float)
    img[:, :, 0] = np.exp(-0.5 * ((uu - 10.0) ** 2 + (vv - 12.0) ** 2) / 2.5**2)  # round, on a pixel
    with pytest.raises(DegenerateChannel):
        extract_axes_hard(img[None]).record(0)
    obs, aniso, _, state = extract_axes_soft(img[None], 50.0)
    assert np.all(np.isfinite(np.array(obs.record(0).to_flat())))
    assert aniso[0, 0] < 1e-20 and np.all(aniso[0, 1:] > 0.05)
    adj = _cotangent(np.random.default_rng(6))[1]
    assert np.all(np.isfinite(soft_extract_vjp(state, *adj, None, np.ones((1, 3)))))


def test_soft_extraction_cost_map_and_anisotropy_adjoint():
    rng = np.random.default_rng(7)
    img = _blob_image()
    cost = 20.0 * rng.random(img.shape)
    cot_vec, adj = _cotangent(rng)
    cost_cot, aniso_cot = rng.standard_normal((2, 3))

    def objective(x):
        obs, aniso, costs, _ = extract_axes_soft(x[None], 5.0, cost[None])
        return float(cot_vec @ np.array(obs.record(0).to_flat()) + cost_cot @ costs[0] + aniso_cot @ aniso[0])

    state = extract_axes_soft(img[None], 5.0, cost[None])[3]
    grad = soft_extract_vjp(state, *adj, cost_cot[None], aniso_cot[None])[0]
    h = 1e-5
    for _ in range(5):
        v = rng.standard_normal(img.shape)
        v /= np.linalg.norm(v)
        fd = (objective(img + h * v) - objective(img - h * v)) / (2 * h)
        assert abs(float((grad * v).sum()) - fd) < 1e-4 * max(1.0, abs(fd))


def test_batched_pullback_matches_each_records_finite_differences():
    # three records in one batch, the middle one without mass: each row's
    # gradient is the derivative of that record's own objective, extracted
    # alone, so an adjoint that mixed records would fail here
    rng = np.random.default_rng(12)
    images = np.stack([_blob_image(), np.zeros((32, 32, 3)), _blob_image(stds=(4.0, 1.5))[::-1]])
    cost = 20.0 * rng.random(images.shape)
    cot_vecs = rng.standard_normal((3, 10))
    adj = (cot_vecs[:, :2], cot_vecs[:, 2:8].reshape(3, 3, 2), cot_vecs[:, 8:])
    cost_cot, aniso_cot = rng.standard_normal((2, 3, 3))
    grads = soft_extract_vjp(extract_axes_soft(images, 5.0, cost)[3], *adj, cost_cot, aniso_cot)

    def objective(b, x):
        obs, aniso, costs, _ = extract_axes_soft(x[None], 5.0, cost[b][None])
        flat = np.array(obs.record(0).to_flat())
        return float(cot_vecs[b] @ flat + cost_cot[b] @ costs[0] + aniso_cot[b] @ aniso[0])

    assert np.all(grads[1] == 0.0)
    h = 1e-5
    for b in (0, 2):
        for _ in range(5):
            v = rng.standard_normal(images.shape[1:])
            v /= np.linalg.norm(v)
            fd = (objective(b, images[b] + h * v) - objective(b, images[b] - h * v)) / (2 * h)
            assert abs(float((grads[b] * v).sum()) - fd) < 1e-4 * max(1.0, abs(fd))


def test_soft_weights_limits():
    x = np.linspace(-0.2, 1.2, 15)
    w, dw = soft_weights(x, 1e-6)
    assert np.allclose(w, x, atol=1e-9) and np.allclose(dw, 1.0, atol=1e-9)  # intensity itself
    w, _ = soft_weights(x, 500.0)
    assert np.array_equal(w[x < 0.45] > 1e-9, np.zeros(np.sum(x < 0.45), bool))  # hard threshold
    assert np.allclose(w[x > 0.55], 1.0)
    w, _ = soft_weights(np.array([0.0, 1.0]), 50.0)
    assert np.allclose(w, [0.0, 1.0], atol=1e-15)


def test_soft_weights_is_the_closed_form_bit_for_bit():
    # evaluated in place, operation by operation, the weights keep the
    # rounding of the closed forms. They keep the image's dtype: in float32
    # they are the closed forms with Python-float scalars, even when the
    # sharpness comes as a NumPy float64, which would promote the image
    for dtype in (np.float64, np.float32):
        x = np.random.default_rng(8).uniform(-0.3, 1.3, (2, 8, 8, 3)).astype(dtype)
        for sharpness in (1e-6, 0.3, 5.0, 50.0, 500.0):
            half_span = math.tanh(sharpness / 4.0)
            th = np.tanh(0.5 * sharpness * (x - 0.5))
            for given in (sharpness, np.float64(sharpness)):
                w, dw = soft_weights(x, given)
                assert w.dtype == dw.dtype == dtype
                assert np.array_equal(w, (th + half_span) / (2.0 * half_span))
                assert np.array_equal(dw, (sharpness / (4.0 * half_span)) * (1.0 - th * th))


def test_channel_sums_keep_the_pixel_order():
    rng = np.random.default_rng(10)
    w, x = rng.random((2, 3, 16, 16, 3))
    assert np.array_equal(_channel_sums(w, x), (w * x).sum(axis=(1, 2)))


def test_soft_extraction_and_pullback_leave_their_inputs_unchanged():
    rng = np.random.default_rng(9)
    images = np.stack([_blob_image(), _blob_image(stds=(4.0, 1.5)), np.zeros((32, 32, 3))])  # the last has no mass
    cost = 20.0 * rng.random(images.shape)
    adj = (rng.standard_normal((3, 2)), rng.standard_normal((3, 3, 2)), rng.standard_normal((3, 2)))
    cost_cot, aniso_cot = rng.standard_normal((2, 3, 3))
    inputs = (images, cost, *adj, cost_cot, aniso_cot)
    copies = [a.copy() for a in inputs]
    obs, _, _, state = extract_axes_soft(images, 5.0, cost)
    assert obs.errors[:2] == [None, None] and isinstance(obs.errors[2], VanishingMass)
    for cots in ((), (cost_cot,), (None, aniso_cot), (cost_cot, aniso_cot)):
        first = soft_extract_vjp(state, *adj, *cots)
        kept = first.copy()
        second = soft_extract_vjp(state, *adj, *cots)
        # each call returns a new array that the next call leaves alone
        assert np.array_equal(second, first) and np.array_equal(first, kept)
        assert not any(np.shares_memory(first, a) for a in (second, *inputs))
        assert np.any(first[:2]) and not np.any(first[2])
    for a, c in zip(inputs, copies):
        assert np.array_equal(a, c)
