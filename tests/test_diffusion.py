import math

import numpy as np
import pytest

from axisforge.dataset import SamplingConfig, default_intrinsics, sample_pose
from axisforge.diffusion import (
    GaussianScoreField,
    GuidanceBatch,
    GuidanceConfig,
    ddim_step,
    forward_diffuse,
    gaussian_denoiser,
    gaussian_optimal_timesteps,
    geo_guidance_gradient_batch,
    geo_image_gradient,
    geo_loss,
    geo_loss_adjoint,
    guidance_sharpness,
    make_schedule,
    predict_x0,
    ray_distance_map,
    sample,
    sample_batch,
    uniform_timesteps,
)
from axisforge.errors import InvalidSchedule, NoIntersection, VanishingMass
from axisforge.extraction import (
    AxisObservation,
    ObservationAdjoint,
    ObservationBatch,
    extract_axes_hard,
    soft_extract_with_pullback,
)
from axisforge.render import render_triaxis


def test_make_schedule_properties():
    sched = make_schedule(100, 1e-4, 0.05)
    assert sched.T == 100
    assert np.allclose(sched.alpha_bar, np.cumprod(1.0 - sched.zeta))
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert sched.abar(0) == 1.0
    assert sched.abar(100) == sched.alpha_bar[-1]


def test_make_schedule_validation():
    with pytest.raises(InvalidSchedule):
        make_schedule(0, 1e-4, 0.05)
    with pytest.raises(InvalidSchedule):
        make_schedule(10, 0.05, 1e-4)  # decreasing
    with pytest.raises(InvalidSchedule):
        make_schedule(10, 0.0, 0.05)


def test_forward_diffuse_marginal_identity():
    sched = make_schedule(50, 1e-3, 0.1)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0, 1, size=(8, 8, 3))
    x_t, eps = forward_diffuse(x0, 20, sched, rng)
    ab = sched.abar(20)
    assert np.allclose(x_t, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, atol=1e-14)
    # predicting x0 from the true noise inverts the marginal exactly
    assert np.allclose(predict_x0(x_t, 20, eps, sched), x0, atol=1e-12)


def test_ddim_step_exact_with_true_noise():
    sched = make_schedule(50, 1e-3, 0.1)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(0, 1, size=(4, 4, 3))
    x_t, eps = forward_diffuse(x0, 50, sched, rng)
    # stepping to t=0 with the true noise recovers x0 exactly
    out = ddim_step(x_t, 50, eps, sched, t_prev=0)
    assert np.allclose(out, x0, atol=1e-12)
    # stepping to an intermediate level reproduces the marginal mixing
    mid = ddim_step(x_t, 50, eps, sched, t_prev=25)
    ab = sched.abar(25)
    assert np.allclose(mid, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, atol=1e-12)


def test_gaussian_denoiser_matches_score():
    sched = make_schedule(100, 1e-4, 0.05)
    rng = np.random.default_rng(2)
    fld = GaussianScoreField(mean=rng.standard_normal(5), var=np.full(5, 0.3))
    den = gaussian_denoiser(fld, sched)
    x = rng.standard_normal(5)
    t = 60
    ab = sched.abar(t)
    marg_var = ab * fld.var + (1 - ab)
    score = -(x - np.sqrt(ab) * fld.mean) / marg_var
    assert np.allclose(den.evaluate(x, t), -np.sqrt(1 - ab) * score, atol=1e-14)


def test_gaussian_denoiser_vjp_finite_differences():
    sched = make_schedule(100, 1e-4, 0.05)
    rng = np.random.default_rng(3)
    den = gaussian_denoiser(
        GaussianScoreField(mean=rng.standard_normal(4), var=np.full(4, 0.5)), sched
    )
    x = rng.standard_normal(4)
    cot = rng.standard_normal(4)
    grad = den.vjp(x, 50, None, cot)
    h = 1e-6
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = h
        fd = float(cot @ (den.evaluate(x + dx, 50) - den.evaluate(x - dx, 50))) / (2 * h)
        assert abs(float(grad[k]) - fd) < 1e-7 * max(1.0, abs(fd))


def test_timestep_subsets():
    sched = make_schedule(100, 1e-4, 0.05)
    for ts in (uniform_timesteps(sched, 10), gaussian_optimal_timesteps(sched, 10, 0.25)):
        assert ts[-1] == 1
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert all(1 <= t <= 100 for t in ts)
    with pytest.raises(ValueError):
        uniform_timesteps(sched, 0)
    with pytest.raises(ValueError):
        uniform_timesteps(sched, 101)


def test_geo_loss_and_adjoint():
    rng = np.random.default_rng(4)
    K = default_intrinsics(32)
    pose = sample_pose(rng, K, SamplingConfig(min_axis_px=6.0))
    obs = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5))
    assert geo_loss(obs, obs) == 0.0
    adj = geo_loss_adjoint(obs, obs)
    assert np.allclose(adj.dir, 0.0)
    assert np.allclose(adj.centroid, 0.0)


def _near_isotropic_image(eps, size=32):
    """Two elongated channels over a 0.02 floor, and in channel 0 a round
    blob stretched along the diagonal by a relative eps, so that its
    second-moment eigen-ratio is 1 + O(eps)."""
    vv, uu = np.mgrid[0:size, 0:size].astype(float)
    img = np.full((size, size, 3), 0.02)
    for ch, (cu, cv, deg) in ((1, (20.6, 11.4, 60.0)), (2, (15.2, 21.7, 120.0))):
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        du, dv = uu - cu, vv - cv
        img[:, :, ch] += 0.9 * np.exp(-0.5 * (((c * du + s * dv) / 6.0) ** 2 + ((c * dv - s * du) / 1.5) ** 2))
    du, dv = uu - 10.0, vv - 12.0
    img[:, :, 0] += 0.9 * np.exp(-0.5 * (du * du + dv * dv) / 9.0) * (1.0 + eps * du * dv / 9.0)
    return img


def test_guidance_gradient_bounded_near_isotropy():
    target = ObservationBatch.stack([
        AxisObservation(origin_px=[14.0, 15.0], dir=[[-0.6, -0.8], [1.0, 0.0], [0.0, 1.0]], centroid=[15.0, 15.0])
    ])
    turn = ObservationAdjoint(origin_px=np.zeros((1, 2)), dir=[[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]], centroid=np.zeros(2))
    raw, weighted = [], []
    for eps in (1e-2, 1e-4, 1e-6):
        x0 = _near_isotropic_image(eps)[None]
        _, aniso, _, pullback = soft_extract_with_pullback(x0, 50.0)
        raw.append(np.linalg.norm(pullback(turn)))
        weighted.append(np.linalg.norm(geo_image_gradient(x0, target, 50.0)[1]))
    assert aniso[0, 0] < 1e-10 and np.all(aniso[0, 1:] > 0.5)
    # the bare direction's adjoint grows like 1 / (lam_max - lam_min) ...
    assert raw[2] > 1e3 * raw[0]
    # ... while the anisotropy-weighted guidance loss keeps its gradient bounded
    assert max(weighted) < 1.1 * min(weighted)
    _, grad, errors = geo_image_gradient(x0, target, 50.0)
    assert errors == [None]
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        v = rng.standard_normal(x0.shape[1:])
        v /= np.linalg.norm(v)
        fd = (geo_image_gradient(x0 + h * v, target, 50.0)[0] - geo_image_gradient(x0 - h * v, target, 50.0)[0])[0] / (2 * h)
        assert abs(float((grad * v).sum()) - fd) < 1e-4 * max(1.0, abs(fd))


def test_guidance_config_validation():
    rng = np.random.default_rng(5)
    K = default_intrinsics(32)
    pose = sample_pose(rng, K, SamplingConfig(min_axis_px=6.0))
    obs = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5))
    with pytest.raises(ValueError):
        GuidanceConfig(target=obs, rho=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(target=obs, sharpness=0.0)


def test_guidance_gradient_finite_differences():
    rng = np.random.default_rng(6)
    K = default_intrinsics(32)
    pose = sample_pose(rng, K, SamplingConfig(min_axis_px=5.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5).data
    sched = make_schedule(200, 1e-4, 0.05)
    den = gaussian_denoiser(GaussianScoreField(mean=x0, var=np.full(x0.shape, 0.25)), sched)
    target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5))
    guidance = GuidanceBatch([GuidanceConfig(target=target, sharpness=50.0)], x0.shape[:2])

    def loss_grad(x):
        """Loss, gradient and soft-extraction error of x as a batch of one."""
        _, losses, grads, errors = geo_guidance_gradient_batch(x[None], 100, den, None, guidance, sched)
        return losses[0], grads[0], errors[0]

    # retry noise draws until the soft extraction of the clean-image
    # prediction is well posed (a blob-like draw has no gradient to check)
    for _ in range(20):
        x_t, _ = forward_diffuse(x0, 100, sched, rng)
        _, grad, error = loss_grad(x_t)
        if error is None:
            break
    else:
        pytest.fail("no well-posed noise draw found")
    flat = grad.ravel()
    h = 1e-3
    for j in rng.choice(flat.size, size=10, replace=False):
        dx = np.zeros(flat.size)
        dx[j] = h
        dx = dx.reshape(grad.shape)
        fd = (loss_grad(x_t + dx)[0] - loss_grad(x_t - dx)[0]) / (2 * h)
        an = float(flat[j])
        if abs(an) < 1e-9 and abs(fd) < 1e-9:
            continue
        assert abs(an - fd) / max(abs(an), abs(fd), 1e-9) < 1e-3


def test_sample_converges_to_analytic_mean():
    rng = np.random.default_rng(8)
    K = default_intrinsics(16)
    pose = sample_pose(rng, K, SamplingConfig(depth_min=2.5, depth_max=3.5, lateral=0.2, min_axis_px=3.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5).data
    sched = make_schedule(200, 1e-4, 0.05)
    den = gaussian_denoiser(GaussianScoreField(mean=x0, var=np.full(x0.shape, 1e-4)), sched)
    res = sample(den, None, None, sched, steps=50, rng=rng, shape=(16, 16))
    assert float(np.mean(np.abs(res.image.data - x0))) < 0.05


def test_sample_timestep_validation():
    sched = make_schedule(100, 1e-4, 0.05)
    den = gaussian_denoiser(GaussianScoreField(mean=np.zeros((4, 4, 3)), var=np.full((4, 4, 3), 0.1)), sched)
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        sample(den, None, None, sched, steps=[50, 20], rng=rng, shape=(4, 4))  # does not end at 1
    with pytest.raises(ValueError):
        sample(den, None, None, sched, steps=[200, 1], rng=rng, shape=(4, 4))  # beyond T


def _guided_case(seed, size=16):
    rng = np.random.default_rng(seed)
    K = default_intrinsics(size)
    pose = sample_pose(rng, K, SamplingConfig(depth_min=2.0, depth_max=2.8, lateral=0.2, min_axis_px=5.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5)
    return x0.data, GuidanceConfig(target=extract_axes_hard(x0), rho=10.0)


def test_sample_batch_matches_single_samples():
    from axisforge.denoiser import ArchConfig, MLPDenoiser

    sched = make_schedule(50, 1e-3, 0.05)
    cases = [_guided_case(s) for s in (1, 2, 3)]
    guidances = [cases[0][1], None, cases[2][1]]  # a batch may mix guided and unguided records
    # the analytic field is elementwise, so batching changes no arithmetic
    means = np.stack([x0 for x0, _ in cases])
    batched = sample_batch(
        gaussian_denoiser(GaussianScoreField(mean=means, var=np.full(means.shape, 0.01)), sched),
        [None] * 3, guidances, sched, steps=10,
        rngs=[np.random.default_rng(10 + b) for b in range(3)], shape=(16, 16),
    )
    for b, (x0, _) in enumerate(cases):
        den = gaussian_denoiser(GaussianScoreField(mean=x0, var=np.full(x0.shape, 0.01)), sched)
        single = sample(den, None, guidances[b], sched, steps=10, rng=np.random.default_rng(10 + b), shape=(16, 16))
        assert np.array_equal(batched[b].image.data, single.image.data)
        assert batched[b].log == single.log
    # a matrix product may round differently for a batch than for one row
    mlp = MLPDenoiser(
        ArchConfig(image_size=16, hidden=32, time_embed_dim=8), sched, np.random.default_rng(4), 0.15, np.float64
    )
    conds = [np.random.default_rng(20 + b).random((16, 16)) for b in range(3)]
    batched = sample_batch(mlp, conds, guidances, sched, 10, [np.random.default_rng(b) for b in range(3)], (16, 16))
    for b in range(3):
        single = sample(mlp, conds[b], guidances[b], sched, 10, np.random.default_rng(b), (16, 16))
        assert np.allclose(batched[b].image.data, single.image.data, rtol=0.0, atol=1e-9)


def test_batched_guidance_gradient_finite_differences():
    from axisforge.denoiser import ArchConfig, MLPDenoiser

    sched = make_schedule(50, 1e-3, 0.05)
    guidances = [_guided_case(1)[1], None, _guided_case(3)[1]]
    batch = GuidanceBatch(guidances, (16, 16))
    mlp = MLPDenoiser(
        ArchConfig(image_size=16, hidden=32, time_embed_dim=8), sched, np.random.default_rng(4), 0.15, np.float64
    )
    rng = np.random.default_rng(12)
    cond = rng.random((3, 16, 16))
    x_t = rng.standard_normal((3, 16, 16, 3))
    t = 20
    eps, losses, grads, errors = geo_guidance_gradient_batch(x_t, t, mlp, cond, batch, sched)
    assert errors == [None] * 3
    assert np.array_equal(eps, mlp.evaluate(x_t, t, cond))
    assert np.isnan(losses[1]) and not np.any(grads[1])
    for b in (0, 2):  # a batch of one gives the matching row of the larger batch
        one = GuidanceBatch([guidances[b]], (16, 16))
        _, one_losses, one_grads, _ = geo_guidance_gradient_batch(x_t[b : b + 1], t, mlp, cond[b : b + 1], one, sched)
        assert np.isclose(one_losses[0], losses[b], rtol=1e-12)
        assert np.allclose(one_grads[0], grads[b], rtol=0.0, atol=1e-9)
    h = 1e-5
    for b in (0, 2):
        for j in rng.choice(16 * 16 * 3, size=8, replace=False):
            dx = np.zeros(x_t.shape)
            dx[b].flat[j] = h
            lp = geo_guidance_gradient_batch(x_t + dx, t, mlp, cond, batch, sched)[1][b]
            lm = geo_guidance_gradient_batch(x_t - dx, t, mlp, cond, batch, sched)[1][b]
            fd = (lp - lm) / (2 * h)
            an = float(grads[b].flat[j])
            if abs(an) < 1e-9 and abs(fd) < 1e-9:
                continue  # clamp-masked pixel
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-9) < 1e-3


def test_batched_guidance_isolates_failed_and_unguided_records():
    sched = make_schedule(50, 1e-3, 0.05)
    x0, guidance = _guided_case(1)
    massless = x0.copy()
    massless[..., 1] = 0.0  # VanishingMass in channel 1
    parallel = np.repeat(x0[..., :1], 3, axis=-1)  # three copies of one axis: NoIntersection
    means = np.stack([x0, massless, parallel, x0])
    guidances = [guidance, guidance, guidance, None]
    den = gaussian_denoiser(GaussianScoreField(mean=means, var=np.full(means.shape, 1e-4)), sched)
    x_t = np.random.default_rng(3).standard_normal(means.shape)
    t = 10
    stacked = GuidanceBatch(guidances, x0.shape[:2])
    eps, losses, grads, errors = geo_guidance_gradient_batch(x_t, t, den, None, stacked, sched)
    # the healthy record matches its batch of one bit for bit (the analytic
    # denoiser is elementwise, so batching changes no arithmetic)
    x0_hat = predict_x0(x_t, t, eps, sched)
    sharpness = guidance_sharpness(guidance.sharpness, t, sched)
    one_losses, one_grads, _ = geo_image_gradient(x0_hat[:1], ObservationBatch.stack([guidance.target]), sharpness)
    img_losses, img_grads, img_errors = geo_image_gradient(
        x0_hat[:3], ObservationBatch.stack([guidance.target] * 3), sharpness
    )
    assert img_losses[0] == one_losses[0] and np.array_equal(img_grads[0], one_grads[0])
    one_den = gaussian_denoiser(GaussianScoreField(mean=x0, var=np.full(x0.shape, 1e-4)), sched)
    one = GuidanceBatch([guidance], x0.shape[:2])
    _, one_losses, one_grads, _ = geo_guidance_gradient_batch(x_t[:1], t, one_den, None, one, sched)
    assert losses[0] == one_losses[0] and np.array_equal(grads[0], one_grads[0])
    # failed records: loss nan, gradient 0, their own exception
    assert isinstance(errors[1], VanishingMass) and errors[1].channel == 1
    assert isinstance(errors[2], NoIntersection)
    assert [type(e) for e in img_errors] == [type(None), VanishingMass, NoIntersection]
    assert errors[0] is None and errors[3] is None
    assert np.isnan(losses[1:]).all() and not np.any(grads[1:])
    assert np.isnan(img_losses[1:]).all() and not np.any(img_grads[1:])
    # guidance stacked once for a chain, ray maps included, gives what a
    # fresh build gives at every step
    for step in (30, 10):
        fresh = geo_guidance_gradient_batch(x_t, step, den, None, GuidanceBatch(guidances, x0.shape[:2]), sched)
        reused = geo_guidance_gradient_batch(x_t, step, den, None, stacked, sched)
        assert np.array_equal(fresh[1], reused[1], equal_nan=True)
        assert np.array_equal(fresh[2], reused[2])
        assert [type(e) for e in fresh[3]] == [type(e) for e in reused[3]]


def test_skipped_guidance_step_records_reason():
    sched = make_schedule(50, 1e-3, 0.05)
    _, guidance = _guided_case(1)
    blank = np.zeros((16, 16, 3))  # no soft mass anywhere
    den = gaussian_denoiser(GaussianScoreField(mean=blank, var=np.full(blank.shape, 1e-4)), sched)
    res = sample(den, None, guidance, sched, steps=10, rng=np.random.default_rng(0), shape=(16, 16))
    assert res.skipped_steps > 0
    assert {r["skip_reason"] for r in res.log if r["skipped"]} == {"VanishingMass"}
    assert all("skip_reason" not in r for r in res.log if not r["skipped"])


def test_ray_distance_map():
    target = AxisObservation(origin_px=[4.0, 5.0], dir=[[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]], centroid=[5.0, 5.0])
    rays = ray_distance_map(target, (12, 10))
    assert rays.shape == (12, 10, 3)
    assert rays[5, 9, 0] == 0.0 and rays[11, 4, 1] == 0.0  # on the rays
    assert rays[5, 0, 0] == 16.0  # behind the origin: distance to the origin itself
    assert rays[8, 6, 0] == 9.0  # beside the ray: perpendicular distance
    assert np.isclose(rays[9, 1, 2], 0.0)  # (4, 5) + 5 * (-0.6, 0.8)
