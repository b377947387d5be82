import math

import numpy as np
import pytest

from axisforge.camera import AxisObservation
from axisforge.config import ArchConfig, GuidanceParams, OptConfig, SamplingConfig, default_intrinsics
from axisforge.dataset import sample_pose
from axisforge.diffusion import (
    DenoiserInterface,
    GaussianDenoiser,
    ddim_step,
    forward_diffuse,
    gaussian_optimal_timesteps,
    geo_image_gradient,
    geo_loss,
    guided_x0_batch,
    make_schedule,
    ray_distance_map,
    sample,
    uniform_timesteps,
)
from axisforge.errors import InvalidSchedule, NoIntersection, VanishingMass
from axisforge.extraction import extract_axes_hard, extract_axes_soft, soft_extract_vjp
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
    # the true x0 implies the drawn noise, so one step down re-mixes x0 with it
    ab_prev = sched.abar(19)
    stepped = ddim_step(x_t, 20, x0, sched, t_prev=19)
    assert np.allclose(stepped, np.sqrt(ab_prev) * x0 + np.sqrt(1 - ab_prev) * eps, atol=1e-12)
    # one timestep per row, as training draws them, each row as its scalar call
    rows = x0.reshape(8, -1)
    ts = np.array([1, 20, 50, 20, 7, 3, 49, 2])
    x_rows, eps_rows = forward_diffuse(rows, ts[:, None], sched, np.random.default_rng(1))
    for row, t, x_row, eps_row in zip(rows, ts, x_rows, eps_rows):
        ab = sched.abar(int(t))
        assert np.array_equal(x_row, np.sqrt(ab) * row + np.sqrt(1 - ab) * eps_row)
    for bad in (0, 51, ts - 1):
        with pytest.raises(ValueError, match="1..50"):
            forward_diffuse(rows, bad, sched, rng)


def test_ddim_step_exact_with_true_noise():
    sched = make_schedule(50, 1e-3, 0.1)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(0, 1, size=(4, 4, 3))
    x_t, eps = forward_diffuse(x0, 50, sched, rng)
    # the true x0 implies the true noise: stepping to t=0 recovers x0 exactly
    out = ddim_step(x_t, 50, x0, sched, t_prev=0)
    assert np.allclose(out, x0, atol=1e-12)
    # stepping to an intermediate level reproduces the marginal mixing
    mid = ddim_step(x_t, 50, x0, sched, t_prev=25)
    ab = sched.abar(25)
    assert np.allclose(mid, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, atol=1e-12)


def test_ddim_step_is_the_closed_form_bit_for_bit():
    # evaluated in place, operation by operation, the step keeps the rounding
    # of the closed form, and it writes into neither input. It runs in its
    # inputs' dtype: in float32 it is the closed form with Python-float
    # factors, which a NumPy float64 factor would promote to float64
    sched = make_schedule(50, 1e-3, 0.1)
    for dtype in (np.float64, np.float32):
        x_t, x0_hat = np.random.default_rng(14).standard_normal((2, 3, 8, 8, 3)).astype(dtype)
        copies = x_t.copy(), x0_hat.copy()
        for t, t_prev in ((50, 49), (50, 25), (20, 0), (1, 0)):
            ab, ab_prev = sched.abar(t), sched.abar(t_prev)
            eps = (x_t - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)
            out = ddim_step(x_t, t, x0_hat, sched, t_prev)
            assert out.dtype == dtype
            assert np.array_equal(out, math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps)
            assert not np.shares_memory(out, x_t) and not np.shares_memory(out, x0_hat)
        assert np.array_equal(x_t, copies[0]) and np.array_equal(x0_hat, copies[1])


def test_gaussian_denoiser_matches_score():
    sched = make_schedule(100, 1e-4, 0.05)
    rng = np.random.default_rng(2)
    mean, var = rng.standard_normal(5), np.full(5, 0.3)
    den = GaussianDenoiser(mean, var, sched)
    x = rng.standard_normal(5)
    t = 60
    ab = sched.abar(t)
    marg_var = ab * var + (1 - ab)
    score = -(x - np.sqrt(ab) * mean) / marg_var
    # Tweedie's formula: the posterior mean from the marginal's score
    assert np.allclose(den.evaluate(x, t), (x + (1 - ab) * score) / np.sqrt(ab), atol=1e-14)


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
    x0 = render_triaxis(K, pose, thickness_px=1.5)[None]
    obs = extract_axes_hard(x0).record(0)
    assert geo_loss(obs, obs) == 0.0
    # against its own soft observation an image's geo_loss and its gradient
    # vanish, leaving the loss and gradient of the ray term alone
    gen = extract_axes_soft(x0, 50.0)[0]
    rays = ray_distance_map(gen, (32, 32))
    _, _, spread, state = extract_axes_soft(x0, 50.0, rays)
    losses, grads, errors = geo_image_gradient(x0, gen, 50.0, rays)
    assert errors == [None] and np.array_equal(losses, spread.sum(axis=1))
    ray_grad = soft_extract_vjp(
        state, np.zeros((1, 2)), np.zeros((1, 3, 2)), np.zeros((1, 2)), np.ones((1, 3)), np.zeros((1, 3))
    )
    assert np.any(grads) and np.array_equal(grads, ray_grad * ((x0 > 0.0) & (x0 < 1.0)))


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
    target = AxisObservation.stack([
        AxisObservation(origin_px=[14.0, 15.0], dir=[[-0.6, -0.8], [1.0, 0.0], [0.0, 1.0]], centroid=[15.0, 15.0])
    ])
    turn = (np.zeros((1, 2)), np.array([[[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]]), np.zeros((1, 2)))
    raw, weighted = [], []
    for eps in (1e-2, 1e-4, 1e-6):
        x0 = _near_isotropic_image(eps)[None]
        _, aniso, _, state = extract_axes_soft(x0, 50.0)
        raw.append(np.linalg.norm(soft_extract_vjp(state, *turn)))
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


def _guided_case(seed, size=16):
    rng = np.random.default_rng(seed)
    K = default_intrinsics(size)
    pose = sample_pose(rng, K, SamplingConfig(depth_min=2.0, depth_max=2.8, lateral=0.2, min_axis_px=5.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5)
    return x0, extract_axes_hard(x0[None]).record(0)


GUIDANCE = GuidanceParams(rho_base=10.0)


def test_batched_sampling_matches_single_records():
    from axisforge.denoiser import MLPDenoiser

    sched = make_schedule(50, 1e-3, 0.05)
    cases = [_guided_case(s) for s in (1, 2, 3)]
    targets = [target for _, target in cases]
    # the analytic field is elementwise, so batching changes no arithmetic
    means = np.stack([x0 for x0, _ in cases])
    for guidance in (GUIDANCE, None):
        images, norms, errors = sample(
            GaussianDenoiser(means, np.full(means.shape, 0.01), sched),
            [None] * 3, targets, guidance, sched, steps=10,
            rngs=[np.random.default_rng(10 + b) for b in range(3)], shape=(16, 16),
        )
        for b, (x0, target) in enumerate(cases):
            den = GaussianDenoiser(x0, np.full(x0.shape, 0.01), sched)
            image, step_norms, step_errors = sample(
                den, [None], [target], guidance, sched, steps=10, rngs=[np.random.default_rng(10 + b)], shape=(16, 16)
            )
            assert np.array_equal(images[b], image[0])
            assert np.array_equal(norms[b], step_norms[0])
            assert [type(e) for e in errors[b]] == [type(e) for e in step_errors[0]]
    # a matrix product may round differently for a batch than for one row
    mlp = MLPDenoiser(
        ArchConfig(image_size=16, hidden=32, time_embed_dim=8), sched, np.random.default_rng(4), 0.15, np.float64
    )
    conds = [np.random.default_rng(20 + b).random((16, 16)) for b in range(3)]
    images, _, _ = sample(mlp, conds, targets, GUIDANCE, sched, 10, [np.random.default_rng(b) for b in range(3)], (16, 16))
    for b in range(3):
        image, _, _ = sample(mlp, conds[b : b + 1], targets[b : b + 1], GUIDANCE, sched, 10, [np.random.default_rng(b)], (16, 16))
        assert np.allclose(images[b], image[0], rtol=0.0, atol=1e-9)


def _stacked(targets, shape=(16, 16)):
    """A batch's stacked targets and their ray map, as sample builds them."""
    target = AxisObservation.stack(targets)
    return target, ray_distance_map(target, shape)


def test_batched_guidance_gradient_finite_differences():
    from axisforge.denoiser import MLPDenoiser

    sched = make_schedule(50, 1e-3, 0.05)
    targets = [_guided_case(s)[1] for s in (1, 2, 3)]
    target, rays = _stacked(targets)
    mlp = MLPDenoiser(
        ArchConfig(image_size=16, hidden=32, time_embed_dim=8), sched, np.random.default_rng(4), 0.15, np.float64
    )
    rng = np.random.default_rng(12)
    cond = rng.random((3, 16, 16))
    x_t = rng.standard_normal((3, 16, 16, 3))
    t = 20
    ab = sched.abar(t)
    sharpness = GUIDANCE.sharpness * ab

    def network_step(x_t, cond, target, rays):
        x0_hat = mlp.evaluate(x_t, t, cond)
        return (x0_hat, *geo_image_gradient(x0_hat, target, sharpness, rays))

    guided, _, errors = guided_x0_batch(x_t, t, mlp, cond, target, rays, GUIDANCE, sched)
    assert errors == [None] * 3
    x0_hat, img_losses, img_grads, _ = network_step(x_t, cond, target, rays)
    for b in range(3):  # a batch of one gives the matching row of the larger batch
        one_target, one_rays = _stacked([targets[b]])
        one_guided = guided_x0_batch(x_t[b : b + 1], t, mlp, cond[b : b + 1], one_target, one_rays, GUIDANCE, sched)[0]
        _, one_losses, one_grads, _ = network_step(x_t[b : b + 1], cond[b : b + 1], one_target, one_rays)
        assert np.isclose(one_losses[0], img_losses[b], rtol=1e-12)
        assert np.allclose(one_grads[0], img_grads[b], rtol=0.0, atol=1e-9)
        assert np.allclose(one_guided[0], guided[b], rtol=0.0, atol=1e-9)
    # the guided estimate subtracts rho_eff * (1 - abar_t) / abar_t *
    # d loss / d x0_hat from the network's, exactly: the denoiser is not
    # differentiated. Its d loss / d x0_hat is checked against central
    # differences of the loss in x0_hat.
    rho_eff = GUIDANCE.rho_base / (np.sqrt(img_losses) + 1e-6)
    assert np.array_equal(guided, x0_hat - (rho_eff * (1.0 - ab) / ab)[:, None, None, None] * img_grads)
    h = 1e-5
    probed = 0
    for k in range(3):
        for j in rng.choice(16 * 16 * 3, size=8, replace=False):
            dx = np.zeros(x0_hat.shape)
            dx[k].flat[j] = h
            lp = geo_image_gradient(x0_hat + dx, target, sharpness, rays)[0][k]
            lm = geo_image_gradient(x0_hat - dx, target, sharpness, rays)[0][k]
            fd = (lp - lm) / (2 * h)
            an = float(img_grads[k].flat[j])
            if abs(an) < 1e-9 and abs(fd) < 1e-9:
                continue  # clamp-masked pixel
            probed += 1
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-9) < 1e-3
    assert probed > 0


def test_guided_sampling_never_differentiates_the_network(monkeypatch):
    from axisforge.denoiser import MLPDenoiser

    def no_pullback(*args, **kwargs):
        raise AssertionError("sampling reached the network's input pullback")

    evaluate = MLPDenoiser.evaluate
    steps = []

    def counted(self, x_t, t, cond=None):
        steps.append(t)
        return evaluate(self, x_t, t, cond)

    monkeypatch.setattr(MLPDenoiser, "_pre_activation_grads", no_pullback)  # the first step of vjp and of the weight-gradient walk
    monkeypatch.setattr(MLPDenoiser, "evaluate", counted)
    sched = make_schedule(50, 1e-3, 0.05)
    mlp = MLPDenoiser(ArchConfig(image_size=16, hidden=32, time_embed_dim=8), sched, np.random.default_rng(4), 0.15)
    targets = [_guided_case(1)[1], _guided_case(3)[1]]
    conds = [np.random.default_rng(20 + b).random((16, 16)) for b in range(2)]
    for guidance in (GUIDANCE, None):
        steps.clear()
        _, norms, _ = sample(mlp, conds, targets, guidance, sched, 10, [np.random.default_rng(b) for b in range(2)], (16, 16))
        assert steps == uniform_timesteps(sched, 10)  # one network forward per step, guided or not
        assert np.any(norms > 0) == (guidance is not None)


@pytest.mark.parametrize("kind, dtype", [("mlp", np.float32), ("mlp", np.float64), ("gaussian", np.float64)])
def test_sampling_runs_in_the_denoiser_dtype(monkeypatch, kind, dtype):
    # one code path: the denoiser's dtype is the chain's. Every x_t the
    # denoiser and the DDIM step read, every x0_hat, guided or not, every
    # step's output and every guidance gradient has it
    from axisforge import diffusion
    from axisforge.denoiser import MLPDenoiser

    sched = make_schedule(50, 1e-3, 0.05)
    cases = [_guided_case(1), _guided_case(3)]
    if kind == "mlp":
        arch = ArchConfig(image_size=16, hidden=32, time_embed_dim=8)
        den = MLPDenoiser(arch, sched, np.random.default_rng(4), 0.15, dtype)
        conds = [np.random.default_rng(20 + b).random((16, 16)) for b in range(2)]
    else:
        means = np.stack([x0 for x0, _ in cases])
        den = GaussianDenoiser(means, np.full(means.shape, 0.01), sched)
        conds = [None, None]
    assert den.dtype == dtype
    seen = {}

    def record(name, *arrays):
        seen.setdefault(name, set()).update(a.dtype for a in arrays)

    evaluate, gradient, step = den.evaluate, diffusion.geo_image_gradient, diffusion.ddim_step

    def spy_evaluate(x_t, t, cond=None):
        x0_hat = evaluate(x_t, t, cond)
        record("evaluate", x_t, x0_hat)
        return x0_hat

    def spy_gradient(x0_hat, *args):
        losses, grads, errors = gradient(x0_hat, *args)
        record("gradient", x0_hat, grads)
        return losses, grads, errors

    def spy_step(x_t, t, x0_hat, *args, **kwargs):
        x_prev = step(x_t, t, x0_hat, *args, **kwargs)
        record("ddim_step", x_t, x0_hat, x_prev)
        return x_prev

    monkeypatch.setattr(den, "evaluate", spy_evaluate)
    monkeypatch.setattr(diffusion, "geo_image_gradient", spy_gradient)
    monkeypatch.setattr(diffusion, "ddim_step", spy_step)
    for guidance in (GUIDANCE, None):
        seen.clear()
        rngs = [np.random.default_rng(b) for b in range(2)]
        images, norms, errors = sample(den, conds, [target for _, target in cases], guidance, sched, 10, rngs, (16, 16))
        expected = {"evaluate", "ddim_step"} | ({"gradient"} if guidance else set())
        assert seen == {name: {np.dtype(dtype)} for name in expected}
        # the images come back clipped in the chain's dtype, the norms in float64
        assert images.shape == (2, 16, 16, 3) and images.dtype == dtype
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert norms.shape == (2, 10) and norms.dtype == np.float64
        assert [len(e) for e in errors] == [10, 10]


def test_float32_sampling_agrees_with_float64():
    # the sampler-level counterpart of test_float32_network_agrees_with_float64:
    # a briefly trained float32 network against a float64 copy of its
    # weights, each running its own guided chain from the same draws. Both
    # chains must give the same hard-extraction outcome, and directions
    # within 1e-4. On 240 records of seeds 100-159 (4 a seed), the outcomes
    # agreed on all, and the 159 that extracted differed in direction by
    # at most 1.9e-5 (median 3.0e-7)
    from axisforge.denoiser import MLPDenoiser, train_denoiser
    from axisforge.errors import AxisForgeError
    from axisforge.render import render_query

    size = 16
    K = default_intrinsics(size)
    sched = make_schedule(50, 1e-3, 0.05)
    arch = ArchConfig(image_size=size, hidden=64, time_embed_dim=8)
    extracted = 0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        records = []  # (tri-axis, query, target) of poses whose tri-axis extracts
        while len(records) < 4:
            pose = sample_pose(rng, K, SamplingConfig(depth_min=2.0, depth_max=2.8, lateral=0.2, min_axis_px=5.0))
            x0 = render_triaxis(K, pose, thickness_px=1.5)
            try:
                records.append((x0, render_query(K, pose), extract_axes_hard(x0[None]).record(0)))
            except AxisForgeError:
                pass
        x0s, queries, targets = zip(*records)
        den32 = train_denoiser(
            np.stack(x0s), np.stack(queries), arch, OptConfig(steps=300, batch_size=8, lr=2e-3), sched,
            np.random.default_rng(seed),
        ).denoiser
        den64 = MLPDenoiser(arch, sched, None, den32.sigma_data, np.float64)
        den64.flat[...] = den32.flat
        outcomes = []
        for den in (den32, den64):
            rngs = [np.random.default_rng(100 * seed + b) for b in range(4)]
            images, _, _ = sample(den, queries, targets, GUIDANCE, sched, 10, rngs, (size, size))
            observed, row = extract_axes_hard(images), []
            for b in range(len(images)):
                try:
                    row.append(observed.record(b))
                except AxisForgeError as exc:
                    row.append(type(exc))
            outcomes.append(row)
        for a, b in zip(*outcomes):
            if isinstance(a, AxisObservation) and isinstance(b, AxisObservation):
                extracted += 1
                assert np.max(np.abs(a.dir - b.dir)) < 1e-4
            else:
                assert a == b
    assert extracted >= 6


def test_batched_guidance_isolates_failed_records():
    sched = make_schedule(50, 1e-3, 0.05)
    x0, target = _guided_case(1)
    massless = x0.copy()
    massless[..., 1] = 0.0  # VanishingMass in channel 1
    parallel = np.repeat(x0[..., :1], 3, axis=-1)  # three copies of one axis: NoIntersection
    means = np.stack([x0, massless, parallel, x0])
    den = GaussianDenoiser(means, np.full(means.shape, 1e-4), sched)
    x_t = np.random.default_rng(3).standard_normal(means.shape)
    t = 10
    stacked, rays = _stacked([target] * 4)
    guided, norms, errors = guided_x0_batch(x_t, t, den, None, stacked, rays, GUIDANCE, sched)
    # the healthy record matches its batch of one bit for bit (the analytic
    # denoiser is elementwise, so batching changes no arithmetic)
    x0_hat = den.evaluate(x_t, t)
    sharpness = GUIDANCE.sharpness * sched.abar(t)
    one_losses, one_grads, _ = geo_image_gradient(x0_hat[:1], AxisObservation.stack([target]), sharpness)
    img_losses, img_grads, img_errors = geo_image_gradient(
        x0_hat[:3], AxisObservation.stack([target] * 3), sharpness
    )
    assert img_losses[0] == one_losses[0] and np.array_equal(img_grads[0], one_grads[0])
    one_den = GaussianDenoiser(x0, np.full(x0.shape, 1e-4), sched)
    one_guided, one_norms, _ = guided_x0_batch(x_t[:1], t, one_den, None, *_stacked([target]), GUIDANCE, sched)
    assert norms[0] == one_norms[0] > 0 and np.array_equal(guided[0], one_guided[0])
    # failed records: the network's estimate unchanged, their own exception
    assert isinstance(errors[1], VanishingMass) and errors[1].channel == 1
    assert isinstance(errors[2], NoIntersection)
    assert [type(e) for e in img_errors] == [type(None), VanishingMass, NoIntersection]
    assert errors[0] is None and errors[3] is None
    assert np.array_equal(guided[1:3], x0_hat[1:3]) and not np.any(norms[1:3])
    assert np.isnan(img_losses[1:]).all() and not np.any(img_grads[1:])
    # targets stacked once for a chain, ray maps included, give what a
    # fresh build gives at every step
    for step in (30, 10):
        fresh = guided_x0_batch(x_t, step, den, None, *_stacked([target] * 4), GUIDANCE, sched)
        reused = guided_x0_batch(x_t, step, den, None, stacked, rays, GUIDANCE, sched)
        assert np.array_equal(fresh[0], reused[0])
        assert np.array_equal(fresh[1], reused[1])
        assert [type(e) for e in fresh[2]] == [type(e) for e in reused[2]]


class _StoredDenoiser(DenoiserInterface):
    """Returns one stored estimate at every call, as a caching denoiser may,
    so a caller that wrote into an estimate would change every later one."""

    def __init__(self, x0_hat):
        self.x0_hat = x0_hat

    def evaluate(self, x_t, t, cond=None):
        return self.x0_hat


def test_guidance_arithmetic_leaves_its_inputs_unchanged():
    sched = make_schedule(50, 1e-3, 0.05)
    cases = [_guided_case(s) for s in (1, 2)]
    targets = [target for _, target in cases]
    target, rays = _stacked(targets)
    rng = np.random.default_rng(15)
    # some pixels outside [0, 1], so the clamp mask acts
    x0_hat = np.stack([x0 for x0, _ in cases]) + 0.3 * rng.standard_normal((2, 16, 16, 3))
    x_t = rng.standard_normal(x0_hat.shape)
    arrays = (x0_hat, x_t, rays, target.origin_px, target.dir, target.centroid)
    copies = [a.copy() for a in arrays]
    den = _StoredDenoiser(x0_hat)
    _, grads, _ = geo_image_gradient(x0_hat, target, 5.0, rays)
    assert np.any(grads) and not any(np.shares_memory(grads, a) for a in arrays)
    first = guided_x0_batch(x_t, 10, den, None, target, rays, GUIDANCE, sched)
    second = guided_x0_batch(x_t, 10, den, None, target, rays, GUIDANCE, sched)
    assert np.all(first[1] > 0)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    assert not np.shares_memory(first[0], x0_hat)
    # along a whole chain the stored estimate is read at every step, never written
    for guidance in (GUIDANCE, None):
        sample(den, [None, None], targets, guidance, sched, 5, [np.random.default_rng(b) for b in range(2)], (16, 16))
    for a, c in zip(arrays, copies):
        assert np.array_equal(a, c)


def test_skipped_guidance_step_records_reason():
    sched = make_schedule(50, 1e-3, 0.05)
    _, target = _guided_case(1)
    # a mean below 0 everywhere: clip(x0_hat, 0, 1) holds no soft mass, and
    # the clamp mask zeroes any gradient, so guidance cannot paint mass in
    # (on a blank 0 mean the x0_hat-space correction does, and no step skips)
    dark = np.full((16, 16, 3), -1.0)
    den = GaussianDenoiser(dark, np.full(dark.shape, 1e-4), sched)
    _, (norms,), (errors,) = sample(den, [None], [target], GUIDANCE, sched, 10, [np.random.default_rng(0)], (16, 16))
    assert len(norms) == len(errors) == 10
    skipped = [e is not None for e in errors]
    assert any(skipped)
    assert {type(e).__name__ for e in errors if e is not None} == {"VanishingMass"}
    assert not np.any(norms[skipped])  # a skipped step corrects nothing


def test_ray_distance_map():
    target = AxisObservation(origin_px=[4.0, 5.0], dir=[[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]], centroid=[5.0, 5.0])
    rays = ray_distance_map(target, (12, 10))
    assert rays.shape == (12, 10, 3)
    assert rays[5, 9, 0] == 0.0 and rays[11, 4, 1] == 0.0  # on the rays
    assert rays[5, 0, 0] == 16.0  # behind the origin: distance to the origin itself
    assert rays[8, 6, 0] == 9.0  # beside the ray: perpendicular distance
    assert np.isclose(rays[9, 1, 2], 0.0)  # (4, 5) + 5 * (-0.6, 0.8)
