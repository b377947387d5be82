"""Self-verification suite: every derived oracle with its tolerance.

Each oracle checks one pipeline property against an independent reference
(forward projection, finite differences, analytic Gaussian transport, or
direct counting) and reports the measured value next to its tolerance.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .camera import (
    AxisObservation,
    Pose,
    project_axes,
    project_point,
    random_rotation,
    rot_x,
    rot_y,
    rot_z,
)
from .config import (
    ArchConfig,
    CameraIntrinsics,
    DegradationSpec,
    GuidanceParams,
    OptConfig,
    RunConfig,
    SamplingConfig,
    default_intrinsics,
)
from .dataset import generate_dataset, load_images, load_manifest, sample_pose
from .denoiser import MLPDenoiser, train_denoiser
from .diffusion import (
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
)
from .errors import AxisForgeError
from .extraction import extract_axes_hard, extract_axes_soft, soft_extract_vjp
from .metrics import cuboid_model, evaluate_suite, reproj_metric, reproj_threshold_px, rotation_geodesic
from .render import apply_degradation, render_query, render_triaxis
from .solver import recover_pose

K128 = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)
_SAMPLING_16 = SamplingConfig(depth_min=2.5, depth_max=3.5, lateral=0.2, min_axis_px=3.0)


@dataclass
class OracleResult:
    name: str
    tolerance: str
    measured: str
    passed: bool
    seconds: float


def _geometry_pose(rng: np.random.Generator) -> Pose:
    return Pose(
        R=random_rotation(rng),
        T=np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(4.0, 8.0)]),
    )


# --- camera / solver oracles ---

def oracle_project_axes_consistency() -> tuple[str, str, bool]:
    pose = Pose(R=rot_x(20.0) @ rot_y(30.0), T=np.array([0.2, -0.1, 5.0]))
    lines = project_axes(K128, pose)
    origin = project_point(K128, pose, np.zeros(3))
    worst = 0.0
    for i in range(3):
        delta = project_point(K128, pose, np.eye(3)[i]) - origin
        ref = delta / np.linalg.norm(delta)
        worst = max(worst, float(np.linalg.norm(lines.dir[i] - ref)))
    worst = max(worst, float(np.linalg.norm(lines.origin_px - origin)))
    return "< 1e-12", f"max deviation {worst:.3e}", worst < 1e-12


def oracle_roundtrip_1000() -> tuple[str, str, bool]:
    rng = np.random.default_rng(2)
    worst_rot = worst_t = 0.0
    n = 0
    t0 = time.perf_counter()
    while n < 1000:
        pose = _geometry_pose(rng)
        try:
            obs = project_axes(K128, pose)
        except AxisForgeError:
            continue
        n += 1
        pred = recover_pose(obs, K128, scale_lambda_O=float(pose.T[2]))
        worst_rot = max(worst_rot, math.radians(rotation_geodesic(pose.R, pred.R)))
        worst_t = max(worst_t, float(np.linalg.norm(pose.T - pred.T) / np.linalg.norm(pose.T)))
    dt = time.perf_counter() - t0
    ok = worst_rot < 1e-6 and worst_t < 1e-6 and dt < 1.0
    return (  # the time stays out of the measured string, so that two runs' strings compare equal
        "rot < 1e-6 rad, trans rel < 1e-6, < 1 s",
        f"worst rot {worst_rot:.3e} rad, worst trans {worst_t:.3e}",
        ok,
    )


def oracle_tbm_plane_residual() -> tuple[str, str, bool]:
    """Each recovered axis lies in the plane through the camera centre and its
    image line, and the frame is orthonormal; the planes are rebuilt here
    from the observation and K."""
    rng = np.random.default_rng(0)
    worst = 0.0
    n = 0
    while n < 200:
        pose = _geometry_pose(rng)
        try:
            obs = project_axes(K128, pose)
        except AxisForgeError:
            continue
        n += 1
        R = recover_pose(obs, K128).R
        r_O = K128.K_inv @ np.array([*obs.origin_px, 1.0])
        plane = 0.0
        for i in range(3):
            normal = np.cross(r_O, K128.K_inv @ np.array([*obs.dir[i], 0.0]))
            plane = max(plane, abs(float(normal @ R[:, i])) / float(np.linalg.norm(normal)))
        worst = max(worst, plane + float(np.linalg.norm(R.T @ R - np.eye(3))))
    return "< 1e-9", f"worst plane + orthonormality residual {worst:.3e} over {n} poses", worst < 1e-9


# --- render / extraction oracles ---

def oracle_raster_path() -> tuple[str, str, bool]:
    rng = np.random.default_rng(5)
    # close depth band: strong perspective separates the corner's two
    # candidate solutions, so raster noise cannot flip the selection
    sampling = SamplingConfig(depth_min=2.5, depth_max=4.0, min_axis_px=15.0)
    dir_errs, rot_errs, origin_errs = [], [], []
    for _ in range(500):
        pose = sample_pose(rng, K128, sampling)
        img = render_triaxis(K128, pose, thickness_px=2.0)
        lines = project_axes(K128, pose)
        try:
            obs = extract_axes_hard(img[None]).record(0)
        except AxisForgeError:
            dir_errs.append(math.inf)
            rot_errs.append(math.inf)
            continue
        errs = [
            math.degrees(math.acos(np.clip(obs.dir[i] @ lines.dir[i], -1, 1))) for i in range(3)
        ]
        dir_errs.append(max(errs))
        origin_errs.append(float(np.linalg.norm(obs.origin_px - lines.origin_px)))
        try:
            pred = recover_pose(obs, K128, scale_lambda_O=float(pose.T[2]))
            rot_errs.append(rotation_geodesic(pose.R, pred.R))
        except AxisForgeError:
            rot_errs.append(math.inf)
    med_dir = float(np.median(dir_errs))
    med_origin = float(np.median(origin_errs))
    med_rot = float(np.median(rot_errs))
    p95_rot = float(np.percentile(rot_errs, 95))
    ok = med_dir < 2.0 and med_origin < 1.0 and med_rot < 2.0 and p95_rot < 5.0
    return (
        "median dir < 2 deg, median origin < 1 px, median rot < 2 deg, p95 rot < 5 deg",
        f"dir {med_dir:.3f} deg, origin {med_origin:.3f} px, rot {med_rot:.3f} deg, p95 {p95_rot:.3f} deg",
        ok,
    )


def oracle_query_symmetry() -> tuple[str, str, bool]:
    base = Pose(R=rot_z(30.0), T=np.array([0.0, 0.0, 5.0]))
    rotated = Pose(R=rot_z(90.0) @ base.R, T=base.T)
    a = render_query(K128, base)
    b = render_query(K128, rotated)
    # Rz(+90 deg) in a y-down frame maps image content like np.rot90(k=-1)
    diff = float(np.mean(np.abs(np.rot90(a, k=-1) - b)))
    diff = min(diff, float(np.mean(np.abs(np.rot90(a, k=1) - b))))
    return "mean abs diff < 0.02", f"{diff:.4f}", diff < 0.02


def oracle_occlusion_area() -> tuple[str, str, bool]:
    img = np.ones((128, 128))
    out = apply_degradation(img, DegradationSpec(occlusion_frac=0.25), 11)
    frac = float((out == 0).sum()) / img.size
    ok = abs(frac - 0.25) <= 0.025
    return "0.25 +- 10%", f"zeroed fraction {frac:.4f}", ok


def _soft_record(img: np.ndarray) -> AxisObservation:
    """Soft observation of one float64 image at sharpness 50, extracted as
    a batch of one; raises the image's VanishingMass or NoIntersection."""
    return extract_axes_soft(img[None], 50.0)[0].record(0)


def _hard_soft_gaps(seed: int, n: int) -> tuple[list[float], float]:
    """Direction gaps (deg) of n rendered poses and their largest origin gap (px)."""
    rng = np.random.default_rng(seed)
    sampling = SamplingConfig(min_axis_px=10.0)
    degs = []
    worst_px = 0.0
    for _ in range(n):
        pose = sample_pose(rng, K128, sampling)
        img = render_triaxis(K128, pose, thickness_px=2.0)
        hard = extract_axes_hard(img[None]).record(0)
        soft = _soft_record(img)
        for i in range(3):
            degs.append(math.degrees(math.acos(np.clip(hard.dir[i] @ soft.dir[i], -1, 1))))
        worst_px = max(worst_px, float(np.linalg.norm(hard.origin_px - soft.origin_px)))
    return degs, worst_px


def oracle_hard_soft_agreement() -> tuple[str, str, bool]:
    degs, px_200 = _hard_soft_gaps(6, 200)
    each, px_10 = _hard_soft_gaps(2, 10)
    med_deg, max_deg, worst_px = float(np.median(degs)), max(each), max(px_200, px_10)
    ok = med_deg < 0.5 and max_deg < 1.5 and worst_px < 0.5
    return (
        "200 poses median < 0.5 deg, 10 poses each < 1.5 deg, max origin diff < 0.5 px",
        f"median {med_deg:.4f} deg, max {max_deg:.4f} deg, max origin diff {worst_px:.4f} px",
        ok,
    )


def _fd_relative(analytic: float, fd: float, floor: float) -> float:
    denom = max(abs(analytic), abs(fd), floor)
    return abs(analytic - fd) / denom


def _soft_vjp_fd_case(
    seed: int, size: int, min_axis_px: float, thickness_px: float, random_cot: bool, n_probes: int
) -> float:
    """Worst relative gap between the soft-extraction pullback and central
    differences on one rendered image: either one random cotangent or each
    of the 10 unit cotangents, each against n_probes random unit directions."""
    rng = np.random.default_rng(seed)
    K = default_intrinsics(size)
    pose = sample_pose(rng, K, SamplingConfig(min_axis_px=min_axis_px))
    img = render_triaxis(K, pose, thickness_px=thickness_px)
    cots = rng.standard_normal((1, 10)) if random_cot else np.eye(10)
    state = extract_axes_soft(img[None], 50.0)[3]
    grads = [soft_extract_vjp(state, c[None, :2], c[2:8].reshape(1, 3, 2), c[None, 8:])[0] for c in cots]
    h = 1e-4
    worst = 0.0
    for _ in range(n_probes):
        v = rng.standard_normal(img.shape)
        v /= np.linalg.norm(v)
        f_plus = cots @ np.array(_soft_record(img + h * v).to_flat())
        f_minus = cots @ np.array(_soft_record(img - h * v).to_flat())
        for grad, fd in zip(grads, (f_plus - f_minus) / (2 * h)):
            worst = max(worst, _fd_relative(float((grad * v).sum()), float(fd), floor=1e-6))
    return worst


def oracle_soft_vjp_fd() -> tuple[str, str, bool]:
    worst = [
        _soft_vjp_fd_case(7, 128, 10.0, 2.0, random_cot=False, n_probes=1),
        _soft_vjp_fd_case(8, 128, 10.0, 2.0, random_cot=True, n_probes=5),
        _soft_vjp_fd_case(3, 32, 6.0, 1.5, random_cot=True, n_probes=5),
    ]
    return (
        "< 1e-4 relative (128 px: 10 unit cotangents x 1 direction, 1 cotangent x 5; 32 px: 1 x 5)",
        "worst errors " + ", ".join(f"{w:.3e}" for w in worst),
        max(worst) < 1e-4,
    )


# --- diffusion oracles ---

def oracle_schedule_abar() -> tuple[str, str, bool]:
    sched = make_schedule(1000, 1e-4, 0.02)
    val = float(sched.alpha_bar[-1])
    return "abar_1000 < 0.01", f"{val:.3e}", val < 0.01


def oracle_forward_moments() -> tuple[str, str, bool]:
    sched = make_schedule(1000, 1e-4, 0.02)
    t = int(np.argmin(np.abs(sched.alpha_bar - 0.5))) + 1
    ab = sched.abar(t)
    x0 = 1.3
    rng = np.random.default_rng(9)
    n = 100_000
    draws = forward_diffuse(np.full(n, x0), t, sched, rng)[0]
    mean_err = abs(float(draws.mean()) - math.sqrt(ab) * x0)
    mean_tol = 3.0 * math.sqrt((1 - ab) / n)
    var = float(np.var(draws - math.sqrt(ab) * x0))
    var_err = abs(var - (1 - ab)) / (1 - ab)
    ok = mean_err < mean_tol and var_err < 0.02
    return (
        f"mean within {mean_tol:.2e}, var within 2%",
        f"mean err {mean_err:.2e}, var rel err {var_err:.4f}",
        ok,
    )


def oracle_ddim_gaussian_chain() -> tuple[str, str, bool]:
    """Mean and variance of the deterministic 50-step reverse chain for
    Gaussian data of mean 2 and variance 0.25.

    Initial draws are a variance-matched stratified normal ensemble of
    10,000 chains, which removes Monte Carlo noise so the statistics isolate
    the sampler's own transport bias. The timestep subset equalizes per-step
    contraction.
    """
    n_chains, m, data_var = 10_000, 2.0, 0.25
    sched = make_schedule(2000, 5e-5, 1e-2)
    den = GaussianDenoiser(np.array(m), np.array(data_var), sched)
    ts = gaussian_optimal_timesteps(sched, 50, data_var)
    normal = statistics.NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / n_chains) for i in range(n_chains)])
    x = z / np.std(z)  # exact unit empirical variance, zero mean by symmetry
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        x = ddim_step(x, t, den.evaluate(x, t), sched, t_prev=t_prev)
    mean, var = float(np.mean(x)), float(np.var(x))
    mean_tol = 3.0 * math.sqrt(data_var / n_chains)
    mean_err = abs(mean - m)
    var_err = abs(var - data_var) / data_var
    ok = mean_err < mean_tol and var_err < 0.05
    return (
        f"mean within {mean_tol:.2e} of 2, var within 5% of 0.25",
        f"mean {mean:.5f}, var {var:.5f} (rel err {var_err:.4f})",
        ok,
    )


def _guidance_fd_case(seed: int) -> tuple[float, bool]:
    """For one noised 32 px tri-axis: the worst relative gap between
    geo_image_gradient's gradient at the clean-image estimate x0_hat and
    central differences of its loss in x0_hat at 20 random pixels, and
    whether the guided estimate is exactly x0_hat - rho_eff *
    (1 - abar_t) / abar_t * that gradient."""
    rng = np.random.default_rng(seed)
    K = default_intrinsics(32)
    sampling = SamplingConfig(min_axis_px=5.0)
    pose = sample_pose(rng, K, sampling)
    x0 = render_triaxis(K, pose, thickness_px=1.5)
    sched = make_schedule(200, 1e-4, 0.05)
    den = GaussianDenoiser(x0, np.full(x0.shape, 0.25), sched)
    target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5)[None])
    t = 100
    x_t, _ = forward_diffuse(x0, t, sched, rng)
    rays = ray_distance_map(target, x0.shape[:2])
    guidance = GuidanceParams(rho_base=1.0, sharpness=50.0)
    guided, _, _ = guided_x0_batch(x_t[None], t, den, None, target, rays, guidance, sched)
    x0_hat = den.evaluate(x_t, t)
    ab = sched.abar(t)
    sharpness = guidance.sharpness * ab

    def loss_grad(x0_hat):
        losses, grads, errors = geo_image_gradient(x0_hat[None], target, sharpness, rays)
        if errors[0] is not None:
            raise errors[0]
        return float(losses[0]), grads[0]

    loss, grad = loss_grad(x0_hat)
    rho_eff = guidance.rho_base / (math.sqrt(loss) + 1e-6)
    exact = bool(np.array_equal(guided[0], x0_hat - rho_eff * (1.0 - ab) / ab * grad))
    h = 1e-3
    worst = 0.0
    flat = grad.ravel()
    idx = rng.choice(flat.size, size=20, replace=False)
    for j in idx:
        dx = np.zeros(flat.size)
        dx[j] = h
        dx = dx.reshape(grad.shape)
        fd = (loss_grad(x0_hat + dx)[0] - loss_grad(x0_hat - dx)[0]) / (2 * h)
        an = float(flat[j])
        if abs(an) < 1e-9 and abs(fd) < 1e-9:
            continue  # clamp-masked pixel: locally constant, both sides zero
        worst = max(worst, _fd_relative(an, fd, floor=1e-9))
    return worst, exact


def oracle_guidance_fd() -> tuple[str, str, bool]:
    cases = [_guidance_fd_case(12), _guidance_fd_case(6)]
    worst = [w for w, _ in cases]
    exact = all(e for _, e in cases)
    return (
        "< 1e-3 relative in x0_hat (20 random pixels, seeds 12 and 6); "
        "guided x0_hat = x0_hat - rho_eff (1 - abar) / abar d loss/d x0_hat exactly",
        "worst probe errors " + ", ".join(f"{w:.3e}" for w in worst) + f"; guided exact: {exact}",
        max(worst) < 1e-3 and exact,
    )


def oracle_overfit_smoke() -> tuple[str, str, bool]:
    rng = np.random.default_rng(13)
    K = default_intrinsics(4)
    pose = Pose(R=rot_x(25.0) @ rot_y(40.0), T=np.array([0.0, 0.0, 5.0]))
    triaxis = render_triaxis(K, pose, thickness_px=1.5)
    query = render_query(K, pose)
    # hidden width must exceed the output dimension, otherwise the rank of
    # the learned map caps the achievable fit
    arch = ArchConfig(image_size=4, hidden=256)
    opt = OptConfig(steps=2000, batch_size=64, lr=3e-3)
    sched = make_schedule(10, 0.1, 0.4)
    res = train_denoiser(np.stack([triaxis]), np.stack([query]), arch, opt, sched, rng)
    ratio = res.final_loss / res.initial_loss
    return "final < 0.05 x initial", f"loss ratio {ratio:.4f}", ratio < 0.05


def oracle_weight_grad_fd() -> tuple[str, str, bool]:
    rng = np.random.default_rng(14)
    arch = ArchConfig(image_size=8, hidden=16)
    sched = make_schedule(10, 1e-3, 0.2)
    den = MLPDenoiser(arch, sched, rng, dtype=np.float64)
    x_t = rng.standard_normal((4, arch.triaxis_dim))
    cond = rng.standard_normal((4, arch.cond_dim))
    eps = rng.standard_normal((4, arch.triaxis_dim))
    ts = np.array([1, 4, 7, 10])

    def loss():
        out, _ = den._body(x_t, ts, den.prepare_condition(cond))
        d = out - eps
        return float((d * d).mean())

    out, cache = den._body(x_t, ts, den.prepare_condition(cond))
    diff = out - eps
    grad = np.empty_like(den.flat)  # filled from the block walk that train applies
    for lo, g in den._backward(2.0 * diff / diff.size, cache, den.grad_scratch()):
        grad[lo : lo + g.size] = g
    grads = den._views(grad)
    params = den.parameters()
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        pi = int(rng.integers(0, len(params)))
        p = params[pi]
        j = int(rng.integers(0, p.size))
        orig = p.flat[j]
        p.flat[j] = orig + h
        lp = loss()
        p.flat[j] = orig - h
        lm = loss()
        p.flat[j] = orig
        fd = (lp - lm) / (2 * h)
        an = float(grads[pi].flat[j])
        worst = max(worst, _fd_relative(an, fd, floor=1e-8))
    return "< 1e-3 relative", f"worst probe error {worst:.3e}", worst < 1e-3


def oracle_analytic_sampler_image() -> tuple[str, str, bool]:
    K = default_intrinsics(16)
    sched = make_schedule(200, 1e-4, 0.05)
    maes = []
    for seed in (15, 8):
        rng = np.random.default_rng(seed)
        pose = sample_pose(rng, K, _SAMPLING_16)
        x0 = render_triaxis(K, pose, thickness_px=1.5)
        den = GaussianDenoiser(x0, np.full(x0.shape, 1e-4), sched)
        image = sample(den, [None], [None], None, sched, steps=50, rngs=[rng], shape=(16, 16))[0][0]
        maes.append(float(np.mean(np.abs(image - x0))))
    return "mean abs error < 0.05 (seeds 15 and 8)", ", ".join(f"{m:.4f}" for m in maes), max(maes) < 0.05


def oracle_ablation_direction() -> tuple[str, str, bool]:
    """Guidance must pull generations toward the target observation.

    The denoiser is an analytic Gaussian field whose mean is the tri-axis of
    a deliberately rotated pose: unguided chains reproduce the biased image,
    so the geometric loss against the true target is bounded away from zero,
    and any reduction under guidance is attributable to the correction term
    alone. Shared per-pose seeds make the comparison paired.
    """
    rng = np.random.default_rng(16)
    size = 24
    K = default_intrinsics(size)
    sampling = SamplingConfig(depth_min=2.2, depth_max=3.2, lateral=0.25, min_axis_px=6.0)
    sched = make_schedule(100, 1e-3, 0.06)
    guided_losses, unguided_losses = [], []
    i = 0
    while len(guided_losses) < 20:
        i += 1
        pose = sample_pose(rng, K, sampling)
        biased = Pose(R=rot_z(20.0) @ pose.R, T=pose.T)
        try:
            mean_img = render_triaxis(K, biased, thickness_px=1.5)
            target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5)[None]).record(0)
        except AxisForgeError:
            continue
        den = GaussianDenoiser(mean_img, np.full(mean_img.shape, 0.01), sched)
        guidance = GuidanceParams(rho_base=10.0, sharpness=50.0)
        for params, sink in ((None, unguided_losses), (guidance, guided_losses)):
            image = sample(
                den, [None], [target], params, sched, steps=25,
                rngs=[np.random.default_rng(10_000 + i)], shape=(size, size),
            )[0][0]
            try:
                gen = _soft_record(image)
                sink.append(geo_loss(gen, target))
            except AxisForgeError:
                sink.append(math.inf)
    mg, mu = float(np.median(guided_losses)), float(np.median(unguided_losses))
    return (
        "guided median geo_loss < 0.95 x unguided",
        f"guided {mg:.4f} vs unguided {mu:.4f}",
        mg < 0.95 * mu,
    )


# --- metrics / pipeline oracles ---

def oracle_add_flip_rate() -> tuple[str, str, bool]:
    rng = np.random.default_rng(17)
    model = cuboid_model()
    pairs = []
    for i in range(100):
        pose = _geometry_pose(rng)
        if i < 50:
            pred = pose
        else:
            pred = Pose(R=pose.R @ rot_z(180.0), T=pose.T)
        pairs.append((pose, pred))
    report = evaluate_suite(pairs, model, K128)
    return "ADD rate = 0.5", f"{report.add_rate:.3f}", abs(report.add_rate - 0.5) < 1e-12


def oracle_dataset_render_extract() -> tuple[str, str, bool]:
    cfg = RunConfig(intrinsics=default_intrinsics(128), seed=21)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_dataset(cfg, n_train=6, n_test=4, out_dir=tmp)
        manifest = load_manifest(tmp)
        errs = []
        for split in ("train", "test"):
            observed = extract_axes_hard(load_images(tmp, manifest, split, "triaxis"))
            for b, rec in enumerate(manifest.split(split)):
                obs = observed.record(b)
                lines = project_axes(manifest.intrinsics, rec.pose, manifest.render.axis_len)
                for i in range(3):
                    errs.append(math.degrees(math.acos(np.clip(obs.dir[i] @ lines.dir[i], -1, 1))))
        med = float(np.median(errs))
    return "median < 2 deg", f"{med:.4f} deg", med < 2.0


def oracle_infer_upper_bound() -> tuple[str, str, bool]:
    rng = np.random.default_rng(18)
    size = 32
    K = default_intrinsics(size)
    sampling = SamplingConfig(depth_min=2.5, depth_max=4.0, min_axis_px=7.0)
    sched = make_schedule(200, 1e-4, 0.05)
    model = cuboid_model()
    threshold = reproj_threshold_px(K)
    passed = 0
    n = 8
    for _ in range(n):
        pose = sample_pose(rng, K, sampling)
        gt_img = render_triaxis(K, pose, thickness_px=1.5)
        den = GaussianDenoiser(gt_img, np.full(gt_img.shape, 1e-4), sched)
        image = sample(den, [None], [None], None, sched, steps=50, rngs=[rng], shape=(size, size))[0][0]
        pred = recover_pose(extract_axes_hard(image[None]).record(0), K, scale_lambda_O=float(pose.T[2]))
        if reproj_metric(pose, pred, model, K) < threshold:
            passed += 1
    rate = passed / n
    return "reproj rate = 1.0", f"{rate:.3f}", rate == 1.0


ORACLES = [
    ("project-axes-consistency", oracle_project_axes_consistency),
    ("geometry-roundtrip-1000", oracle_roundtrip_1000),
    ("tbm-plane-residual", oracle_tbm_plane_residual),
    ("raster-path-500", oracle_raster_path),
    ("query-symmetry-rz90", oracle_query_symmetry),
    ("occlusion-area", oracle_occlusion_area),
    ("hard-soft-agreement", oracle_hard_soft_agreement),
    ("soft-vjp-fd", oracle_soft_vjp_fd),
    ("schedule-abar", oracle_schedule_abar),
    ("forward-diffuse-moments", oracle_forward_moments),
    ("ddim-gaussian-chain", oracle_ddim_gaussian_chain),
    ("guidance-gradient-fd", oracle_guidance_fd),
    ("overfit-smoke", oracle_overfit_smoke),
    ("weight-gradient-fd", oracle_weight_grad_fd),
    ("analytic-sampler-image", oracle_analytic_sampler_image),
    ("ablation-direction", oracle_ablation_direction),
    ("add-flip-rate", oracle_add_flip_rate),
    ("dataset-render-extract", oracle_dataset_render_extract),
    ("infer-upper-bound", oracle_infer_upper_bound),
]


def run_all(names: list[str] | None = None) -> list[OracleResult]:
    """Run every oracle, or those named, in suite order; an unknown name is
    a ValueError that lists it."""
    if names is not None:
        unknown = sorted(set(names) - {name for name, _ in ORACLES})
        if unknown:
            raise ValueError(f"unknown oracle name(s): {', '.join(unknown)}")
    results = []
    for name, fn in ORACLES:
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            tolerance, measured, passed = fn()
        except Exception as exc:  # an oracle crashing is a failure, not an abort
            tolerance, measured, passed = "n/a", f"raised {type(exc).__name__}: {exc}", False
        results.append(
            OracleResult(
                name=name,
                tolerance=tolerance,
                measured=measured,
                passed=passed,
                seconds=time.perf_counter() - t0,
            )
        )
    return results
