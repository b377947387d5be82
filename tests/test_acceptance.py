"""End-to-end acceptance criteria.

Each test prints exactly one ACCEPTANCE line (PASS or FAIL with the measured
values) to the real stdout so the lines survive pytest capture, then asserts.
"""

import json
import time

import numpy as np

from axisforge.camera import compute_omega
from axisforge.cli import main
from axisforge.dataset import SamplingConfig, default_intrinsics, sample_pose
from axisforge.denoiser import ArchConfig, OptConfig, train_denoiser
from axisforge.diffusion import GuidanceConfig, make_schedule, sample
from axisforge.errors import AxisForgeError
from axisforge.extraction import extract_axes_hard
from axisforge.metrics import cuboid_model, reproj_metric
from axisforge.oracle import (
    ddim_gaussian_chain_stats,
    oracle_guidance_fd,
    oracle_raster_path,
    oracle_roundtrip_1000,
    run_all,
)
from axisforge.render import DegradationSpec, apply_degradation, render_query, render_triaxis
from axisforge.solver import corner_from_observation, recover_pose, solve_depth_scales


def _report(capsys, num: int, name: str, ok: bool, measured: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {status} {name}: {measured}", flush=True)
    assert ok, f"criterion {num} ({name}): {measured}"


def test_criterion_1_geometry_roundtrip(capsys):
    tolerance, measured, ok = oracle_roundtrip_1000()
    _report(capsys, 1, "geometry-roundtrip", ok, f"{measured} (need {tolerance})")


def test_criterion_2_raster_path(capsys):
    tolerance, measured, ok = oracle_raster_path()
    _report(capsys, 2, "raster-path", ok, f"{measured} (need {tolerance})")


def test_criterion_3_corner_residuals(capsys):
    from axisforge.camera import CameraIntrinsics, Pose, project_axes, random_rotation
    from axisforge.extraction import AxisObservation

    K = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)
    omega = compute_omega(K)
    rng = np.random.default_rng(0)
    worst = 0.0
    n = 0
    while n < 200:
        pose = Pose(
            R=random_rotation(rng),
            T=np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(4.0, 8.0)]),
        )
        try:
            lines = project_axes(K, pose)
            obs = AxisObservation(origin_px=lines.origin_px, dir=lines.dir, centroid=lines.origin_px)
            sols = solve_depth_scales(corner_from_observation(obs), omega)
        except AxisForgeError:
            continue
        n += 1
        worst = max(worst, max(s.residual for s in sols))
    _report(capsys, 3, "corner-residuals", worst < 1e-9, f"worst accepted residual {worst:.3e} over {n} poses (need < 1e-9)")


def test_criterion_4_ddim_gaussian(capsys):
    mean, var = ddim_gaussian_chain_stats(n_chains=10_000, steps=50, m=2.0, var=0.25)
    mean_tol = 3.0 * np.sqrt(0.25 / 10_000)
    ok = abs(mean - 2.0) < mean_tol and abs(var - 0.25) / 0.25 < 0.05
    _report(
        capsys,
        4, "ddim-gaussian", ok,
        f"mean {mean:.5f} (need within {mean_tol:.2e} of 2), var {var:.5f} (need within 5% of 0.25)",
    )


def test_criterion_5_guidance_math(capsys):
    tolerance, measured, fd_ok = oracle_guidance_fd()

    from axisforge.diffusion import GaussianScoreField, gaussian_denoiser

    rng = np.random.default_rng(7)
    K = default_intrinsics(16)
    pose = sample_pose(rng, K, SamplingConfig(depth_min=2.0, depth_max=2.8, lateral=0.2, min_axis_px=5.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5).data
    sched = make_schedule(100, 1e-4, 0.05)
    den = gaussian_denoiser(GaussianScoreField(mean=x0, var=np.full(x0.shape, 1e-4)), sched)
    target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5))
    a = sample(den, None, GuidanceConfig(target=target, rho=0.0), sched,
               steps=25, rng=np.random.default_rng(42), shape=(16, 16))
    b = sample(den, None, None, sched,
               steps=25, rng=np.random.default_rng(42), shape=(16, 16))
    bitexact = bool(np.array_equal(a.image.data, b.image.data))
    ok = fd_ok and bitexact
    _report(capsys, 5, "guidance-math", ok, f"{measured} (need {tolerance}); rho=0 bit-exact: {bitexact}")


def test_criterion_6_ablation_gap(capsys):
    size = 24
    K = default_intrinsics(size)
    sampling = SamplingConfig(depth_min=2.2, depth_max=3.2, lateral=0.25, min_axis_px=6.0)
    sched = make_schedule(100, 5e-3, 0.08)
    rng = np.random.default_rng(16)
    train_set = []
    for _ in range(40):
        pose = sample_pose(rng, K, sampling)
        train_set.append(
            (render_triaxis(K, pose, thickness_px=1.5).data, render_query(K, pose).data)
        )
    den = train_denoiser(
        train_set, ArchConfig(image_size=size, hidden=256),
        OptConfig(steps=1200, batch_size=16, lr=2e-3), sched, rng,
    ).denoiser

    model = cuboid_model()
    threshold = 15.0 * (K.f_x / 100.0)  # pixel-analog of 15 px at the reference scale
    n_poses = 100
    success = {"guided": 0, "unguided": 0}
    for i in range(n_poses):
        pose_rng = np.random.default_rng(50_000 + i)
        pose = sample_pose(pose_rng, K, sampling)
        target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5))
        cond = apply_degradation(
            render_query(K, pose).data, DegradationSpec(occlusion_frac=0.25, seed=50_000 + i)
        )
        guidance = GuidanceConfig(target=target, rho=10.0, sharpness=50.0)
        for arm, cfg in (("unguided", None), ("guided", guidance)):
            res = sample(
                den, cond, cfg, sched, steps=30,
                rng=np.random.default_rng(10_000 + i), shape=(size, size),
            )
            try:
                obs = extract_axes_hard(res.image)
                pred = recover_pose(obs, K, scale_lambda_O=float(pose.T[2]))
                if reproj_metric(pose, pred, model, K) < threshold:
                    success[arm] += 1
            except AxisForgeError:
                pass
    g, u = success["guided"] / n_poses, success["unguided"] / n_poses
    ok = (g - u) >= 0.10
    _report(
        capsys,
        6, "ablation-gap", ok,
        f"guided {g:.3f} vs unguided {u:.3f}, gap {g - u:+.3f} over {n_poses} occluded poses "
        f"(need >= +0.100 at reproj < {threshold:.4g} px)",
    )


def test_criterion_7_oracle_suite(capsys):
    t0 = time.perf_counter()
    results = run_all()
    dt = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and dt < 60.0
    _report(
        capsys,
        7, "oracle-suite", ok,
        f"{len(results) - len(failed)}/{len(results)} oracles passed in {dt:.1f}s "
        f"(need all, < 60 s){'; failed: ' + ', '.join(failed) if failed else ''}",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    config = {
        "intrinsics": {"f_x": 12.5, "f_y": 12.5, "c_x": 8.0, "c_y": 8.0, "width": 16, "height": 16},
        "sampling": {"depth_min": 2.0, "depth_max": 2.8, "lateral": 0.2, "min_axis_px": 5.0},
        "degradation": {"occlusion_frac": 0.1},
        "arch": {"image_size": 16, "hidden": 32, "time_embed_dim": 8},
        "opt": {"steps": 40, "batch_size": 8, "lr": 0.001, "log_every": 10},
        "schedule_T": 200,
        "zeta_start": 0.0001,
        "zeta_end": 0.05,
        "sample_steps": 50,
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(tag):
        base = tmp_path / tag
        data, rund, pred, rep = base / "data", base / "run", base / "pred", base / "report"
        assert main(["render-dataset", "--config", str(cfg_path), "--n-train", "2",
                     "--n-test", "2", "--out", str(data), "--deterministic"]) == 0
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(rund), "--deterministic"]) == 0
        assert main(["infer", "--config", str(cfg_path), "--dataset", str(data),
                     "--analytic-denoiser", "--out", str(pred), "--deterministic"]) == 0
        assert main(["eval", "--config", str(cfg_path), "--dataset", str(data),
                     "--predictions", str(pred), "--out", str(rep), "--deterministic"]) == 0
        return base

    a = run("a")
    b = run("b")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    mismatched = [
        str(rel) for rel in files_a if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
    ok = files_a == files_b and not mismatched
    _report(
        capsys,
        8, "determinism", ok,
        f"{len(files_a)} files byte-identical across two runs"
        + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""),
    )
