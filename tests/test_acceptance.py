"""End-to-end acceptance criteria.

Each criterion's test prints exactly one ACCEPTANCE line (PASS or FAIL with the measured
values) to the real stdout so the lines survive pytest capture, then asserts.
Criteria 1, 2, 3, 4 and the finite-difference half of 5 are oracles of the suite
that criterion 7 runs; each oracle runs once per module run, and every
criterion that reads it shares its result.
"""

import json
import re
from typing import Callable

import numpy as np
import pytest

from axisforge.cli import INFER_BATCH, main
from axisforge.config import ArchConfig, DegradationSpec, GuidanceParams, OptConfig, SamplingConfig, default_intrinsics
from axisforge.dataset import sample_pose
from axisforge.denoiser import train_denoiser
from axisforge.diffusion import make_schedule, sample
from axisforge.errors import AxisForgeError
from axisforge.extraction import extract_axes_hard
from axisforge.metrics import cuboid_model, reproj_metric, reproj_threshold_px
from axisforge.oracle import ORACLES, OracleResult, run_all
from axisforge.render import apply_degradation, render_query, render_triaxis
from axisforge.solver import recover_pose


def _report(capsys, num: int, name: str, ok: bool, measured: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {status} {name}: {measured}", flush=True)
    assert ok, f"criterion {num} ({name}): {measured}"


@pytest.fixture(scope="module")
def oracle() -> Callable[[str], OracleResult]:
    """The result of a named oracle, run on its first request in this module."""
    results: dict[str, OracleResult] = {}

    def result(name: str) -> OracleResult:
        if name not in results:
            (results[name],) = run_all([name])
        return results[name]

    return result


def _report_oracle(capsys, num: int, name: str, result: OracleResult) -> None:
    _report(capsys, num, name, result.passed, f"{result.measured} (need {result.tolerance})")


def test_criterion_1_geometry_roundtrip(capsys, oracle):
    _report_oracle(capsys, 1, "geometry-roundtrip", oracle("geometry-roundtrip-1000"))


def test_geometry_roundtrip_measures_no_timing(oracle):
    # its measured string once ended in its wall time, so two runs of one
    # tree printed different strings; the 1 s bound stays in its verdict
    result = oracle("geometry-roundtrip-1000")
    assert re.fullmatch(r"worst rot \S+ rad, worst trans \S+", result.measured)
    assert result.tolerance.endswith("< 1 s")


def test_criterion_2_raster_path(capsys, oracle):
    _report_oracle(capsys, 2, "raster-path", oracle("raster-path-500"))


def test_criterion_3_corner_residuals(capsys, oracle):
    _report_oracle(capsys, 3, "tbm-plane-residual", oracle("tbm-plane-residual"))


def test_criterion_4_ddim_gaussian(capsys, oracle):
    _report_oracle(capsys, 4, "ddim-gaussian", oracle("ddim-gaussian-chain"))


def test_criterion_5_guidance_math(capsys, oracle):
    fd = oracle("guidance-gradient-fd")

    from axisforge.diffusion import GaussianDenoiser

    rng = np.random.default_rng(7)
    K = default_intrinsics(16)
    pose = sample_pose(rng, K, SamplingConfig(depth_min=2.0, depth_max=2.8, lateral=0.2, min_axis_px=5.0))
    x0 = render_triaxis(K, pose, thickness_px=1.5)
    sched = make_schedule(100, 1e-4, 0.05)
    den = GaussianDenoiser(x0, np.full(x0.shape, 1e-4), sched)
    target = extract_axes_hard(render_triaxis(K, pose, thickness_px=1.5)[None])
    a, _, _ = sample(den, None, target, GuidanceParams(rho_base=0.0), sched,
                     steps=25, rngs=[np.random.default_rng(42)], shape=(16, 16))
    b, _, _ = sample(den, None, None, None, sched,
                     steps=25, rngs=[np.random.default_rng(42)], shape=(16, 16))
    bitexact = bool(np.array_equal(a, b))
    ok = fd.passed and bitexact
    _report(capsys, 5, "guidance-math", ok, f"{fd.measured} (need {fd.tolerance}); rho=0 bit-exact: {bitexact}")


def test_criterion_6_ablation_gap(capsys):
    size = 24
    K = default_intrinsics(size)
    sampling = SamplingConfig(depth_min=2.2, depth_max=3.2, lateral=0.25, min_axis_px=6.0)
    sched = make_schedule(100, 5e-3, 0.08)
    rng = np.random.default_rng(16)
    triaxes, queries = [], []
    for _ in range(40):
        pose = sample_pose(rng, K, sampling)
        triaxes.append(render_triaxis(K, pose, thickness_px=1.5))
        queries.append(render_query(K, pose))
    den = train_denoiser(
        np.stack(triaxes), np.stack(queries), ArchConfig(image_size=size, hidden=256),
        OptConfig(steps=1200, batch_size=16, lr=2e-3), sched, rng,
    ).denoiser

    model = cuboid_model()
    threshold = reproj_threshold_px(K)
    n_poses = 100
    poses = [sample_pose(np.random.default_rng(50_000 + i), K, sampling) for i in range(n_poses)]
    # every target extracts: the guided sampler refuses a row that failed
    targets = extract_axes_hard(np.stack([render_triaxis(K, pose, thickness_px=1.5) for pose in poses]))
    conds = np.stack([
        apply_degradation(render_query(K, pose), DegradationSpec(occlusion_frac=0.25), 50_000 + i)
        for i, pose in enumerate(poses)
    ])
    success = {"guided": 0, "unguided": 0}
    for arm, guidance in (("unguided", None), ("guided", GuidanceParams(rho_base=10.0, sharpness=50.0))):
        # sampled in chunks of infer's batch, as infer samples its records
        for start in range(0, n_poses, INFER_BATCH):
            chunk = range(start, min(start + INFER_BATCH, n_poses))
            images, _, _ = sample(
                den, conds[chunk], targets.take(chunk), guidance, sched, steps=30,
                rngs=[np.random.default_rng(10_000 + i) for i in chunk], shape=(size, size),
            )
            observed = extract_axes_hard(images)
            for b, i in enumerate(chunk):
                try:
                    pred = recover_pose(observed.record(b), K, scale_lambda_O=float(poses[i].T[2]))
                    if reproj_metric(poses[i], pred, model, K) < threshold:
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


def test_criterion_7_oracle_suite(capsys, oracle):
    results = [oracle(name) for name, _ in ORACLES]
    dt = sum(r.seconds for r in results)
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
