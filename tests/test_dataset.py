import dataclasses
import json

import numpy as np
import pytest

from axisforge.camera import CameraIntrinsics
from axisforge.dataset import (
    GuidanceParams,
    Manifest,
    RenderParams,
    RunConfig,
    SamplingConfig,
    default_intrinsics,
    generate_dataset,
    load_config,
    load_manifest,
    pose_is_nondegenerate,
    record_seed,
    sample_pose,
    save_config,
)
from axisforge.denoiser import ArchConfig, OptConfig
from axisforge.errors import ManifestError
from axisforge.render import DegradationSpec, load_f32

CFG = dataclasses.replace(
    RunConfig(),
    intrinsics=default_intrinsics(16),
    sampling=SamplingConfig(depth_min=2.5, depth_max=3.5, lateral=0.2, min_axis_px=3.0),
    arch=dataclasses.replace(RunConfig().arch, image_size=16),
    seed=11,
)

# a non-default value in every field, so a field the codec drops or
# mis-types fails the round trip
ALL_SET = RunConfig(
    intrinsics=CameraIntrinsics(f_x=20.5, f_y=21.5, c_x=12.25, c_y=11.75, width=24, height=23, gamma=0.125),
    render=RenderParams(axis_len=0.75, thickness_px=2.25),
    sampling=SamplingConfig(depth_min=2.5, depth_max=4.5, lateral=0.25, min_axis_px=4.5, origin_margin_frac=0.125),
    degradation=DegradationSpec(occlusion_frac=0.3, noise_sigma=0.05, blur_radius=2, seed=2**62 + 7),
    schedule_T=300,
    zeta_start=2e-4,
    zeta_end=0.07,
    arch=ArchConfig(image_size=24, hidden=96, time_embed_dim=16),
    opt=OptConfig(steps=123, batch_size=7, lr=5e-4, beta1=0.85, beta2=0.995, adam_eps=1e-7, grad_clip=0.5, log_every=9),
    guidance=GuidanceParams(rho_base=2.5, sharpness=40.5),
    sample_steps=33,
    seed=5,
)


def test_record_seed_stable_and_distinct():
    assert record_seed(1, "a") == record_seed(1, "a")
    assert record_seed(1, "a") != record_seed(1, "b")
    assert record_seed(1, "a") != record_seed(2, "a")
    assert 0 <= record_seed(123, "train_00000") < 2**63


def test_sample_pose_is_nondegenerate():
    rng = np.random.default_rng(0)
    K = CFG.intrinsics
    for _ in range(20):
        pose = sample_pose(rng, K, CFG.sampling)
        assert pose_is_nondegenerate(K, pose, CFG.sampling, 1.0)
        assert CFG.sampling.depth_min <= pose.T[2] <= CFG.sampling.depth_max


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(depth_min=5.0, depth_max=3.0)
    with pytest.raises(ValueError):
        SamplingConfig(min_axis_px=0.0)


def test_generate_and_load_dataset(tmp_path):
    manifest = generate_dataset(CFG, n_train=3, n_test=2, out_dir=tmp_path)
    assert len(manifest.split("train")) == 3
    assert len(manifest.split("test")) == 2
    back = load_manifest(tmp_path)
    assert back.intrinsics == manifest.intrinsics
    for rec, rec2 in zip(manifest.records, back.records):
        assert rec.id == rec2.id
        assert np.allclose(rec.pose.R, rec2.pose.R, atol=1e-15)
        assert np.allclose(rec.pose.T, rec2.pose.T, atol=1e-15)
        img = load_f32(tmp_path / rec.triaxis_path, (16, 16, 3))
        assert img.min() >= 0.0 and img.max() <= 1.0
    ids = [r.id for r in back.records]
    assert len(set(ids)) == len(ids)


def test_generate_dataset_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(CFG, 2, 1, a)
    generate_dataset(CFG, 2, 1, b)
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    for rec in load_manifest(a).records:
        for p in (rec.query_path, rec.triaxis_path, rec.degraded_path):
            assert (a / p).read_bytes() == (b / p).read_bytes()


def test_load_manifest_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)  # missing file
    generate_dataset(CFG, 1, 1, tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["version"] = 999
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)
    doc["version"] = 1
    doc["records"][0]["degradation"]["sigma"] = 0.1
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="'degradation.sigma'"):
        load_manifest(tmp_path)


def test_load_manifest_missing_image(tmp_path):
    manifest = generate_dataset(CFG, 1, 1, tmp_path)
    (tmp_path / manifest.records[0].triaxis_path).unlink()
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)


def test_config_roundtrip(tmp_path):
    p = tmp_path / "config.json"
    for cfg in (CFG, ALL_SET):
        save_config(p, cfg)
        back = load_config(p)
        assert back == cfg
        assert repr(back) == repr(cfg)  # 1 == 1.0, but their reprs differ


def test_run_config_from_partial_dict():
    cfg = RunConfig.from_dict({"seed": 7, "sample_steps": 12})
    assert cfg.seed == 7
    assert cfg.sample_steps == 12
    assert cfg.intrinsics == RunConfig().intrinsics


def test_run_config_partial_section_takes_defaults():
    cfg = RunConfig.from_dict({"arch": {"hidden": 64}, "opt": {"steps": 5}})
    assert cfg.arch == dataclasses.replace(RunConfig().arch, hidden=64)
    assert cfg.opt == dataclasses.replace(RunConfig().opt, steps=5)
    opt = RunConfig.from_dict({"opt": {"steps": 5.0, "lr": 1}}).opt
    assert type(opt.steps) is int and opt.steps == 5
    assert type(opt.lr) is float and opt.lr == 1.0


@pytest.mark.parametrize("doc, key", [
    ({"sigma": 0.0}, "'sigma'"),
    ({"thresholds": {"reproj_px": 15.0}}, "'thresholds'"),
    ({"guidance": {"rho": 2.0}}, "'guidance.rho'"),
    ({"guidance": {"mode": "normalized"}}, "'guidance.mode'"),
    ({"opt": {"momentum": 0.9}}, "'opt.momentum'"),
    ({"intrinsics": {**default_intrinsics(16).to_dict(), "fx": 1.0}}, "'intrinsics.fx'"),
    ({"arch": 64}, "'arch'"),
    ({"arch": {"hidden": 64.5}}, "'arch.hidden'"),
    ({"opt": {"steps": True}}, "'opt.steps'"),
    ({"opt": {"lr": False}}, "'opt.lr'"),
    ({"opt": {"steps": 0}}, "steps"),
    ({"opt": {"batch_size": 0}}, "batch_size"),
    ({"opt": {"log_every": 0}}, "log_every"),
    ({"opt": {"lr": -1}}, "lr"),
    ({"opt": {"lr": 0}}, "lr"),
    ({"opt": {"beta1": 1.0}}, "beta1"),
    ({"opt": {"beta2": -0.1}}, "beta2"),
    ({"opt": {"adam_eps": 0}}, "adam_eps"),
    ({"opt": {"grad_clip": -1}}, "grad_clip"),
])
def test_run_config_rejects_unknown_keys(doc, key):
    with pytest.raises(ValueError) as exc:
        RunConfig.from_dict(doc)
    assert key in str(exc.value)
