import dataclasses
import json

import numpy as np
import pytest

from axisforge.camera import AXIS_DEGENERACY_PX, Pose, project_point, project_triaxis, random_rotation, rot_y, triaxis_lengths
from axisforge.config import (
    ArchConfig,
    CameraIntrinsics,
    DegradationSpec,
    GuidanceParams,
    OptConfig,
    RenderParams,
    RunConfig,
    SamplingConfig,
    default_intrinsics,
    load_config,
    save_config,
)
from axisforge import dataset
from axisforge.dataset import (
    _surely_degenerate,
    generate_dataset,
    load_images,
    load_manifest,
    pose_is_nondegenerate,
    record_seed,
    sample_pose,
)
from axisforge.errors import DegenerateAxis, ManifestError, NonPositiveDepth
from axisforge.render import _pixel_grid, apply_degradation, render_query, render_triaxis

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
    degradation=DegradationSpec(occlusion_frac=0.3, noise_sigma=0.05, blur_radius=2),
    schedule_T=300,
    zeta_start=2e-4,
    zeta_end=0.07,
    arch=ArchConfig(image_size=24, hidden=96, time_embed_dim=16),
    opt=OptConfig(steps=123, batch_size=7, lr=5e-4, beta1=0.85, beta2=0.995, adam_eps=1e-7, log_every=9),
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


# (intrinsics, sampling, axis length): the default, 128 px with min_axis_px
# 15, 16 px, and a skewed camera
SAMPLING_CASES = [
    (default_intrinsics(32), SamplingConfig(), 1.0),
    (default_intrinsics(128), SamplingConfig(min_axis_px=15.0), 1.0),
    (default_intrinsics(16), CFG.sampling, 1.0),
    (CameraIntrinsics(f_x=37.5, f_y=41.25, c_x=15.3, c_y=17.9, width=32, height=32, gamma=0.7), SamplingConfig(), 0.8),
]


def _draw(rng, sampling):
    R = random_rotation(rng)
    T = [
        rng.uniform(-sampling.lateral, sampling.lateral),
        rng.uniform(-sampling.lateral, sampling.lateral),
        rng.uniform(sampling.depth_min, sampling.depth_max),
    ]
    return R, T


def _sample_pose_reference(rng, K, sampling, axis_len):
    """sample_pose as a plain loop: draw, build the Pose, judge it exactly."""
    while True:
        R, T = _draw(rng, sampling)
        pose = Pose(R=R, T=np.array(T))
        if pose_is_nondegenerate(K, pose, sampling, axis_len):
            return pose


@pytest.mark.parametrize("K, sampling, axis_len", SAMPLING_CASES)
def test_sample_pose_matches_the_reference_loop(K, sampling, axis_len):
    for seed in range(30):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            pose, ref = sample_pose(rng, K, sampling, axis_len), _sample_pose_reference(ref_rng, K, sampling, axis_len)
            assert np.array_equal(pose.R, ref.R) and np.array_equal(pose.T, ref.T)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pose_pretest_refuses_only_what_the_exact_test_refuses():
    draws = refused = wrongly_refused = at_threshold = 0
    for k, (K, sampling, axis_len) in enumerate(SAMPLING_CASES):
        rng = np.random.default_rng(100 + k)
        for _ in range(2500):
            R, T = _draw(rng, sampling)
            pose = Pose(R=R, T=np.array(T))
            exact = pose_is_nondegenerate(K, pose, sampling, axis_len)
            draws += 1
            if _surely_degenerate(K, R.tolist(), T, axis_len, sampling.min_axis_px):
                refused += 1
                wrongly_refused += exact
            elif exact:
                # the same draw with its own shortest axis as the bound, which
                # the exact test still accepts: the pre-test must too
                shortest = float(triaxis_lengths(project_triaxis(K, pose, axis_len)).min())
                tight = dataclasses.replace(sampling, min_axis_px=shortest)
                assert pose_is_nondegenerate(K, pose, tight, axis_len)
                wrongly_refused += _surely_degenerate(K, R.tolist(), T, axis_len, shortest)
                at_threshold += 1
    assert draws >= 10_000 and refused > 5000 and at_threshold > 200
    assert wrongly_refused == 0


def test_sample_pose_judges_few_draws_exactly(monkeypatch):
    counts = {"draws": 0, "judged": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(dataset, "random_rotation", counted("draws", random_rotation))
    monkeypatch.setattr(dataset, "pose_is_nondegenerate", counted("judged", pose_is_nondegenerate))
    rng = np.random.default_rng(0)
    for _ in range(30):
        sample_pose(rng, default_intrinsics(32), SamplingConfig())
    # nearly every rejection at the default fails the min_axis_px length test
    assert counts["draws"] > 150 and counts["judged"] < counts["draws"] / 4


def _twelve_projection_predicate(K, pose, sampling, axis_len):
    """pose_is_nondegenerate projecting a point for every use of it (twelve
    project_point calls), the form the one-projection predicate must decide
    identically."""

    def endpoint(i):
        return axis_len * np.eye(3)[i]

    try:
        origin = project_point(K, pose, np.zeros(3))
        for i in range(3):  # what project_axes checked
            if np.linalg.norm(project_point(K, pose, endpoint(i)) - origin) < AXIS_DEGENERACY_PX:
                raise DegenerateAxis(i)
        origin = project_point(K, pose, np.zeros(3))
        length_origin = project_point(K, pose, np.zeros(3))  # what projected_axis_lengths projected
        lengths = [np.linalg.norm(project_point(K, pose, endpoint(i)) - length_origin) for i in range(3)]
        endpoints = [project_point(K, pose, endpoint(i)) for i in range(3)]
    except (NonPositiveDepth, DegenerateAxis):
        return False
    w, h = K.width, K.height
    mx, my = sampling.origin_margin_frac * w, sampling.origin_margin_frac * h
    if not (mx <= origin[0] <= w - 1 - mx and my <= origin[1] <= h - 1 - my):
        return False
    for p in endpoints:
        if not (0 <= p[0] <= w - 1 and 0 <= p[1] <= h - 1):
            return False
    return bool(np.min(lengths) >= sampling.min_axis_px)


@pytest.mark.parametrize("size", [32, 128])
def test_pose_predicate_matches_twelve_projections(size):
    K = default_intrinsics(size)
    sampling = SamplingConfig()
    rng = np.random.default_rng(size)
    # the sampling distribution, then a wider one that reaches behind the camera
    candidates = [
        Pose(R=random_rotation(rng), T=[*rng.uniform(-0.35, 0.35, 2), rng.uniform(3.0, 5.0)]) for _ in range(1500)
    ]
    candidates += [
        Pose(R=random_rotation(rng), T=[*rng.uniform(-1.5, 1.5, 2), rng.uniform(0.2, 5.0)]) for _ in range(1000)
    ]
    candidates.append(Pose(R=np.eye(3), T=[0.0, 0.0, 4.0]))  # the Z axis projects to a point
    candidates.append(Pose(R=rot_y(180.0), T=[0.0, 0.0, 0.5]))  # the Z endpoint is behind the camera
    decisions = []
    for pose in candidates:
        for axis_len in (1.0, 0.4):
            ref = _twelve_projection_predicate(K, pose, sampling, axis_len)
            assert pose_is_nondegenerate(K, pose, sampling, axis_len) == ref
            decisions.append(ref)
    assert 100 < sum(decisions) < len(decisions) - 100


def test_render_caches_are_per_size_and_read_only(tmp_path):
    def render(size, out):
        cfg = dataclasses.replace(CFG, intrinsics=default_intrinsics(size))
        generate_dataset(cfg, 3, 2, out)
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    first = render(32, tmp_path / "a")
    render(128, tmp_path / "b")
    assert render(32, tmp_path / "c") == first
    with pytest.raises(ValueError):
        CFG.intrinsics.K[0, 2] += 1.0
    with pytest.raises(ValueError):
        _pixel_grid(32, 32)[0, 0, 0] = 1.0


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
    assert (back.intrinsics, back.render, back.degradation) == (manifest.intrinsics, manifest.render, CFG.degradation)
    for rec, rec2 in zip(manifest.records, back.records):
        assert rec.id == rec2.id
        assert np.allclose(rec.pose.R, rec2.pose.R, atol=1e-15)
        assert np.allclose(rec.pose.T, rec2.pose.T, atol=1e-15)
    for split, n in (("train", 3), ("test", 2)):
        for kind, shape in (("triaxis", (16, 16, 3)), ("query", (16, 16)), ("degraded", (16, 16))):
            img = load_images(tmp_path, back, split, kind)
            assert img.shape == (n, *shape)
            assert img.min() >= 0.0 and img.max() <= 1.0
            assert len({row.tobytes() for row in img}) == n  # one row per record
    ids = [r.id for r in back.records]
    assert len(set(ids)) == len(ids)


def test_load_images_returns_the_written_float32_rows(tmp_path):
    manifest = generate_dataset(CFG, n_train=2, n_test=1, out_dir=tmp_path)
    K, render = manifest.intrinsics, manifest.render
    for split in ("train", "test"):
        records = manifest.split(split)
        loaded = {kind: load_images(tmp_path, manifest, split, kind) for kind in ("triaxis", "query", "degraded")}
        for i, rec in enumerate(records):
            query = render_query(K, rec.pose)
            written = {
                "triaxis": render_triaxis(K, rec.pose, render.axis_len, render.thickness_px),
                "query": query,
                "degraded": apply_degradation(query, manifest.degradation, rec.seed),
            }
            for kind, rows in loaded.items():
                assert rows.dtype == np.float32
                assert np.array_equal(rows[i], written[kind].astype(np.float32))


def test_generate_dataset_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(CFG, 2, 1, a)
    generate_dataset(CFG, 2, 1, b)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_load_manifest_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)  # missing file
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(ManifestError, match="version None"):
        load_manifest(tmp_path)  # not an object
    generate_dataset(CFG, 1, 1, tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["version"] = 999
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)
    doc["version"] = 1  # per-record image files: refused, not misread
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="manifest version 1 is not supported"):
        load_manifest(tmp_path)
    doc["version"] = 2  # a copy of the degradation settings in every record: refused
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="manifest version 2 is not supported"):
        load_manifest(tmp_path)
    doc["version"] = 3
    doc["degradation"]["sigma"] = 0.1
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="'degradation.sigma'"):
        load_manifest(tmp_path)


def test_load_manifest_missing_image(tmp_path):
    generate_dataset(CFG, 2, 1, tmp_path)
    query = tmp_path / "images" / "train_query.f32"
    whole = query.read_bytes()
    query.write_bytes(whole[: 16 * 16 * 4])  # one record's rows of two
    with pytest.raises(ManifestError, match="train_query.f32 holds 1024 bytes, not the 2048 of 2 records"):
        load_manifest(tmp_path)
    query.write_bytes(whole)
    (tmp_path / "images" / "test_triaxis.f32").unlink()
    with pytest.raises(ManifestError, match="missing image file .*test_triaxis.f32"):
        load_manifest(tmp_path)


def test_malformed_record_is_named_by_index_and_id(tmp_path):
    # one bad record among several: the message says which one it is
    generate_dataset(CFG, 3, 2, tmp_path)
    path = tmp_path / "manifest.json"
    clean = path.read_text()
    doc = json.loads(clean)
    doc["records"][3]["pose"]["R"][0] = 2.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=r"R is not orthonormal \(record 3, id 'test_00000'\)$"):
        load_manifest(tmp_path)
    doc = json.loads(clean)
    del doc["records"][1]["id"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=r"malformed manifest .*: 'id' \(record 1\)$"):
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
    ({"opt": {"grad_clip": 1.0}}, "grad_clip"),  # older configs may still name it
    ({"render": {"axis_len": 0}}, "axis_len"),
    ({"render": {"thickness_px": -1}}, "thickness_px"),
    ({"guidance": {"rho_base": -2}}, "rho_base"),
    ({"guidance": {"sharpness": 0}}, "sharpness"),
    ({"schedule_T": 0}, "'schedule_T'"),
    ({"zeta_start": 0.0}, "'zeta_start'"),
    ({"zeta_start": 0.06}, "'zeta_start'"),  # above zeta_end
    ({"zeta_end": 1.0}, "'zeta_end'"),
    ({"sample_steps": 0}, "'sample_steps'"),
    ({"sample_steps": 201}, "'sample_steps'"),  # above schedule_T
    ({"degradation": {"seed": 3}}, "'degradation.seed'"),  # records draw from their own seeds
])
def test_run_config_rejects_unknown_keys(doc, key):
    with pytest.raises(ValueError) as exc:
        RunConfig.from_dict(doc)
    assert key in str(exc.value)
