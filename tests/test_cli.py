import json
import os

import numpy as np
import pytest

from axisforge.cli import _THREAD_ENV_VARS, _configure_threads, main

CONFIG = {
    "intrinsics": {"f_x": 12.5, "f_y": 12.5, "c_x": 8.0, "c_y": 8.0, "width": 16, "height": 16},
    "sampling": {"depth_min": 2.0, "depth_max": 2.8, "lateral": 0.2, "min_axis_px": 5.0},
    "degradation": {"occlusion_frac": 0.1},
    "arch": {"image_size": 16, "hidden": 32, "time_embed_dim": 8},
    "opt": {"steps": 30, "batch_size": 8, "lr": 0.001, "log_every": 10},
    "schedule_T": 200,
    "zeta_start": 0.0001,
    "zeta_end": 0.05,
    "sample_steps": 50,
    "seed": 11,
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CONFIG))
    return p


def _render(tmp_path, config_path, name="data", n_train=2, n_test=2):
    out = tmp_path / name
    rc = main([
        "render-dataset", "--config", str(config_path),
        "--n-train", str(n_train), "--n-test", str(n_test), "--out", str(out),
    ])
    assert rc == 0
    return out


def test_render_dataset_outputs(tmp_path, config_path, capsys):
    out = _render(tmp_path, config_path)
    assert (out / "manifest.json").is_file()
    assert (out / "config.json").is_file()
    names = sorted(p.name for p in (out / "images").iterdir())
    kinds = ("triaxis", "query", "degraded")
    assert names == sorted(f"{split}_{kind}.f32" for split in ("train", "test") for kind in kinds)
    assert "wrote 4 records" in capsys.readouterr().out


def test_render_dataset_deterministic(tmp_path, config_path):
    a = _render(tmp_path, config_path, "a")
    b = _render(tmp_path, config_path, "b")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_analytic_infer_and_eval(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    pred = tmp_path / "pred"
    rc = main([
        "infer", "--config", str(config_path), "--dataset", str(data),
        "--analytic-denoiser", "--out", str(pred),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in (pred / "predictions.jsonl").read_text().splitlines()]
    assert len(lines) == 2  # test split only
    assert all(l["ok"] for l in lines)
    # each record says whether guidance acted: skips by reason and the mean
    # correction norm over its 50 steps
    for l in lines:
        assert l["skipped_guidance_steps"] == sum(l["guidance_skips"].values())
        assert l["mean_guidance_norm"] > 0.0

    report_dir = tmp_path / "report"
    rc = main([
        "eval", "--config", str(config_path), "--dataset", str(data),
        "--predictions", str(pred), "--out", str(report_dir),
    ])
    assert rc == 0
    report = json.loads((report_dir / "report.json").read_text())
    # near-perfect analytic denoiser: every pose recovered within threshold
    assert report["aggregates"]["reproj_rate"] == 1.0
    assert (report_dir / "summary.csv").is_file()
    assert (report_dir / "records.jsonl").is_file()
    capsys.readouterr()


def test_analytic_infer_on_a_non_square_camera(tmp_path, capsys):
    config = tmp_path / "wide.json"
    camera = {"f_x": 20.0, "f_y": 20.0, "c_x": 12.0, "c_y": 11.5, "width": 24, "height": 23}
    config.write_text(json.dumps({"intrinsics": camera, "sample_steps": 5}))
    data = _render(tmp_path, config)
    pred = tmp_path / "pred"
    rc = main(["infer", "--config", str(config), "--dataset", str(data), "--analytic-denoiser", "--out", str(pred)])
    assert rc == 0
    assert all(json.loads(line)["ok"] for line in (pred / "predictions.jsonl").read_text().splitlines())
    capsys.readouterr()


def test_infer_runs_the_sampler_and_soft_extraction_by_name(tmp_path, monkeypatch, capsys):
    # a wrapper set on each module attribute and on every by-name binding of
    # it, as a tracer sets one, sees one sample call per chunk of records,
    # one soft extraction and one adjoint per guided step, and one hard
    # extraction per INFER_BATCH targets and per chunk of generated images.
    # The chunks are INFER_BATCH runs of the records whose target extracts,
    # in manifest order, across the target slices
    import sys

    from axisforge import cli, diffusion, extraction

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "sample_steps": 5}))
    data = _render(tmp_path, config, n_test=6)
    path = data / "images" / "test_triaxis.f32"
    triaxes = np.fromfile(path, dtype="<f4").reshape(6, 16, 16, 3)
    triaxes[1] = 0.0  # EmptyChannel: record 1 is never sampled
    triaxes.tofile(path)
    queries = np.fromfile(data / "images" / "test_degraded.f32", dtype="<f4").reshape(6, 16, 16)
    surviving = [i for i, exc in enumerate(extraction.extract_axes_hard(triaxes).errors) if exc is None]
    assert 1 not in surviving and len(surviving) >= 4
    counts = dict.fromkeys(("sample", "extract_axes_soft", "soft_extract_vjp", "extract_axes_hard"), 0)
    chunks = []  # the records of each sample call, by their condition
    for module, name in (
        (diffusion, "sample"),
        (extraction, "extract_axes_soft"),
        (extraction, "soft_extract_vjp"),
        (extraction, "extract_axes_hard"),
    ):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            if _name == "sample":
                chunks.append([next(i for i, q in enumerate(queries) if np.array_equal(q, cond)) for cond in args[1]])
            return _fn(*args, **kwargs)

        for owner in [m for key, m in sys.modules.items() if key.startswith("axisforge.")]:
            if getattr(owner, name, None) is fn:
                monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(cli, "INFER_BATCH", 2)
    pred = tmp_path / "pred"
    rc = main(["infer", "--config", str(config), "--dataset", str(data), "--analytic-denoiser", "--out", str(pred)])
    assert rc == 0
    # a record whose ground-truth target does not extract is never sampled
    lines = [json.loads(line) for line in (pred / "predictions.jsonl").read_text().splitlines()]
    assert [i for i, line in enumerate(lines) if "skipped_guidance_steps" in line] == surviving
    assert lines[1]["error"] == "EmptyChannel"
    assert chunks == [surviving[i : i + 2] for i in range(0, len(surviving), 2)]
    assert counts == {
        "sample": len(chunks),
        "extract_axes_soft": 5 * len(chunks),
        "soft_extract_vjp": 5 * len(chunks),
        "extract_axes_hard": 3 + len(chunks),  # 6 targets in slices of 2, then each chunk
    }
    capsys.readouterr()


def test_infer_frees_its_frame_when_a_record_fails(tmp_path, capsys):
    # a failed record's error is kept in its observation and raised from
    # there; with its traceback it would keep infer's frame, and with it the
    # denoiser, alive until the next garbage collection
    import gc
    import types

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "sample_steps": 5}))
    data = _render(tmp_path, config, n_test=4)
    pred = tmp_path / "pred"
    gc.collect()
    gc.disable()
    try:
        rc = main(["infer", "--config", str(config), "--dataset", str(data), "--analytic-denoiser", "--out", str(pred)])
        frames = [o for o in gc.get_objects() if isinstance(o, types.FrameType) and o.f_code.co_name == "cmd_infer"]
    finally:
        gc.enable()
    assert rc == 0 and '"ok": false' in (pred / "predictions.jsonl").read_text()
    assert frames == []
    capsys.readouterr()


def test_infer_requires_exactly_one_denoiser(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    rc = main([
        "infer", "--config", str(config_path), "--dataset", str(data),
        "--out", str(tmp_path / "p"),
    ])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_train_and_resume(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    run1 = tmp_path / "run1"
    rc = main([
        "train", "--config", str(config_path), "--dataset", str(data),
        "--out", str(run1), "--deterministic",
    ])
    assert rc == 0
    assert (run1 / "checkpoint.bin").is_file()
    log = [json.loads(l) for l in (run1 / "train_log.jsonl").read_text().splitlines()]
    assert log[-1]["step"] == CONFIG["opt"]["steps"]

    run2 = tmp_path / "run2"
    rc = main([
        "train", "--config", str(config_path), "--dataset", str(data),
        "--out", str(run2), "--resume", str(run1 / "checkpoint.bin"), "--deterministic",
    ])
    assert rc == 0
    assert (run2 / "checkpoint.bin").is_file()
    capsys.readouterr()


def test_trained_infer_records_failures_without_aborting(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    run = tmp_path / "run"
    assert main([
        "train", "--config", str(config_path), "--dataset", str(data),
        "--out", str(run), "--deterministic",
    ]) == 0
    pred = tmp_path / "pred"
    rc = main([
        "infer", "--config", str(config_path), "--dataset", str(data),
        "--checkpoint", str(run / "checkpoint.bin"), "--out", str(pred),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in (pred / "predictions.jsonl").read_text().splitlines()]
    assert len(lines) == 2
    for l in lines:
        assert l["ok"] or ("error" in l and "message" in l)
        assert l["skipped_guidance_steps"] == sum(l["guidance_skips"].values())  # sampled, ok or not
    capsys.readouterr()


def test_eval_reports_missing_predictions(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "predictions.jsonl").write_text("")  # no predictions at all
    rc = main([
        "eval", "--config", str(config_path), "--dataset", str(data),
        "--predictions", str(pred),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("MissingPrediction") == 2


def test_eval_missing_predictions_file(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    rc = main([
        "eval", "--config", str(config_path), "--dataset", str(data),
        "--predictions", str(tmp_path / "nope"),
    ])
    assert rc == 2
    capsys.readouterr()
    # a malformed line is a runtime error naming the file and line
    pred = tmp_path / "pred"
    pred.mkdir()
    other_id, rec_id = (r["id"] for r in json.loads((data / "manifest.json").read_text())["records"][-2:])
    pose = {"id": rec_id, "ok": True, "R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "T": [0.0, 0.0, 2.4]}
    unscorable = [  # R or T not 9 and 3 finite numbers or R not a rotation, or ok not a boolean
        {**pose, "R": [float("nan")] * 9},  # scored 0 deg of rotation error before
        {**pose, "T": [0.0, float("inf"), 2.4]},
        {**pose, "R": pose["R"][:8]},
        {**pose, "T": [0, 0, True]},
        {**pose, "R": [10**400] + pose["R"][1:]},
        {**pose, "ok": "false"},  # counted as solved before
        {**pose, "R": [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},  # not orthonormal
        {**pose, "R": [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},  # a reflection, determinant -1
    ]
    for bad in (
        "[1]", '{"ok": false}', f'{{"id": "{rec_id}"}}', f'{{"id": "{rec_id}", "ok": true}}', "{",
        f'{{"id": "{other_id}", "ok": false}}',  # the first line's id again
        *map(json.dumps, unscorable),
    ):
        (pred / "predictions.jsonl").write_text(f'{{"id": "{other_id}", "ok": false}}\n{bad}\n')
        rc = main([
            "eval", "--config", str(config_path), "--dataset", str(data), "--predictions", str(pred),
        ])
        assert rc == 2
        assert "predictions.jsonl:2: " in capsys.readouterr().err


def test_eval_refuses_ids_that_name_no_test_record(tmp_path, config_path, capsys):
    # a prediction set written for another dataset scored as all missing, exit 0
    data = _render(tmp_path, config_path)
    train_id, _, *test_ids = (r["id"] for r in json.loads((data / "manifest.json").read_text())["records"])
    good = tmp_path / "good"
    good.mkdir()
    (good / "predictions.jsonl").write_text("".join(f'{{"id": "{rid}", "ok": false}}\n' for rid in test_ids))
    for stranger in ("no_such_record", train_id):  # an unknown id, and a record of the train split
        bad = tmp_path / "bad"
        bad.mkdir(exist_ok=True)
        (bad / "predictions.jsonl").write_text(f'{{"id": "{test_ids[0]}", "ok": false}}\n{{"id": "{stranger}", "ok": false}}\n')
        for flags in (["--predictions", str(bad)], ["--predictions", str(good), "--compare", str(bad)]):
            rc = main(["eval", "--config", str(config_path), "--dataset", str(data), *flags])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"{bad / 'predictions.jsonl'}:2: id {stranger!r} names no test record" in err
    rc = main(["eval", "--config", str(config_path), "--dataset", str(data), "--predictions", str(good)])
    assert rc == 0


def test_rho_base_zero_matches_no_guidance(tmp_path, config_path):
    data = _render(tmp_path, config_path)
    rho0 = tmp_path / "rho0.json"
    rho0.write_text(json.dumps({**CONFIG, "guidance": {"rho_base": 0.0}}))
    outs = []
    for cfg, flags in ((rho0, []), (config_path, ["--no-guidance"])):
        out = tmp_path / f"pred{len(outs)}"
        rc = main([
            "infer", "--config", str(cfg), "--dataset", str(data), "--analytic-denoiser", *flags, "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert [str(f) for f in files if f.suffix == ".jsonl"] == ["predictions.jsonl"]
    assert sum(f.name.endswith("_gen.f32") for f in files) == 2
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_unguided_infer_samples_a_record_whose_target_fails(tmp_path, config_path):
    # only guidance reads the ground-truth tri-axis: without it, a record
    # whose target fails hard extraction is still sampled
    data = _render(tmp_path, config_path)
    path = data / "images" / "test_triaxis.f32"
    rows = np.fromfile(path, dtype="<f4").reshape(2, 16, 16, 3)
    rows[0, :, :, 2] = 0.0
    rows.tofile(path)
    for flags in (["--no-guidance"], []):
        out = tmp_path / f"pred{len(flags)}"
        rc = main(["infer", "--config", str(config_path), "--dataset", str(data), "--analytic-denoiser", *flags, "--out", str(out)])
        assert rc == 0
        failing, healthy = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        sampled = bool(flags)  # a guided run fails the record before sampling it
        assert (out / "images" / f"{failing['id']}_gen.f32").is_file() == sampled
        assert ("skipped_guidance_steps" in failing) == sampled
        assert sampled or failing["error"] == "EmptyChannel"
        assert healthy["ok"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_runtime_error_exit_code(tmp_path, config_path, capsys):
    rc = main([
        "train", "--config", str(config_path),
        "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    capsys.readouterr()
    data = _render(tmp_path, config_path)  # a dataset of the previous format
    doc = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps({**doc, "version": 1}))
    capsys.readouterr()
    for argv in (["train"], ["infer", "--analytic-denoiser"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--config", str(config_path), "--dataset", str(data), "--out", str(out)])
        assert rc == 2
        assert "manifest version 1 is not supported" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_pose_in_manifest_exits_2(tmp_path, config_path, capsys):
    # a NaN depth once ran through infer to "ok": true with a NaN T, which
    # eval then refused as infer's own output
    data = _render(tmp_path, config_path)
    path = data / "manifest.json"
    clean = json.loads(path.read_text())
    for field, index, value in (("T", 2, float("nan")), ("R", 0, float("inf"))):
        doc = json.loads(json.dumps(clean))
        doc["records"][-1]["pose"][field][index] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["infer", "--analytic-denoiser"], ["eval", "--predictions", str(tmp_path / "pred")]):
            out = tmp_path / argv[0]
            rc = main([*argv, "--config", str(config_path), "--dataset", str(data), "--out", str(out)])
            assert rc == 2
            assert f"malformed manifest {path}: R and T must be finite" in capsys.readouterr().err
            assert not out.exists()


def test_repeated_record_id_in_manifest_exits_2(tmp_path, config_path, capsys):
    # infer once wrote two lines for the id, one record's result and image
    # overwriting the other's, and eval then refused infer's own output
    data = _render(tmp_path, config_path, n_train=2, n_test=3)
    path = data / "manifest.json"
    doc = json.loads(path.read_text())
    first, second = [r for r in doc["records"] if r["split"] == "test"][:2]
    second["id"] = first["id"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["train"], ["infer", "--analytic-denoiser"], ["eval", "--predictions", str(tmp_path / "pred")]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--config", str(config_path), "--dataset", str(data), "--out", str(out)])
        assert rc == 2
        assert f"{path}: record id '{first['id']}' appears more than once" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), -0.5, 2.0])
@pytest.mark.parametrize("command, image", [
    ("infer", "test_triaxis"), ("infer", "test_degraded"), ("train", "train_triaxis"),
])
def test_dataset_image_outside_unit_range_exits_2(tmp_path, config_path, capsys, value, command, image):
    # a NaN pixel once passed the range check, and guided infer wrote a bare
    # "mean_guidance_norm": NaN, which is not JSON; the degraded query was
    # not checked at all
    data = _render(tmp_path, config_path)
    path = data / "images" / f"{image}.f32"
    rows = np.fromfile(path, dtype="<f4")
    rows[len(rows) // 2] = value
    rows.tofile(path)
    capsys.readouterr()
    argv = [command, "--analytic-denoiser"] if command == "infer" else [command]
    out = tmp_path / "out"
    rc = main([*argv, "--config", str(config_path), "--dataset", str(data), "--out", str(out)])
    assert rc == 2
    assert f"image file {path} holds a value that is NaN or outside [0, 1]" in capsys.readouterr().err
    assert not (out / "predictions.jsonl").exists() and not (out / "checkpoint.bin").exists()


def test_eval_reads_its_config(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "predictions.jsonl").write_text("")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degradation": {"seed": 3}}))
    capsys.readouterr()
    for config, message in ((tmp_path / "nonexistent.json", "nonexistent.json"), (bad, "'degradation.seed'")):
        rc = main(["eval", "--config", str(config), "--seed", "5", "--dataset", str(data), "--predictions", str(pred)])
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--config", "x"], ["--seed", "5"]])
def test_oracle_takes_no_config_or_seed(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *flag, "--only", "schedule-abar"])
    assert exc.value.code == 1
    assert flag[0] in capsys.readouterr().err


def test_oracle_subset(capsys):
    rc = main(["oracle", "--only", "schedule-abar", "project-axes-consistency"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS schedule-abar" in out
    assert "PASS project-axes-consistency" in out


@pytest.mark.parametrize("command", ["infer", "train"])
@pytest.mark.parametrize("override, ours, theirs", [
    ({"schedule_T": 400}, "'T': 400", "'T': 200"),
    ({"zeta_end": 0.06}, "'zeta_end': 0.06", "'zeta_end': 0.05"),
])
def test_checkpoint_schedule_mismatch_exits_2(tmp_path, config_path, capsys, command, override, ours, theirs):
    data = _render(tmp_path, config_path)
    run = tmp_path / "run"
    assert main([
        "train", "--config", str(config_path), "--dataset", str(data),
        "--out", str(run), "--deterministic",
    ]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**CONFIG, **override}))
    capsys.readouterr()
    ckpt = str(run / "checkpoint.bin")
    flag = "--checkpoint" if command == "infer" else "--resume"
    out = tmp_path / "out"
    rc = main([
        command, "--config", str(other), "--dataset", str(data),
        flag, ckpt, "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert ours in err and theirs in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "train"])
@pytest.mark.parametrize("field, ours, theirs", [("hidden", 16, 32), ("time_embed_dim", 4, 8)])
def test_checkpoint_arch_mismatch_exits_2(tmp_path, config_path, capsys, command, field, ours, theirs):
    data = _render(tmp_path, config_path)
    run = tmp_path / "run"
    assert main([
        "train", "--config", str(config_path), "--dataset", str(data),
        "--out", str(run), "--deterministic",
    ]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**CONFIG, "arch": {**CONFIG["arch"], field: ours}}))
    capsys.readouterr()
    flag = "--checkpoint" if command == "infer" else "--resume"
    out = tmp_path / "out"
    rc = main([
        command, "--config", str(other), "--dataset", str(data),
        flag, str(run / "checkpoint.bin"), "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{field}': {ours}" in err and f"'{field}': {theirs}" in err
    assert not out.exists()


def test_partial_intrinsics_exits_2(tmp_path, capsys):
    config = tmp_path / "camera.json"
    config.write_text(json.dumps({"intrinsics": {"f_x": 20.0}}))
    rc = main(["render-dataset", "--config", str(config), "--out", str(tmp_path / "data")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing f_y, c_x, c_y, width, height" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    for override, message in (
        ({"guidance": {"rho": 2.0}}, "guidance.rho"),
        # out-of-range values: before they were checked, these rendered all-zero tri-axis images
        ({"render": {"thickness_px": -1}, "guidance": {"rho_base": -2, "sharpness": 0}}, "thickness_px"),
        ({"guidance": {"rho_base": -2, "sharpness": 0}}, "rho_base"),
        ({"schedule_T": 0}, "'schedule_T'"),  # unchecked, it was written into the dataset's config.json
    ):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({**CONFIG, **override}))
        rc = main(["render-dataset", "--config", str(config), "--out", str(tmp_path / "data")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command, key, spelling", [
    # exit 0, writing bare "mean_guidance_norm": NaN lines, which are not JSON
    ("infer", "guidance.rho_base", "Infinity"),
    # exit 2, blaming "1000 consecutive pose rejections"
    ("render-dataset", "intrinsics.c_x", "NaN"),
    # exit 0, with every tri-axis pixel 1.0
    ("render-dataset", "render.thickness_px", "Infinity"),
    ("render-dataset", "render.thickness_px", "1e999"),  # json reads it as inf
    ("render-dataset", "degradation.noise_sigma", '"inf"'),
    ("render-dataset", "guidance.sharpness", '"nan"'),
])
def test_non_finite_config_float_exits_2(tmp_path, config_path, capsys, command, key, spelling):
    doc = json.loads(json.dumps(CONFIG))
    *sections, field = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[field] = "@"
    config = tmp_path / "non_finite.json"
    config.write_text(json.dumps(doc).replace('"@"', spelling))
    argv = ["render-dataset"]
    if command == "infer":
        argv = ["infer", "--dataset", str(_render(tmp_path, config_path)), "--analytic-denoiser"]
    out = tmp_path / "out"
    rc = main([*argv, "--config", str(config), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config key '{key}' must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_non_finite_float_in_manifest_exits_2(tmp_path, config_path, capsys):
    # the refused key is named by its dotted path, as in a run config
    data = _render(tmp_path, config_path)
    path = data / "manifest.json"
    whole = path.read_text()
    for section, key, value in (("render", "thickness_px", float("inf")), ("intrinsics", "c_x", float("nan"))):
        doc = json.loads(whole)
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["infer", "--analytic-denoiser", "--config", str(config_path), "--dataset", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"malformed manifest {path}: config key '{section}.{key}' must be finite" in err
        assert not out.exists()


def test_infer_out_of_range_steps_exits_2_before_writing(tmp_path, config_path, capsys):
    # unchecked, infer made its output directory before the sampler refused
    data = _render(tmp_path, config_path)
    for steps in (0, 500):
        config = tmp_path / "steps.json"
        config.write_text(json.dumps({**CONFIG, "sample_steps": steps}))
        out = tmp_path / "out"
        rc = main(["infer", "--config", str(config), "--dataset", str(data), "--analytic-denoiser", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'sample_steps'" in err and "Traceback" not in err
        assert not out.exists()


def test_schedule_reaching_alpha_bar_1_exits_2_before_writing(tmp_path, config_path, capsys):
    # zeta_start below about 1.1e-16 rounds 1 - zeta to 1, and the DDIM step
    # at t = 1 would divide by sqrt(1 - alpha_bar) = 0: every image nan
    data = _render(tmp_path, config_path)
    config = tmp_path / "tiny_zeta.json"
    config.write_text(json.dumps({**CONFIG, "zeta_start": 1e-17}))
    for command in (["infer", "--analytic-denoiser"], ["train"]):
        out = tmp_path / f"out-{command[0]}"
        rc = main([*command, "--config", str(config), "--dataset", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha_bar" in err and "Traceback" not in err
        assert not out.exists()


def test_train_accepts_integral_floats(tmp_path, capsys):
    config = tmp_path / "floats.json"
    config.write_text(json.dumps({**CONFIG, "opt": {**CONFIG["opt"], "steps": 3.0, "batch_size": 2.0}}))
    data = _render(tmp_path, config)
    run = tmp_path / "run"
    rc = main(["train", "--config", str(config), "--dataset", str(data), "--out", str(run), "--deterministic"])
    assert rc == 0
    log = [json.loads(l) for l in (run / "train_log.jsonl").read_text().splitlines()]
    assert log[-1]["step"] == 3
    capsys.readouterr()


def test_oracle_unknown_name_exits_1(capsys):
    rc = main(["oracle", "--only", "geometry-roundtrip-100", "schedule-abar"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "geometry-roundtrip-100" in captured.err and "schedule-abar" not in captured.err
    assert "PASS" not in captured.out  # nothing ran


def test_invalid_opt_exits_2_before_training(tmp_path, config_path, capsys):
    data = _render(tmp_path, config_path)
    for key, value in (("steps", 0), ("log_every", 0), ("lr", -1)):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({**CONFIG, "opt": {**CONFIG["opt"], key: value}}))
        run = tmp_path / f"run-{key}"
        rc = main(["train", "--config", str(config), "--dataset", str(data), "--out", str(run)])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not run.exists()


def test_eval_scales_reprojection_threshold_to_the_camera(tmp_path, config_path, capsys):
    from axisforge.dataset import load_manifest
    from axisforge.metrics import reproj_threshold_px

    data = _render(tmp_path, config_path)
    exact, shifted = load_manifest(data).split("test")
    pred = tmp_path / "pred"
    pred.mkdir()
    lines = [
        {"id": rec.id, "ok": True, "R": rec.pose.R.ravel().tolist(), "T": (rec.pose.T + dt).tolist()}
        for rec, dt in ((exact, 0.0), (shifted, np.array([0.5, 0.0, 0.0])))
    ]
    (pred / "predictions.jsonl").write_text("".join(json.dumps(l) + "\n" for l in lines))
    report = tmp_path / "report"
    assert main(["eval", "--dataset", str(data), "--predictions", str(pred), "--out", str(report)]) == 0
    capsys.readouterr()
    records = [json.loads(l) for l in (report / "records.jsonl").read_text().splitlines()]
    threshold = reproj_threshold_px(load_manifest(data).intrinsics)
    assert threshold == 1.875  # 15 px at f = 100, here f = 12.5
    # the shifted pose misses by more than the scaled threshold but less than 15 px
    assert threshold < records[1]["reproj_px"] < 15.0
    assert [r["reproj_pass"] for r in records] == [True, False]
    assert json.loads((report / "report.json").read_text())["aggregates"]["reproj_rate"] == 0.5


def test_deterministic_overrides_inherited_thread_caps(monkeypatch):
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "4")
    _configure_threads(True)
    assert all(os.environ[var] == "1" for var in _THREAD_ENV_VARS)
