"""Command-line front door: dataset generation, training, guided inference,
evaluation, and the oracle suite.

Subcommands: render-dataset, train, infer, eval, oracle. Flags of every
command but oracle: --config PATH, --seed N (eval reads the config and
ignores the seed), --out DIR. Every command takes --deterministic, which
forces single-threaded numerics; otherwise the environment variable
AXISFORGE_THREADS caps the BLAS worker count. Exit codes: 0 success,
1 usage error, 2 runtime failure, 3 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ANALYTIC_FIELD_VAR = 1e-4
INFER_BATCH = 32  # records sampled together by infer; guided records/s levels off above about 24

USAGE_EXIT = 1
RUNTIME_EXIT = 2
ORACLE_EXIT = 3


def _configure_threads(deterministic: bool) -> None:
    """Apply the thread cap before numpy (and its BLAS) is first imported:
    --deterministic sets every cap to 1, over any inherited value, while
    AXISFORGE_THREADS fills in only the caps that are unset."""
    if deterministic:
        os.environ.update(dict.fromkeys(_THREAD_ENV_VARS, "1"))
        return
    cap = os.environ.get("AXISFORGE_THREADS")
    if cap is not None:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, cap)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="axisforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help):
        p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument("--seed", type=int, help=seed_help)
        deterministic(p)

    def deterministic(p):
        p.add_argument("--deterministic", action="store_true", help="force single-threaded numerics")

    p = sub.add_parser("render-dataset", help="render a seeded synthetic dataset")
    common(p, "override the config seed")
    p.add_argument("--n-train", type=int, default=20)
    p.add_argument("--n-test", type=int, default=10)
    p.add_argument("--out", type=Path, required=True, help="dataset directory")

    p = sub.add_parser("train", help="train the conditional denoiser")
    common(p, "override the config seed")
    p.add_argument("--dataset", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--resume", type=Path, help="checkpoint whose weights to start from; Adam's moments and step "
                   "count, so its bias correction, restart from zero: not a continuation of the earlier run")

    p = sub.add_parser("infer", help="generate tri-axis images and solve poses")
    common(p, "override the config seed")
    p.add_argument("--dataset", type=Path, required=True, help="dataset directory")
    p.add_argument("--checkpoint", type=Path, help="trained denoiser checkpoint")
    p.add_argument(
        "--analytic-denoiser",
        action="store_true",
        help="use the exact posterior mean of a Gaussian centred on each ground-truth tri-axis",
    )
    p.add_argument(
        "--guidance",
        dest="guidance",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="enable geometric-consistency guidance",
    )
    p.add_argument("--out", type=Path, required=True, help="predictions directory")

    p = sub.add_parser("eval", help="score predictions against the dataset")
    common(p, "accepted and ignored: eval draws nothing at random")
    p.add_argument("--dataset", type=Path, required=True, help="dataset directory")
    p.add_argument("--predictions", type=Path, required=True, help="predictions directory")
    p.add_argument(
        "--compare",
        type=Path,
        help="second predictions directory for a paired-delta summary",
    )
    p.add_argument("--out", type=Path, help="directory for report files")

    p = sub.add_parser("oracle", help="run the property-oracle suite")
    deterministic(p)
    p.add_argument("--only", nargs="*", help="subset of oracle names")
    return parser


def _load_config(args):
    from .config import RunConfig, load_config

    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _require_resolution(cfg, manifest) -> None:
    size = cfg.arch.image_size
    k = manifest.intrinsics
    if (k.width, k.height) != (size, size):
        raise SystemExit(
            f"architecture expects {size}x{size} images but the dataset is "
            f"{k.width}x{k.height}"
        )


def _require_checkpoint(cfg, den) -> None:
    """The checkpoint owns its schedule and architecture: refuse a config
    that names others."""
    for what, ours, theirs in (
        ("schedule", cfg.schedule().to_dict(), den.sched.to_dict()),
        ("arch", cfg.arch.to_dict(), den.arch.to_dict()),
    ):
        if ours != theirs:
            raise SystemExit(f"config {what} {ours} differs from the checkpoint's {what} {theirs}")


def cmd_render_dataset(args) -> int:
    from .config import save_config
    from .dataset import generate_dataset

    cfg = _load_config(args)
    manifest = generate_dataset(cfg, args.n_train, args.n_test, args.out)
    save_config(args.out / "config.json", cfg)
    print(f"wrote {len(manifest.records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .dataset import load_images, load_manifest
    from .denoiser import load_checkpoint, save_checkpoint, train_denoiser
    from .render import atomic_write

    cfg = _load_config(args)
    manifest = load_manifest(args.dataset)
    _require_resolution(cfg, manifest)
    if not manifest.split("train"):
        raise SystemExit("dataset has no train split")
    x0s, conds = (load_images(args.dataset, manifest, "train", kind) for kind in ("triaxis", "query"))
    sched = cfg.schedule()
    start = None
    if args.resume:
        start = load_checkpoint(args.resume)
        _require_checkpoint(cfg, start)
    rng = np.random.default_rng(cfg.seed)
    result = train_denoiser(x0s, conds, cfg.arch, cfg.opt, sched, rng, start_from=start)

    args.out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out / "checkpoint.bin", result.denoiser)
    with atomic_write(args.out / "train_log.jsonl") as f:
        for rec in result.log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(
        f"trained {cfg.opt.steps} steps: loss {result.initial_loss:.4g} -> "
        f"{result.final_loss:.4g}; checkpoint at {args.out / 'checkpoint.bin'}"
    )
    return 0


def cmd_infer(args) -> int:
    import numpy as np

    from .camera import AxisObservation
    from .dataset import load_images, load_manifest, record_seed
    from .denoiser import load_checkpoint
    from .diffusion import GaussianDenoiser, sample
    from .errors import AxisForgeError
    from .extraction import extract_axes_hard
    from .render import atomic_write, save_f32
    from .solver import recover_pose

    if bool(args.checkpoint) == bool(args.analytic_denoiser):
        raise SystemExit("pass exactly one of --checkpoint / --analytic-denoiser")
    cfg = _load_config(args)
    manifest = load_manifest(args.dataset)
    records = manifest.split("test")
    if not records:
        raise SystemExit("dataset has no 'test' split")
    K = manifest.intrinsics
    sched = cfg.schedule()
    den = None
    if args.checkpoint:
        den = load_checkpoint(args.checkpoint)
        _require_resolution(cfg, manifest)
        _require_checkpoint(cfg, den)

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "images").mkdir(exist_ok=True)
    lines = {rec.id: {"id": rec.id} for rec in records}

    def fail(rec, exc):
        lines[rec.id].update({"ok": False, "error": type(exc).__name__, "message": str(exc)})
        exc.__traceback__ = None  # an error kept in an observation would keep this frame and its denoiser alive

    # only a guided run reads the ground-truth target, so only it can fail on one
    guidance = cfg.guidance if args.guidance and cfg.guidance.rho_base > 0 else None
    gt_triaxes = load_images(args.dataset, manifest, "test", "triaxis")
    conds = load_images(args.dataset, manifest, "test", "degraded")
    targets, rows = None, range(len(records))
    if guidance is not None:  # at most INFER_BATCH targets widened to float64 at once
        parts = [extract_axes_hard(gt_triaxes[i : i + INFER_BATCH]) for i in range(0, len(records), INFER_BATCH)]
        targets = AxisObservation.concatenate(parts)
        for rec, exc in zip(records, targets.errors):
            if exc is not None:
                fail(rec, exc)
        rows = [i for i, exc in enumerate(targets.errors) if exc is None]
    rngs = [np.random.default_rng(record_seed(cfg.seed, rec.id)) for rec in records]

    # the surviving records are sampled in batches: one denoiser pass per step for the batch
    for start in range(0, len(rows), INFER_BATCH):
        chunk = rows[start : start + INFER_BATCH]
        batch_den = den
        if args.analytic_denoiser:
            means = gt_triaxes[chunk]
            batch_den = GaussianDenoiser(means, np.full(means.shape, ANALYTIC_FIELD_VAR), sched)
        images, norms, errors = sample(
            batch_den,
            conds[chunk],
            None if targets is None else targets.take(chunk),
            guidance,
            sched,
            steps=cfg.sample_steps,
            rngs=[rngs[i] for i in chunk],
            shape=(K.height, K.width),
        )
        observed = extract_axes_hard(images)
        for b, (i, image, record_norms, record_errors) in enumerate(zip(chunk, images, norms, errors)):
            rec = records[i]
            save_f32(args.out / "images" / f"{rec.id}_gen.f32", image)
            reasons = [type(exc).__name__ for exc in record_errors if exc is not None]
            lines[rec.id].update(
                skipped_guidance_steps=len(reasons),
                guidance_skips={reason: reasons.count(reason) for reason in reasons},
                mean_guidance_norm=float(np.mean(record_norms)),
            )
            try:
                pose = recover_pose(observed.record(b), K, scale_lambda_O=float(rec.pose.T[2]))  # ground-truth depth
            except AxisForgeError as exc:
                fail(rec, exc)
                continue
            lines[rec.id].update(
                {
                    "ok": True,
                    "R": [float(v) for v in pose.R.ravel()],
                    "T": [float(v) for v in pose.T],
                }
            )
    n_fail = sum(1 for line in lines.values() if not line["ok"])
    with atomic_write(args.out / "predictions.jsonl") as out:
        for rec in records:
            out.write(json.dumps(lines[rec.id], sort_keys=True) + "\n")
    print(f"inferred {len(records)} records ({n_fail} failed) into {args.out}")
    return 0


def _finite_numbers(value, n: int) -> bool:
    """value is a list of n finite JSON numbers. The bound is compared, not
    converted, so an integer too large for a float is refused, not raised."""
    return isinstance(value, list) and len(value) == n and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value
    )


def _load_predictions(pred_dir: Path, records) -> dict[str, dict]:
    """Prediction lines by record id, each id on one line and naming one of
    records. A solved line also gets its Pose under "pose", built as it is
    read, so that an R that is not a rotation is refused at its line."""
    import numpy as np

    from .camera import Pose

    path = pred_dir / "predictions.jsonl"
    if not path.is_file():
        raise SystemExit(f"missing {path}")
    ids = {rec.id for rec in records}
    preds = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except ValueError as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}")
            if not (
                isinstance(rec, dict) and isinstance(rec.get("id"), str) and isinstance(rec.get("ok"), bool)
                and (not rec["ok"] or (_finite_numbers(rec.get("R"), 9) and _finite_numbers(rec.get("T"), 3)))
            ):
                raise SystemExit(
                    f"{path}:{lineno}: a prediction is an object with id, a boolean ok and, when ok is true, "
                    "R of 9 and T of 3 finite numbers"
                )
            if rec["ok"]:
                try:  # R must be orthonormal with determinant +1
                    rec["pose"] = Pose(R=np.reshape(rec["R"], (3, 3)), T=rec["T"])
                except ValueError as exc:
                    raise SystemExit(f"{path}:{lineno}: {exc}")
            if rec["id"] not in ids:
                raise SystemExit(f"{path}:{lineno}: id {rec['id']!r} names no test record of the dataset")
            if rec["id"] in preds:
                raise SystemExit(f"{path}:{lineno}: a second prediction for id {rec['id']!r}")
            preds[rec["id"]] = rec
    return preds


def _report_for(manifest, records, preds):
    from .metrics import cuboid_model, evaluate_suite

    model = cuboid_model()
    pairs, ids = [], []
    n_failed = 0
    missing = []
    for rec in records:
        pred = preds.get(rec.id)
        if pred is None:
            missing.append(rec.id)
            n_failed += 1
            continue
        if not pred["ok"]:
            n_failed += 1
            continue
        pairs.append((rec.pose, pred["pose"]))
        ids.append(rec.id)
    report = evaluate_suite(pairs, model, manifest.intrinsics, ids=ids, n_failed=n_failed)
    return report, missing


def cmd_eval(args) -> int:
    from .dataset import load_manifest
    from .render import atomic_write

    _load_config(args)  # eval reads no setting, but a bad --config is still an error
    manifest = load_manifest(args.dataset)
    records = manifest.split("test")
    if not records:
        raise SystemExit("dataset has no 'test' split")
    report, missing = _report_for(manifest, records, _load_predictions(args.predictions, records))
    for rid in missing:
        print(f"MissingPrediction: {rid}")
    agg = report.aggregates()
    print(report.summary_csv(), end="")

    delta = None
    if args.compare:
        other, _ = _report_for(manifest, records, _load_predictions(args.compare, records))
        delta = {
            k: agg[k] - other.aggregates()[k]
            for k in ("add_rate", "reproj_rate", "median_rot_deg", "median_reproj_px")
        }
        print("paired delta (predictions - compare):")
        print(json.dumps(delta, sort_keys=True))

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        with atomic_write(args.out / "records.jsonl") as f:
            for rec in report.records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        doc = {"aggregates": agg, "missing": missing}
        if delta is not None:
            doc["paired_delta"] = delta
        with atomic_write(args.out / "report.json") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        with atomic_write(args.out / "summary.csv") as f:
            f.write(report.summary_csv())
    return 0


def cmd_oracle(args) -> int:
    from .oracle import run_all

    t0 = time.perf_counter()
    try:
        results = run_all(args.only or None)
    except ValueError as exc:  # an unknown oracle name
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status} {r.name}: tolerance [{r.tolerance}] measured [{r.measured}] ({r.seconds:.2f}s)")
    print(f"{len(results) - failures}/{len(results)} oracles passed in {time.perf_counter() - t0:.1f}s")
    return ORACLE_EXIT if failures else 0


_COMMANDS = {
    "render-dataset": cmd_render_dataset,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_threads(args.deterministic)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return RUNTIME_EXIT
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        from .errors import AxisForgeError

        if isinstance(exc, (AxisForgeError, OSError, ValueError)):
            print(f"error: {exc}", file=sys.stderr)
            return RUNTIME_EXIT
        raise


if __name__ == "__main__":
    sys.exit(main())
