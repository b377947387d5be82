"""The benchmark's workloads, run through the public CLI (``axisforge.cli.main``).

A workload sets up its inputs (render a dataset; on ``infer-mlp`` also train
a checkpoint), then repeats one CLI stage for the requested seconds: ``infer``
with the checkpoint on ``infer-mlp``, ``train`` from scratch on ``train``.
Every call gets the workload seed as ``--seed``. After the timed calls,
``infer-mlp`` runs the pipeline's upper-bound reference, ``infer
--analytic-denoiser``, and scores both with ``eval --compare``. The untraced
run sets up in forked child processes, so that the peak resident set it
reports is that of the timed calls, and times the calls; the traced run
repeats them under ``tracing.Tracer`` for per-layer figures. Both check the
outputs: every call exits 0, repeated set-ups and calls give byte-identical
files, and the traced files equal the untraced ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from axisforge.cli import main  # imported once here, not in each set-up child
from tracing import Tracer, summarize

SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    stage: str  # CLI stage the run repeats: "infer" (with a trained checkpoint) or "train"
    n_train: int = 100  # rendered on every workload; many poses keep set-up times steady across seeds
    n_test: int = 20
    train_steps: int = 0  # steps of each train call: the set-up checkpoint or the timed stage
    config: dict = field(default_factory=dict)  # run-configuration overrides


# Defaults otherwise: 32 px, hidden 512, batch 32, 200-step schedule, 50
# sample steps, guidance on.
WORKLOADS = {
    # 30 steps: the fewest (of 10, 20, 30) at which guidance acts on some
    # steps, so that MLPDenoiser.vjp runs, at every seed tried (0-8)
    "infer-mlp": Workload(stage="infer", train_steps=30),
    "train": Workload(stage="train", train_steps=20),
}

# Tiny sizes for the smoke run: every code path, a fraction of the work.
SMOKE_CONFIG = {
    "arch": {"image_size": 32, "hidden": 16, "time_embed_dim": 8},
    "opt": {"batch_size": 4},
    "schedule_T": 20,
    "sample_steps": 4,
}


def smoke(workload: Workload) -> Workload:
    return replace(
        workload,
        n_train=2,
        n_test=3,
        train_steps=min(workload.train_steps, 2),
        config=SMOKE_CONFIG,
    )


# pose-quality figures of a workload that runs no infer
NO_INFER_QUALITY = {
    f"{label}.{key}": 0.0 for label in ("infer", "reference") for key in ("fail_frac", "reproj_rate", "add_rate")
}


class CallFailed(RuntimeError):
    """A CLI call exited non-zero."""


def digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, by relative path."""
    hashes = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            with p.open("rb") as f:  # streamed, so that hashing adds nothing to the peak resident set
                hashes[str(p.relative_to(root))] = hashlib.file_digest(f, "sha256").hexdigest()
    return hashes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def forked(fn):
    """fn() in a forked child process: returns its result or raises its
    exception. The child's memory does not count towards this process's
    peak resident set."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                result = (True, fn())
            except Exception as exc:
                result = (False, exc)
            with os.fdopen(write, "wb") as f:
                pickle.dump(result, f)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as f:
            data = f.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"forked child ended with wait status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


class Run:
    """One run of one workload at one seed, inside ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        shutil.rmtree(self.dir, ignore_errors=True)  # left by a killed run with the same pid
        self.dir.mkdir(parents=True)
        config = dict(workload.config)
        if workload.train_steps:
            config["opt"] = {**config.get("opt", {}), "steps": workload.train_steps}
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(config, sort_keys=True))

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def cli(self, *argv) -> float:
        """Wall seconds of one ``axisforge`` call; raises CallFailed unless it exits 0."""
        argv = [str(a) for a in argv] + ["--config", str(self.config), "--seed", str(self.seed)]
        self.attempted += 1
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        seconds = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise CallFailed(f"axisforge {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return seconds

    # --- steps ---

    def setup(self, base: Path) -> float:
        """Render the dataset (and train the checkpoint) under base; returns its seconds."""
        t0 = time.perf_counter()
        self.cli("render-dataset", "--n-train", self.w.n_train, "--n-test", self.w.n_test, "--out", base / "data")
        if self.w.stage == "infer":
            self.cli("train", "--dataset", base / "data", "--out", base / "ckpt")
        return time.perf_counter() - t0

    def setup_apart(self, base: Path) -> float:
        """setup() in a forked child, so that the set-up's memory (the
        checkpoint training on infer-mlp) stays out of peak_rss_mb."""

        def child():
            before = self.attempted
            return self.setup(base), self.attempted - before

        seconds, calls = forked(child)
        self.attempted += calls
        return seconds

    def stage(self, base: Path, out: Path) -> float:
        """One call of the timed stage on the inputs under base, writing to out."""
        if self.w.stage == "train":
            return self.cli("train", "--dataset", base / "data", "--out", out)
        return self.cli("infer", "--dataset", base / "data", "--checkpoint", base / "ckpt" / "checkpoint.bin", "--out", out)

    def measure(self, base: Path, seconds: float, tracer: Tracer | None = None) -> tuple[list[float], list[float], Path]:
        """One warm-up call, then repeated calls for `seconds`. With a tracer,
        each repeat is a plain call followed by a traced one, so host drift
        hits both alike. Returns the plain and the traced calls' seconds and
        the warm-up's output directory; every repeat must write the same
        bytes as the warm-up."""
        warmup = self.dir / "warmup"
        self.stage(base, warmup)
        want = digest(warmup)
        plain: list[float] = []
        traced: list[float] = []
        out = self.dir / "repeat"
        end = time.perf_counter() + seconds
        while not plain or time.perf_counter() < end:
            plain.append(self.stage(base, out))
            self.check("repeated stage calls give byte-identical outputs", digest(out) == want)
            shutil.rmtree(out)
            if tracer is not None:
                with tracer.active("call"):
                    traced.append(self.stage(base, out))
                self.check("traced stage calls give the untraced output", digest(out) == want)
                shutil.rmtree(out)
        return plain, traced, warmup

    def reference(self, base: Path) -> Path:
        """The upper-bound reference: guided infer with the analytic denoiser."""
        out = self.dir / "reference"
        self.cli("infer", "--dataset", base / "data", "--analytic-denoiser", "--out", out)
        return out

    def predictions(self, base: Path, out: Path, label: str, *compare) -> tuple[dict[str, float], Counter]:
        """Scores and per-record failure taxonomy of one infer output."""
        report = self.dir / f"report-{label}"
        self.cli("eval", "--dataset", base / "data", "--predictions", out, *compare, "--out", report)
        agg = json.loads((report / "report.json").read_text())["aggregates"]
        manifest = json.loads((base / "data" / "manifest.json").read_text())
        test_ids = [r["id"] for r in manifest["records"] if r["split"] == "test"]
        lines = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
        self.check("predictions.jsonl has one line per test record", [p["id"] for p in lines] == test_ids)
        failed = [p for p in lines if not p["ok"]]
        self.check(
            "eval report counts every record and failure",
            agg["n_total"] == len(test_ids) and agg["n_failed"] == len(failed),
        )
        # a record that failed after sampling has its generated image on disk
        taxonomy = Counter(
            f"{label} {'generated' if (out / 'images' / (p['id'] + '_gen.f32')).is_file() else 'target'}:{p['error']}"
            for p in failed
        )
        quality = {
            "fail_frac": len(failed) / len(lines),
            "reproj_rate": agg["reproj_rate"],
            "add_rate": agg["add_rate"],
            "median_reproj_px": agg["median_reproj_px"],
        }
        return {f"{label}.{k}": v for k, v in quality.items()}, taxonomy

    def outputs(self, base: Path, out: Path, reference: Path | None) -> tuple[dict[str, float], dict[str, int], int]:
        """Quality figures, the per-record failure taxonomy and the work items
        of one stage output. The items are the steps of a train call, or the
        records an infer call sampled: a record whose ground-truth tri-axis
        yields no target fails before sampling, at almost no cost, so counting
        it would make throughput depend on how many such records a seed draws."""
        log_dir = out if self.w.stage == "train" else base / "ckpt"
        running = json.loads((log_dir / "train_log.jsonl").read_text().splitlines()[-1])["running"]
        self.check("training loss is finite", math.isfinite(running))
        quality = {"train.final_loss": running, **NO_INFER_QUALITY}
        if self.w.stage == "train":
            return quality, {}, self.w.train_steps

        taxonomy: Counter = Counter()
        for label, pred, compare in (("infer", out, ["--compare", reference]), ("reference", reference, [])):
            scores, failures = self.predictions(base, pred, label, *compare)
            quality.update(scores)
            taxonomy.update(failures)
        sampled = self.w.n_test - sum(n for key, n in taxonomy.items() if key.startswith("infer target:"))
        return quality, dict(sorted(taxonomy.items())), sampled

    # --- the two kinds of run ---

    def untraced(self, seconds: float) -> dict:
        bases = [self.dir / f"setup{rep}" for rep in range(SETUP_REPS)]
        setup_s = [self.setup_apart(base) for base in bases]
        want = digest(bases[0])
        for base in bases[1:]:
            self.check("repeated set-ups give byte-identical datasets and checkpoints", digest(base) == want)
            shutil.rmtree(base)
        times, _, warmup = self.measure(bases[0], seconds)
        peak = peak_rss_mb()  # imports plus the timed calls: the set-ups ran in children
        reference = self.reference(bases[0]) if self.w.stage == "infer" else None
        quality, taxonomy, items = self.outputs(bases[0], warmup, reference)
        return {
            "metrics": {
                "setup_s": statistics.median(setup_s),
                "items_per_s": items / statistics.median(times),
                "peak_rss_mb": peak,
            },
            "quality": quality,
            "taxonomy": taxonomy,
            "setup_s": setup_s,
            "call_s": times,
        }

    def traced(self, seconds: float, spans_path: Path) -> dict:
        base = self.dir / "setup0"
        self.setup(base)
        tracer = Tracer()
        with tracer.active("setup"):
            self.setup(self.dir / "setup1")
        self.check("traced set-up equals the untraced set-up", digest(self.dir / "setup1") == digest(base))
        plain, traced, warmup = self.measure(base, seconds, tracer)
        reference = None
        if self.w.stage == "infer":
            with tracer.active("reference"):
                reference = self.reference(base)
        with tracer.active("eval"):
            quality, taxonomy, _ = self.outputs(base, warmup, reference)
        tracer.write(spans_path)
        layers, layer_taxonomy = summarize(tracer.spans, {"setup": 1, "call": len(traced), "eval": 1})
        # the reference run's layers are reported apart, so that they do not
        # mix with the timed stage's
        ref_layers, ref_taxonomy = summarize(tracer.spans, {"reference": 1})
        layers.update({f"reference.{k}": v for k, v in ref_layers.items()})
        layer_taxonomy.update({f"reference {k}": v for k, v in ref_taxonomy.items()})
        layers.update(quality)
        plain_s, traced_s = statistics.median(plain), statistics.median(traced)
        layers["trace.overhead_s"] = traced_s - plain_s
        layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        return {
            "metrics": layers,
            "quality": quality,
            "taxonomy": taxonomy,
            "layer_taxonomy": layer_taxonomy,
            "untraced_call_s": plain,
            "call_s": traced,
        }
