"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces public axisforge functions with timing wrappers;
``Tracer.uninstall`` puts the originals back. Each call records one span
(name, parent span, record id, start, end, error) in memory; the run writes
the spans out when it ends. Nothing under ``src/`` changes. A function is
patched under every name that binds it: in its own module, in each module
that imported it by name (``diffusion`` binds ``extract_axes_soft``,
``dataset`` binds the render functions), and in the CLI's command table.
Methods are patched on their class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


def _array_bytes(args, out) -> int:
    return int(args[1].size) * 4  # save_f32(path, img) writes float32


def _result_bytes(args, out) -> int:
    return int(out.size) * 4  # load_f32(path, shape) reads float32


def _file_bytes(args, out) -> int:
    return os.path.getsize(args[0])  # checkpoint path, after save or before load


# Traced layers, named <module>.<attribute path>, with the byte counter of
# the functions that move data to or from disk.
LAYERS = {
    "cli.cmd_render_dataset": None,
    "cli.cmd_train": None,
    "cli.cmd_infer": None,
    "cli.cmd_eval": None,
    "dataset.sample_pose": None,
    "dataset.pose_is_nondegenerate": None,
    "render.render_triaxis": None,
    "render.render_query": None,
    "render.apply_degradation": None,
    "render.save_f32": _array_bytes,
    "render.load_f32": _result_bytes,
    "denoiser.train_denoiser": None,
    "denoiser.Adam.step": None,
    "denoiser.MLPDenoiser.evaluate": None,
    "denoiser.MLPDenoiser.vjp": None,
    "denoiser.save_checkpoint": _file_bytes,
    "denoiser.load_checkpoint": _file_bytes,
    "diffusion.sample": None,
    "extraction.extract_axes_soft": None,
    "extraction.soft_extract_vjp": None,
    "extraction.extract_axes_hard": None,
    "solver.recover_pose": None,
}

# Exceptions that make guided_epsilon skip a guidance step.
SKIP_REASONS = ("DegenerateChannel", "VanishingMass", "NoIntersection")
HARD_ERRORS = ("EmptyChannel", "DegenerateChannel", "NoIntersection")
SOLVER_ERRORS = ("NoValidSolution", "IllConditioned", "AllCandidatesRejected")
# percentiles tried, highest first, for a sample-time tail with >= 10 samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    record: str | None  # test or train record being processed
    phase: str | None  # "target" until the record's sample() returns, then "generated"
    step: str  # benchmark step: "setup", "call", "reference" or "eval"
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    origin: bool = False  # the error was raised here, not in a traced callee
    nbytes: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.step = ""
        self._stack: list[int] = []
        self._record: str | None = None
        self._phase: str | None = None
        self._last_exc: BaseException | None = None
        self._undo: list = []

    @contextlib.contextmanager
    def active(self, step: str):
        """Trace the calls made inside the block, as part of benchmark step `step`."""
        self.step = step
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # --- patching ---

    def install(self) -> None:
        mods = {
            name: importlib.import_module(f"axisforge.{name}")
            for name in ("cli", "dataset", "denoiser", "diffusion", "extraction", "metrics", "render", "solver")
        }
        commands = mods["cli"]._COMMANDS
        for name, nbytes in LAYERS.items():
            mod, _, path = name.partition(".")
            owner = mods[mod]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, nbytes)
            self._setattr(owner, attr, wrapper)
            if cls:
                continue
            for other in mods.values():
                if other is not owner and getattr(other, attr, None) is fn:
                    self._setattr(other, attr, wrapper)
            for key, value in list(commands.items()):
                if value is fn:
                    commands[key] = wrapper
                    self._undo.append(lambda k=key, v=value: commands.__setitem__(k, v))
        # infer and generate_dataset call record_seed once per record, so it
        # marks where each record starts
        dataset = mods["dataset"]
        self._setattr(dataset, "record_seed", self._wrap_record_seed(dataset.record_seed))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._last_exc = None

    def _setattr(self, owner, attr, value) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _wrap_record_seed(self, fn):
        def record_seed(global_seed, record_id):
            self._record = record_id
            self._phase = "target"
            return fn(global_seed, record_id)

        return record_seed

    def _wrap(self, name, fn, nbytes):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer._record, tracer._phase, tracer.step)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                span.origin = exc is not tracer._last_exc
                tracer._last_exc = exc
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if nbytes is not None:
                span.nbytes = nbytes(args, out)
            if name == "diffusion.sample":
                tracer._phase = "generated"
            return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it, and its
    value (nearest rank); the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def summarize(spans: list[Span], per_unit: dict[str, int]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the failure taxonomy of the spans of the steps
    in ``per_unit``.

    Counts, bytes and self times are per benchmark unit: a step's totals are
    divided by per_unit[step], so a step repeated N times counts once.
    ``median_ms`` is over every span of the layer.
    """
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.step in per_unit:
            by_name[s.name].append(i)

    def total(idx, keep=lambda s: True, value=lambda i: 1) -> float:
        sums: Counter = Counter()
        for i in idx:
            if keep(spans[i]):
                sums[spans[i].step] += value(i)
        return sum(v / per_unit[step] for step, v in sums.items())

    out: dict[str, float] = {}
    taxonomy: Counter = Counter()
    for name in LAYERS:
        idx = by_name.get(name, [])
        out[f"{name}.calls"] = total(idx)
        out[f"{name}.failed"] = total(idx, keep=lambda s: s.error)
        durations = [spans[i].end - spans[i].start for i in idx]
        out[f"{name}.median_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        out[f"{name}.self_s"] = total(idx, value=lambda i: self_s[i])
        if LAYERS[name] is not None:
            out[f"{name}.bytes"] = total(idx, value=lambda i: spans[i].nbytes)
        for i in idx:
            s = spans[i]
            if s.origin:
                where = f"[{s.phase}]" if name == "extraction.extract_axes_hard" else ""
                taxonomy[f"{name}{where}:{s.error}"] += 1 / per_unit[s.step]

    sample_ms = [1e3 * (spans[i].end - spans[i].start) for i in by_name.get("diffusion.sample", [])]
    pct, value = tail(sample_ms) if sample_ms else (0.0, 0.0)
    out["diffusion.sample.n"] = len(sample_ms)
    out["diffusion.sample.tail_pct"] = pct
    out["diffusion.sample.tail_ms"] = value

    soft = by_name.get("extraction.extract_axes_soft", [])
    adjoint = by_name.get("extraction.soft_extract_vjp", [])
    attempted = total(soft)
    out["diffusion.guided_steps"] = attempted
    out["diffusion.guidance_applied_ratio"] = total(adjoint, keep=lambda s: not s.error) / attempted if attempted else 0.0
    for reason in SKIP_REASONS:
        out[f"extraction.extract_axes_soft.failed_{reason}"] = total(soft + adjoint, keep=lambda s: s.error == reason)

    hard = by_name.get("extraction.extract_axes_hard", [])
    for phase in ("target", "generated"):
        out[f"extraction.extract_axes_hard.failed_{phase}"] = total(hard, keep=lambda s: s.error and s.phase == phase)
    for err in HARD_ERRORS:
        out[f"extraction.extract_axes_hard.failed_{err}"] = total(hard, keep=lambda s: s.error == err)
    for err in SOLVER_ERRORS:
        out[f"solver.recover_pose.failed_{err}"] = total(
            by_name.get("solver.recover_pose", []), keep=lambda s: s.error == err
        )

    tests = out["dataset.pose_is_nondegenerate.calls"]
    accepted = out["dataset.sample_pose.calls"] - out["dataset.sample_pose.failed"]
    out["dataset.pose_accept_ratio"] = accepted / tests if tests else 0.0
    return out, dict(sorted(taxonomy.items()))
