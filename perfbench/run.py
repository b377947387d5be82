"""axisforge pipeline benchmark.

    python3 perfbench/run.py --workload infer-mlp --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark imports axisforge from ``src/``
and works in ``.perfbench_work/``. It prints each metric by name and unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json declares: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. It exits 1 when an
output check fails and 2 when it cannot run. ``--smoke`` runs every workload
at a tiny size in both modes and checks that every declared metric is
printed with its unit. See perfbench/README.md for the workloads.
"""

import os

THREADS = 1  # BLAS threads, pinned: more threads were faster but far less steady
os.environ["AXISFORGE_THREADS"] = str(THREADS)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402  (the thread pin must precede numpy's import)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_axisforge():
    """Import axisforge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "axisforge" / "__init__.py").is_file():
        die(f"no axisforge sources under {src}")
    sys.path.insert(0, str(src))
    import axisforge

    if Path(axisforge.__file__).resolve().parent != (src / "axisforge").resolve():
        die(f"imported axisforge from {axisforge.__file__}, not {src}")


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "axisforge").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest()[:16],
        "sizes": asdict(workload),
    }


def run_one(name: str, workload, seed: int, seconds: float, trace: bool, declared: dict, work: Path) -> dict:
    """Run one workload in `work`; print its report lines and return the result object."""
    from bench import CallFailed, Run

    tag = f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    run = Run(workload, seed, work / tag)
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            out = run.traced(seconds, results / f"{tag}.spans.jsonl")
        else:
            out = run.untraced(seconds)
    except CallFailed as exc:
        die(str(exc))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    specs = declared["per_layer" if trace else "end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in out["metrics"]]
    if missing:
        die(f"workload {name} computed no value for {missing}")
    metrics = {s["name"]: {"value": out["metrics"][s["name"]], "unit": s["unit"]} for s in specs}
    env = environment(workload, seed)

    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for s in specs:
        print(f"metric {s['name']} = {metrics[s['name']]['value']:.6g} {s['unit']} ({s['better']} is better)")
    units = {s["name"]: s["unit"] for s in declared["per_layer"]} | {"infer.median_reproj_px": "px", "reference.median_reproj_px": "px"}
    for key, value in out["quality"].items():
        text = "undefined (no record succeeded)" if math.isnan(value) else f"{value:.6g} {units[key]}"
        print(f"quality {key} = {text}")
    for key, count in out["taxonomy"].items():
        print(f"failure records {key} = {count}")
    for key, count in out.get("layer_taxonomy", {}).items():
        print(f"failure layer {key} = {count:g} per unit")
    for check, ok in run.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {check}")

    result = {
        "correct": bool(run.checks) and all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {**out, "env": env, "checks": run.checks, "result": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def smoke(declared: dict) -> bool:
    """Every workload at a tiny size, untraced and traced."""
    import bench

    ok = True
    work = WORK / f"smoke-p{os.getpid()}"
    for name, workload in bench.WORKLOADS.items():
        for trace in (False, True):
            result = run_one(name, bench.smoke(workload), 0, 0.0, trace, declared, work)
            specs = declared["per_layer" if trace else "end_to_end"]
            units = {s["name"]: s["unit"] for s in specs}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and printed == units and result["attempted"] > 0
            print(f"smoke {'PASS' if good else 'FAIL'} {name} trace={int(trace)}")
            ok &= good
    shutil.rmtree(work)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="how long to repeat the timed stage (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload and mode")
    args = parser.parse_args()

    import_axisforge()
    declared = load_declared()
    if args.smoke:
        return 0 if smoke(declared) else 1

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    if args.seconds is None:
        parser.error("--seconds is required")
    result = run_one(args.workload, bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), declared, WORK)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
