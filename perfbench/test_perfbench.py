"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.count("smoke PASS") == 4, proc.stdout[-4000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for spec in declared["end_to_end"] + declared["per_layer"]:
        line = rf"^metric {re.escape(spec['name'])} = \S+ {re.escape(spec['unit'])} "
        assert re.search(line, proc.stdout, re.MULTILINE), f"{spec['name']} not printed with its unit"
    assert "check PASS" in proc.stdout and "check FAIL" not in proc.stdout
