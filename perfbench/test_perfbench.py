"""The benchmark's own checks; slow, so outside the package's test suite.

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced, each in a fresh
process, with a one-second budget (one cycle, or two traced repetitions).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import TAIL_BEYOND, percentiles  # noqa: E402
from workloads import KIND_MS, WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    with open(os.path.join(cwd, lines[-2].split(" ", 1)[1])) as fh:
        detail = json.load(fh)
    return json.loads(lines[-1]), detail


def exact_metrics(result: dict) -> dict:
    """Counts and count ratios: every per-layer metric except times and the overhead."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_tracing_keeps_reports(workload):
    plain, plain_detail = bench(workload, 7, 0)
    first, first_detail = bench(workload, 7, 1)
    second, second_detail = bench(workload, 7, 1)
    for result in (plain, first, second):
        assert result["correct"] and result["failed"] == 0
    assert first_detail["determinism_problems"] == []
    assert exact_metrics(first) == exact_metrics(second)
    assert first_detail["counts"] == second_detail["counts"]
    assert (plain_detail["report_sha256"] == first_detail["report_sha256"]
            == second_detail["report_sha256"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentiles_sit_inside_one_kind(monkeypatch):
    """At the nominal kind costs, p50 and the tail fall well inside one kind's block."""
    monkeypatch.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_ms = json.load(fh)["run_seconds"] * 1e3
    for name, workload in WORKLOADS.items():
        per_cycle = Counter(cmd.kind for cmd in workload.cycle(0, 0))
        cycle_ms = sum(KIND_MS[name][k] * c for k, c in per_cycle.items())
        cycles = math.ceil(run_ms / cycle_ms)
        ordered = sorted((KIND_MS[name][k], k) for k, c in per_cycle.items()
                         for _ in range(c * cycles))
        n = len(ordered)
        assert percentiles([ms for ms, _ in ordered])["tail_beyond"] == TAIL_BEYOND
        margin = max(3, n // 20)
        for index in (n // 2, n - 1 - TAIL_BEYOND):
            kinds = {k for _, k in ordered[index - margin:index + margin + 1]}
            assert len(kinds) == 1, (name, index, kinds)
