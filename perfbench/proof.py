"""Repeat the benchmark over seeds and summarise the spread of every metric.

    python3 perfbench/proof.py --seeds 1-10 --traced --reference \
        --out perfbench/out/proof.json

For each workload, runs ``run.py`` once per seed (untraced) and reports,
per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--traced`` adds one traced run per workload and its
layer split.  ``--reference`` also times the roadmap's seven-command
baseline table (best and median of three untraced in-process runs).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REFERENCE_COMMANDS = [
    ["run", "--instance", "e1"],
    ["run", "--instance", "cyclic3-affine"],
    ["verify", "--instance", "e1", "--samples", "10000", "--seed", "1"],
    ["verify", "--instance", "e1-product", "--samples", "10000"],
    ["verify", "--instance", "cyclic3-affine", "--samples", "10000"],
    ["scan", "--kind", "uc", "--instance", "e1-pair", "--budget", "1000"],
    ["scan", "--kind", "cd", "--instance", "e1-pair", "--budget", "1000"],
]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail_path = os.path.join(ROOT, lines[-2].split(" ", 1)[1])
    with open(detail_path) as fh:
        detail = json.load(fh)
    return result, detail, elapsed


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def prove(bench: dict, workloads: list, seeds: list, traced: bool) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            result, detail, elapsed = run_once(w, seed, bench["run_seconds"], 0)
            runs.append((result, detail))
            print(f"{w} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r, _ in runs])
            s["bound"] = bound
            s["within_third_of_bound"] = s["spread"] < bound / 3
            metrics[name] = s
        entry = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r, _ in runs),
            "failed_frac": sum(r["failed"] for r, _ in runs) / sum(r["attempted"] for r, _ in runs),
            "commands_per_run": [d["commands"]["count"] for _, d in runs],
            "tail_percentile": [d["commands"]["tail_percentile"] for _, d in runs],
            "p50_kind": sorted({d["p50_kind"] for _, d in runs}),
            "tail_kind": sorted({d["tail_kind"] for _, d in runs}),
            "report_sha256": {str(s): d["report_sha256"] for s, (_, d) in zip(seeds, runs)},
            "metrics": metrics,
        }
        if traced:
            result, detail, _ = run_once(w, seeds[0], bench["run_seconds"], 1)
            entry["traced"] = {
                "seed": seeds[0],
                "correct": result["correct"],
                "report_sha256": detail["report_sha256"],
                "untraced_sha_matches": detail["report_sha256"] == entry["report_sha256"][str(seeds[0])],
                "tracing_overhead": detail["tracing_overhead"],
                "repetitions": detail["repetitions"],
                "split": detail["split"],
            }
        out[w] = entry
    return out


def reference(reps: int = 3) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from proxiter.cli import main

    rows = []
    for argv in REFERENCE_COMMANDS:
        times = []
        for _ in range(reps):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                main(list(argv))
                times.append((time.perf_counter() - t0) * 1e3)
        rows.append({"command": " ".join(argv), "best_ms": min(times),
                     "median_ms": statistics.median(times)})
        print(f"{min(times):9.1f} ms  {' '.join(argv)}", flush=True)
    return {"reference_table": rows, "runs_per_command": reps}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="also time the seven-command reference table")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, HERE)
    from run import provenance

    seeds = parse_seeds(args.seeds)
    summary = {"provenance": provenance(seeds[0]), "run_seconds": bench["run_seconds"]}
    summary["provenance"].pop("seed")
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary["workloads"] = prove(bench, workloads, seeds, args.traced)
    for w, entry in summary["workloads"].items():
        for name, s in entry["metrics"].items():
            flag = "ok" if s["spread"] <= s["bound"] else "OVER BOUND"
            print(f"{w:8s} {name:12s} median {s['median']:10.4g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} {flag}")
    if args.reference:
        summary.update(reference())
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
