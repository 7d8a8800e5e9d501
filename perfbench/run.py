"""proxiter's benchmark: CLI commands run in process, one after another.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  One closed-loop client in one process with no threads: each
command is ``proxiter.cli.main(argv)`` with stdout captured, and starts when
the previous one has returned and its answer has been checked.

``--trace 0`` measures the end-to-end metrics on untraced commands:

* ``setup_s``: median over fresh processes of the time to import
  ``proxiter.cli`` and build every registry instance the workload uses;
* ``cmd_ms.p50`` and ``cmd_ms.tail``: the median command time, and the
  command time with exactly ten slower commands beyond it;
* ``cmds_per_s``: commands completed per wall-clock second of the loop,
  not counting the calibration kernel below;
* ``peak_rss_mb``: the peak resident set of this process.

Times are wall-clock times given at a reference host speed.  On a shared
host the speed this process gets drifts by a quarter or more between runs
(an identical pure-Python loop varies from 19 to 30 ms), far beyond any
useful bound.  A fixed calibration kernel that touches no proxiter code
runs before every command; each command's time is multiplied by
``CALIBRATION_REF_S`` over the mean kernel time just before and just after
it, the loop's own time between commands by the same ratio for the run's
mean kernel time, and each set-up time by the ratio for a kernel run in its
own process.  This cuts the spread over ten seeds from about 0.25 to below
0.05.  The unscaled values are in the detail file under ``raw``.

``--trace 1`` runs the first cycle of commands untraced twice (the
reference reports, and the untraced time), then repeats the same cycle
with the layer shims of ``tracing.py`` installed until ``--seconds`` have
passed.  Every repetition must reproduce the reference report bytes and the
first repetition's call counts exactly.  Per-layer metrics are per cycle:
counts from one repetition, self times as the median over repetitions.

The last line of stdout is the result object; the line before it names a
JSON file under ``perfbench/out`` with provenance, per-kind times, the
report hash and the whole layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "out")

#: fresh processes timed for setup_s, after one untimed process that warms the bytecode cache
SETUP_PROCESSES = 9
#: commands beyond the tail percentile
TAIL_BEYOND = 10
#: calibration kernel time that defines the reference speed (about this host's typical speed)
CALIBRATION_REF_S = 0.0025

SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import proxiter.cli
from proxiter.instances import CYCLIC, PAIRS, SYSTEMS
for name in sys.argv[3:]:
    for registry in (SYSTEMS, CYCLIC, PAIRS):
        if name in registry:
            registry[name].build()
            break
    else:
        raise SystemExit("unknown instance " + name)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import calibration_kernel
print(repr(elapsed), repr(sum(calibration_kernel() for _ in range(3)) / 3))
"""


def measure_setup(instances) -> list:
    """(seconds, calibration seconds) from fresh processes, after one untimed process."""
    samples = []
    for i in range(SETUP_PROCESSES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, HERE, *instances],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            samples.append(tuple(float(v) for v in proc.stdout.split()))
    return samples


def calibration_kernel(n: int = 10000) -> float:
    """Fixed pure-Python work (calls, tuples, floats, a growing list); returns its seconds.

    It touches no proxiter code, so a change to the program cannot move it;
    only the speed the host gives this process can.
    """
    def step(p, c):
        return (p[0] * 0.5 + c, p[1] - c * 0.25)

    table = {"a": 0.25, "b": 0.125}
    t0 = time.perf_counter()
    p, acc, out = (1.0, 2.0), 0.0, []
    for i in range(n):
        p = step(p, table["a" if i & 1 else "b"])
        acc += abs(p[0] - p[1])
        out.append(p)
    return time.perf_counter() - t0


def run_command(main, cmd, wrap=None):
    """Run one command; returns (seconds, exit code, report text, stderr).

    ``wrap(argv, call)``, when given, runs ``call`` under a command span.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        if wrap is None:
            rc = main(cmd.argv)
        else:
            rc = wrap(cmd.argv, lambda: main(cmd.argv))
        elapsed = time.perf_counter() - t0
    text = stdout.getvalue()
    if cmd.out is not None:
        with open(cmd.out) as fh:
            text = fh.read()
    return elapsed, rc, text, stderr.getvalue()


class Loop:
    """Runs commands, checks answers, and keeps times and report hashes."""

    def __init__(self, main, wrap=None, calibrate=False):
        self.main = main
        self.wrap = wrap
        self.calibrate = calibrate
        self.calibration = []
        self.times = []
        self.kinds = []
        self.attempted = 0
        self.failures = []

    def run(self, cmds, digest=None):
        for cmd in cmds:
            kernel_s = calibration_kernel() if self.calibrate else None
            self.attempted += 1
            try:
                elapsed, rc, text, err = run_command(self.main, cmd, self.wrap)
                problem = cmd.check(rc, text)
            except Exception as exc:  # a crash is a failed command, not a failed run
                elapsed, rc, text, err = None, None, "", ""
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                self.failures.append({"argv": cmd.argv, "problem": problem})
            if elapsed is not None:
                self.times.append(elapsed)
                self.kinds.append(cmd.kind)
                if kernel_s is not None:
                    self.calibration.append(kernel_s)
            if digest is not None:
                digest.update(json.dumps([cmd.argv, rc, err, len(text)]).encode())
                digest.update(text.encode())


def percentiles(times_ms: list) -> dict:
    ordered = sorted(times_ms)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return {
        "count": n,
        "p50": statistics.median(ordered),
        "tail": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
    }


def per_kind(kinds: list, times_ms: list) -> dict:
    out = {}
    for kind in sorted(set(kinds)):
        ms = [t for t, k in zip(times_ms, kinds) if k == kind]
        out[kind] = {"count": len(ms), "median_ms": statistics.median(ms)}
    return out


def provenance(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, main, seed: int, seconds: float) -> tuple:
    setup = measure_setup(workload.instances)

    # one command of each kind, untimed, so first-call imports are done
    warm = Loop(main)
    seen = set()
    first = [c for c in workload.cycle(seed, -1) if not (c.kind in seen or seen.add(c.kind))]
    warm.run(first)

    loop = Loop(main, calibrate=True)
    digest = hashlib.sha256()
    cycles = 0
    cycle_walls = []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        loop.run(workload.cycle(seed, cycles), digest if cycles == 0 else None)
        cycle_walls.append(time.perf_counter() - c0)
        cycles += 1
        wall = time.perf_counter() - t0
        if wall >= seconds:
            break
    cal = loop.calibration + [calibration_kernel()]
    busy = wall - sum(loop.calibration)
    # The host's speed drifts by a quarter or more between runs, so every
    # time is given at a reference speed: a command's time is scaled by the
    # calibration kernel's times just before and just after it, the rest of
    # the loop (answer checks, input generation) by the run's mean kernel
    # time, and set-up by the kernel run in its own process.
    at_ref = [t * 2.0 * CALIBRATION_REF_S / (c0 + c1)
              for t, c0, c1 in zip(loop.times, cal, cal[1:])]
    speed = CALIBRATION_REF_S / statistics.fmean(cal)
    busy_at_ref = sum(at_ref) + (busy - sum(loop.times)) * speed
    ms = [t * 1e3 for t in at_ref]
    pct = percentiles(ms)
    raw_pct = percentiles([t * 1e3 for t in loop.times])
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "cmd_ms.p50": raw_pct["p50"],
        "cmd_ms.tail": raw_pct["tail"],
        "cmds_per_s": loop.attempted / busy,
    }
    metrics = {
        "setup_s": {
            "value": statistics.median(t * CALIBRATION_REF_S / c for t, c in setup),
            "unit": "s",
        },
        "cmd_ms.p50": {"value": pct["p50"], "unit": "ms"},
        "cmd_ms.tail": {"value": pct["tail"], "unit": "ms"},
        "cmds_per_s": {"value": loop.attempted / busy_at_ref, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    order = sorted(range(len(ms)), key=ms.__getitem__)
    detail = {
        "cycles": cycles,
        "wall_s": wall,
        "busy_s": busy,
        "commands": pct,
        "p50_kind": loop.kinds[order[pct["count"] // 2]],
        "tail_kind": loop.kinds[order[pct["count"] - 1 - pct["tail_beyond"]]],
        "kinds": per_kind(loop.kinds, ms),
        "raw": raw,
        "speed": speed,
        "calibration_ref_ms": CALIBRATION_REF_S * 1e3,
        "calibration_ms": [round(c * 1e3, 4) for c in cal],
        "setup_samples": [{"s": t, "calibration_ms": c * 1e3} for t, c in setup],
        "cycle_s": cycle_walls,
        "raw_command_ms": [[k, round(t * 1e3, 3)] for k, t in zip(loop.kinds, loop.times)],
        "failed_frac": len(loop.failures) / loop.attempted,
        "report_sha256": digest.hexdigest(),
        "warmup_failures": warm.failures,
    }
    return loop.attempted, loop.failures + warm.failures, metrics, detail


def traced(workload, main, seed: int, seconds: float) -> tuple:
    import tracing
    from layers import layer_metrics, layer_table

    cmds = workload.cycle(seed, 0)
    ref = Loop(main)
    ref_digest = hashlib.sha256()
    ref.run(cmds, ref_digest)
    again = Loop(main)
    again_digest = hashlib.sha256()
    t0 = time.perf_counter()
    again.run(workload.cycle(seed, 0), again_digest)
    untraced_wall = time.perf_counter() - t0

    tracer = tracing.install()
    reps = []
    mismatches = []
    loop = Loop(main, wrap=tracer.command)
    try:
        t0 = time.perf_counter()
        while True:
            tracer.reset(keep_spans=not reps)
            digest = hashlib.sha256()
            r0 = time.perf_counter()
            loop.run(workload.cycle(seed, 0), digest)
            wall = time.perf_counter() - r0
            if digest.hexdigest() != ref_digest.hexdigest():
                mismatches.append(f"repetition {len(reps)}: report bytes differ from untraced")
            reps.append(layer_table(tracer, wall))
            if len(reps) > 1 and reps[-1]["counts"] != reps[0]["counts"]:
                mismatches.append(f"repetition {len(reps) - 1}: counts differ from repetition 0")
            if len(reps) == 1:
                spans = tracer.spans
            if time.perf_counter() - t0 >= seconds and len(reps) >= 2:
                break
    finally:
        tracer.uninstall()

    overhead = statistics.median(r["wall_s"] for r in reps) / untraced_wall
    metrics, split = layer_metrics(reps, overhead)
    if again_digest.hexdigest() != ref_digest.hexdigest():
        mismatches.append("two untraced passes over one cycle gave different reports")
    detail = {
        "repetitions": len(reps),
        "commands_per_cycle": len(cmds),
        "untraced_cycle_s": untraced_wall,
        "tracing_overhead": overhead,
        "report_sha256": ref_digest.hexdigest(),
        "determinism_problems": mismatches,
        "split": split,
        "counts": reps[0]["counts"],
        "layers": reps[0]["layers"],
        "spans": [list(s) for s in spans],
    }
    failures = ref.failures + again.failures + loop.failures
    failures += [{"argv": None, "problem": m} for m in mismatches]
    return ref.attempted + again.attempted + loop.attempted, failures, metrics, detail


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "proxiter", "cli.py")):
        print(f"error: no proxiter package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    from proxiter.cli import main

    run = traced if args.trace else untraced
    attempted, failures, metrics, detail = run(workload, main, args.seed, args.seconds)
    failed = sum(1 for f in failures if f["argv"] is not None)

    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": metrics,
        **detail,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(f"detail {path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
