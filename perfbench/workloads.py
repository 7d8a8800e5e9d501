"""The benchmark's workloads: seeded command cycles and their answer checks.

A workload is an endless sequence of cycles.  Cycle ``c`` of workload ``w``
at seed ``s`` is a fixed list of commands whose ``--seed`` values and
generated inputs come from ``random.Random(f"{w}:{s}:{c}")``, so the same
seed always gives the same commands.  Each cycle holds every kind of
command in fixed proportions, and the run loop ends only at a cycle
boundary, so every run has the same mix.

The proportions are chosen so that neither the median nor the tail
percentile (the command with ten slower ones beyond it) falls on the
boundary between two kinds of command; otherwise the percentile would flip
between kinds from run to run.  The nominal costs that placement rests on
(ms per command on a 2-CPU x86-64 host, Python 3.11) are in ``KIND_MS``,
and the benchmark's own test checks the placement against them.

Checks compare answers, not bytes: exit codes, verdicts, and limits against
oracles computed here from the geometry of each instance.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

EXIT_OK, EXIT_REFUTED = 0, 3

#: work directory for generated instances and CSV traces, relative to the source root
WORK_DIR = os.path.join("perfbench", "out", "work")


@dataclass
class Command:
    kind: str
    argv: list
    #: check(exit_code, report_text) -> None when the answer is right, else why not
    check: Callable[[int, str], Optional[str]]
    #: the --out file holding the report, when it is not stdout
    out: Optional[str] = None


@dataclass
class Workload:
    name: str
    #: registry instances whose build() the set-up time covers
    instances: tuple
    cycle: Callable[[int, int], list] = field(repr=False)


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def _seeds(rng: random.Random, n: int) -> list:
    return [str(rng.randrange(2**31)) for _ in range(n)]


def _expect(rc: int, want_rc: int, report: dict, **fields) -> Optional[str]:
    if rc != want_rc:
        return f"exit code {rc}, want {want_rc}"
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, want {want!r}"
    return None


def _parse_point(text: str) -> tuple:
    return tuple(float(c) for c in text.split(";"))


def _near(p: tuple, q: tuple, tol: float) -> bool:
    return len(p) == len(q) and math.dist(p, q) <= tol


# ---------------------------------------------------------------------------
# certify: the per-sample certification path


def _certified(rc: int, text: str) -> Optional[str]:
    report = json.loads(text)
    return _expect(rc, EXIT_OK, report, verdict="certified-on-samples")


def _refuted_with_witness(rc: int, text: str) -> Optional[str]:
    report = json.loads(text)
    bad = _expect(rc, EXIT_REFUTED, report, verdict="refuted")
    if bad:
        return bad
    cert = report.get("certification", {})
    if cert.get("reason") != "negative-residual" or "witness" not in cert:
        return f"refutation without a negative-residual witness: {cert.get('reason')!r}"
    return None


def certify_cycle(seed: int, cycle: int) -> list:
    """Verify e1 x3, e1-product x2, banach-affine x2 and the refuted e1 at lambda 0.5 x1.

    e1 and the refuted e1 cost the same, so together they are the middle
    half of the sorted command times, with p50 at their centre, and the
    tail falls inside the e1-product quarter.
    """
    rng = _rng("certify", seed, cycle)
    order = ["e1", "e1-product", "banach-affine", "e1", "e1-refuted", "banach-affine", "e1",
             "e1-product"]
    cmds = []
    for kind, s in zip(order, _seeds(rng, len(order))):
        argv = ["verify", "--samples", "20000", "--seed", s]
        if kind == "e1-refuted":
            argv += ["--instance", "e1", "--lambda", "0.5"]
            cmds.append(Command(kind, argv, _refuted_with_witness))
        else:
            argv += ["--instance", kind]
            cmds.append(Command(kind, argv, _certified))
    return cmds


# ---------------------------------------------------------------------------
# cyclic: region membership and cyclic map dispatch


def spoke_inner_endpoints() -> list:
    """Best-proximity points of the three-spoke triple: the spokes' inner ends.

    The spokes start on the circle of radius 1/sqrt(3) at angles
    90, 210 and 330 degrees, so adjacent inner ends are exactly 1 apart,
    the set distance; by Eldred and Veeramani's cyclic best-proximity
    theorem these are the limits of the cyclic iteration.
    """
    r = 1.0 / math.sqrt(3.0)
    angles = [math.pi / 2.0 + j * 2.0 * math.pi / 3.0 for j in range(3)]
    return [(r * math.cos(a), r * math.sin(a)) for a in angles]


def _cyclic_run_json(rc: int, text: str) -> Optional[str]:
    report = json.loads(text)
    bad = _expect(rc, EXIT_OK, report, outcome="converged")
    if bad:
        return bad
    zs = [_parse_point(z) for z in report["result"]["z"]]
    for j, (z, want) in enumerate(zip(zs, spoke_inner_endpoints())):
        if not _near(z, want, 1e-6):
            return f"z{j + 1} = {z} is not the inner endpoint {want}"
    return None


def _csv_shape(text: str) -> tuple:
    """(number of lines, last line) of a CSV trace, which must end in a newline."""
    if not text.startswith("n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v\n") or not text.endswith("\n"):
        raise ValueError("not a CSV trace")
    return text.count("\n"), text[text.rindex("\n", 0, len(text) - 1) + 1:-1]


def _cyclic_run_csv(rc: int, text: str) -> Optional[str]:
    if rc != EXIT_OK:
        return f"exit code {rc}, want 0"
    lines, last = _csv_shape(text)
    steps = int(last.split(",", 1)[0])
    if lines != steps + 2:
        return f"CSV has {lines} lines for {steps} steps"
    x_last = _parse_point(last.split(",")[1])
    want = spoke_inner_endpoints()[0]
    if not (_near(x_last[:2], want, 1e-6) and _near(x_last[2:], want, 1e-6)):
        return f"CSV trace ends at {x_last}, not the diagonal inner endpoint {want}"
    return None


def cyclic_cycle(seed: int, cycle: int) -> list:
    """verify cyclic3-affine x2, cyclic3-singleton x3; run cyclic3-affine json x4, csv x1.

    p50 falls at the centre of the json runs and the tail inside the
    cyclic3-affine verifications.
    """
    rng = _rng("cyclic", seed, cycle)
    order = ["verify-affine", "run-json", "verify-singleton", "run-json", "verify-singleton",
             "verify-affine", "run-json", "run-csv", "verify-singleton", "run-json"]
    cmds = []
    for kind, s in zip(order, _seeds(rng, len(order))):
        if kind == "verify-affine":
            argv = ["verify", "--instance", "cyclic3-affine", "--samples", "2000", "--seed", s]
            cmds.append(Command(kind, argv, _certified))
        elif kind == "verify-singleton":
            argv = ["verify", "--instance", "cyclic3-singleton", "--samples", "2000", "--seed", s]
            cmds.append(Command(kind, argv, _certified))
        elif kind == "run-json":
            argv = ["run", "--instance", "cyclic3-affine", "--seed", s]
            cmds.append(Command(kind, argv, _cyclic_run_json))
        else:
            argv = ["run", "--instance", "cyclic3-affine", "--format", "csv", "--seed", s]
            cmds.append(Command(kind, argv, _cyclic_run_csv))
    return cmds


# ---------------------------------------------------------------------------
# trace: long paired runs, trace serialization, bound checks and scans

#: slope range of the generated affine maps
SLOPE_LO, SLOPE_HI = 0.999, 0.9998
#: every generated run settles after about this many steps, whatever its slope
RUN_STEPS = 40000
RUN_TOL = 1e-11
#: generated instances per cycle
INSTANCES_PER_CYCLE = 2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class AffineInstance:
    """x -> slope*x + offset on a wide real interval; lambda is the slope."""

    path: str
    slope: float
    offset: float
    #: start distance from the fixed point for the long run
    run_d0: float

    @property
    def fixed_point(self) -> float:
        return self.offset / (1.0 - self.slope)

    def limit_ok(self, x: float, tol: float) -> bool:
        return abs(x - self.fixed_point) <= 10.0 * tol / (1.0 - self.slope)


def generate_affine(path: str, rng: random.Random, position: float) -> AffineInstance:
    """Write one affine instance to ``path``; ``position`` in [0, 1) picks the slope.

    The long run starts ``run_d0`` from the fixed point, chosen so that the
    step displacement slope**(k-1) * (1-slope) * d0 first drops below
    RUN_TOL within five steps of RUN_STEPS: every run then has nearly the
    same length, so run times do not depend on the slope drawn, and the run
    and CSV commands stay two tight blocks of command times.
    """
    slope = SLOPE_LO + (SLOPE_HI - SLOPE_LO) * position
    fp = rng.uniform(-5.0, 5.0)
    offset = fp * (1.0 - slope)
    run_d0 = 0.999 * RUN_TOL / (1.0 - slope) * slope ** (-(RUN_STEPS - 1))
    spec = {
        "name": os.path.basename(path)[:-5],
        "space": {"kind": "real"},
        "regions": {"a": {"lo": -1e12, "hi": 1e12, "sample_lo": -10.0, "sample_hi": 10.0}},
        "maps": {
            "t_a": {"name": "affine", "slope": slope, "offset": offset},
            "t_b": {"name": "affine", "slope": slope, "offset": offset},
        },
        "lambda": slope,
        "dist": 0.0,
        "x0": fp + rng.uniform(2.0, 8.0),
        "y0": fp - rng.uniform(2.0, 8.0),
    }
    with open(path, "w") as fh:
        json.dump(spec, fh, sort_keys=True)
    return AffineInstance(path, slope, offset, run_d0)


def _affine_run_json(inst: AffineInstance, steps_seen: dict):
    def check(rc: int, text: str) -> Optional[str]:
        report = json.loads(text)
        bad = _expect(rc, EXIT_OK, report)
        if bad:
            return bad
        run = report["report"]
        if run["stop_reason"] != "tolerance-met":
            return f"stop reason {run['stop_reason']!r}"
        limit = _parse_point(run["limit"])[0]
        if not inst.limit_ok(limit, RUN_TOL):
            return f"limit {limit} is not within 10*tol/(1-slope) of {inst.fixed_point}"
        steps_seen[inst.path] = run["steps"]
        return None

    return check


def _affine_run_csv(inst: AffineInstance, steps_seen: dict):
    def check(rc: int, text: str) -> Optional[str]:
        if rc != EXIT_OK:
            return f"exit code {rc}, want 0"
        lines, last = _csv_shape(text)
        steps = steps_seen.get(inst.path)
        if steps is None:
            return "no JSON run of this instance to compare the CSV with"
        if lines != steps + 2:
            return f"CSV has {lines} lines, want steps + 2 = {steps + 2}"
        x_last = _parse_point(last.split(",")[1])[0]
        if not inst.limit_ok(x_last, RUN_TOL):
            return f"CSV trace ends at {x_last}, not near {inst.fixed_point}"
        return None

    return check


def _no_counterexample(rc: int, text: str) -> Optional[str]:
    return _expect(rc, EXIT_OK, json.loads(text), outcome="no-counterexample")


def _escaping_limit(rc: int, text: str) -> Optional[str]:
    report = json.loads(text)
    bad = _expect(rc, EXIT_REFUTED, report, outcome="counterexample")
    if bad:
        return bad
    reason = report["witness"].get("reason")
    return None if reason == "limit-escapes-region" else f"reason {reason!r}"


def _counterexample(rc: int, text: str) -> Optional[str]:
    return _expect(rc, EXIT_REFUTED, json.loads(text), outcome="counterexample")


def trace_cycle(seed: int, cycle: int) -> list:
    """Per generated instance: run json, run csv, verify; plus four scans.

    Slopes follow a golden-ratio sequence from a seeded offset, so any
    stretch of cycles covers the slope range evenly whatever the seed.
    """
    rng = _rng("trace", seed, cycle)
    os.makedirs(WORK_DIR, exist_ok=True)
    u0 = random.Random(f"trace:{seed}").random()
    steps_seen: dict = {}
    cmds = []
    for k in range(INSTANCES_PER_CYCLE):
        i = cycle * INSTANCES_PER_CYCLE + k
        position = (u0 + i * _GOLDEN) % 1.0
        inst = generate_affine(os.path.join(WORK_DIR, f"affine-{k}.json"), rng, position)
        x0 = inst.fixed_point + inst.run_d0
        y0 = inst.fixed_point - inst.run_d0
        run = ["run", "--instance", inst.path, "--steps", "200000", "--tol", repr(RUN_TOL),
               f"--x0={x0!r}", f"--y0={y0!r}"]
        csv_out = os.path.join(WORK_DIR, f"trace-{k}.csv")
        s_run, s_verify = _seeds(rng, 2)
        cmds.append(Command("run-json", run + ["--seed", s_run],
                            _affine_run_json(inst, steps_seen)))
        cmds.append(Command("run-csv", run + ["--seed", s_run, "--format", "csv", "--out", csv_out],
                            _affine_run_csv(inst, steps_seen), out=csv_out))
        cmds.append(Command("verify", ["verify", "--instance", inst.path, "--samples", "1000",
                                       "--seed", s_verify], _certified))
    s_uc, s_cd, s_open, s_circle = _seeds(rng, 4)
    cmds.insert(3, Command("scan-uc", ["scan", "--kind", "uc", "--instance", "e1-pair",
                                       "--budget", "2000", "--seed", s_uc], _no_counterexample))
    cmds.append(Command("scan-cd", ["scan", "--kind", "cd", "--instance", "e1-pair",
                                    "--budget", "2000", "--seed", s_cd], _no_counterexample))
    cmds.append(Command("scan-cd-open", ["scan", "--kind", "cd", "--instance",
                                         "open-interval-pair", "--seed", s_open], _escaping_limit))
    cmds.append(Command("scan-uc-circle", ["scan", "--kind", "uc", "--instance",
                                           "circle-origin-pair", "--seed", s_circle],
                        _counterexample))
    return cmds


WORKLOADS = {
    "certify": Workload(
        "certify",
        ("e1", "e1-product", "banach-affine"),
        certify_cycle,
    ),
    "cyclic": Workload(
        "cyclic",
        ("cyclic3-affine", "cyclic3-singleton"),
        cyclic_cycle,
    ),
    "trace": Workload(
        "trace",
        ("e1-pair", "open-interval-pair", "circle-origin-pair"),
        trace_cycle,
    ),
}

#: nominal ms per command kind; the percentile placement above rests on these
KIND_MS = {
    "certify": {"banach-affine": 180, "e1-refuted": 335, "e1": 340, "e1-product": 950},
    "cyclic": {"verify-singleton": 70, "run-json": 135, "run-csv": 165, "verify-affine": 810},
    "trace": {"scan-cd-open": 2, "scan-uc-circle": 2, "verify": 85, "run-json": 145,
              "scan-uc": 300, "scan-cd": 330, "run-csv": 400},
}
