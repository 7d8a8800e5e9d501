"""Per-layer metrics from the tracer's totals for one cycle of commands.

A ``.calls`` (or ``.quads``, ``.points``, ``.rows``, ``.bytes``) metric is
an exact count for one cycle; a ``.s`` metric is self time in seconds per
cycle, the median over the traced repetitions.  ``layer.<module>.self_s``
sums the self times of one module's spans (``cli`` includes the command
time no other span covers), and ``trace.overhead`` is the traced over the
untraced cycle time.  Every ratio is reported with its base in the detail
file.
"""

from __future__ import annotations

import statistics

from tracing import MODULES

#: per-layer metric name -> (span name, field); field is calls, units or self
SPAN_METRICS = {
    "systems.verify_contraction.calls": ("systems.verify_contraction", "calls"),
    "systems.verify_contraction.s": ("systems.verify_contraction", "self"),
    "systems.contraction_residual.calls": ("systems.contraction_residual", "calls"),
    "systems.contraction_residual.s": ("systems.contraction_residual", "self"),
    "systems.check_p_invariance.calls": ("systems.check_p_invariance", "calls"),
    "systems.check_p_invariance.s": ("systems.check_p_invariance", "self"),
    "systems.resolve_constants.calls": ("systems.resolve_constants", "calls"),
    "systems.resolve_constants.s": ("systems.resolve_constants", "self"),
    "systems.p_contains.calls": ("systems.p_contains", "calls"),
    "systems.p_contains.s": ("systems.p_contains", "self"),
    "systems.p_draw.quads": ("systems.p_draw", "units"),
    "systems.p_draw.s": ("systems.p_draw", "self"),
    "systems.maps.calls": ("systems.maps", "calls"),
    "systems.maps.s": ("systems.maps", "self"),
    "systems.penalty.calls": ("systems.penalty", "calls"),
    "systems.penalty.s": ("systems.penalty", "self"),
    "spaces.region_contains.calls": ("spaces.region_contains", "calls"),
    "spaces.region_contains.s": ("spaces.region_contains", "self"),
    "spaces.distance.calls": ("spaces.distance", "calls"),
    "spaces.distance.s": ("spaces.distance", "self"),
    "spaces.metric.calls": ("spaces.metric", "calls"),
    "spaces.metric.s": ("spaces.metric", "self"),
    "spaces.region_draw.points": ("spaces.region_draw", "units"),
    "instances.build.calls": ("instances.build", "calls"),
    "instances.build.s": ("instances.build", "self"),
    "instances.load_instance_json.s": ("instances.load_instance_json", "self"),
    "instances.certify_cyclic.calls": ("instances.certify_cyclic", "calls"),
    "instances.certify_cyclic.s": ("instances.certify_cyclic", "self"),
    "instances.cyclic3_reduce.calls": ("instances.cyclic3_reduce", "calls"),
    "instances.cyclic3_reduce.s": ("instances.cyclic3_reduce", "self"),
    "instances.cyclic3_solve.s": ("instances.cyclic3_solve", "self"),
    "instances.cyclic_map.calls": ("instances.cyclic_map", "calls"),
    "instances.cyclic_map.s": ("instances.cyclic_map", "self"),
    "instances.candidates.generated": ("instances.candidates", "calls"),
    "iteration.run_paired.calls": ("iteration.run_paired", "calls"),
    "iteration.run_paired.s": ("iteration.run_paired", "self"),
    "iteration.steps": ("iteration.run_paired", "units"),
    "iteration.detect_limit.calls": ("iteration.detect_limit", "calls"),
    "iteration.detect_limit.s": ("iteration.detect_limit", "self"),
    "iteration.write_trace_csv.rows": ("iteration.write_trace_csv", "units"),
    "iteration.write_trace_csv.s": ("iteration.write_trace_csv", "self"),
    "validators.check_l1_bound.s": ("validators.check_l1_bound", "self"),
    "validators.check_l2_bound.s": ("validators.check_l2_bound", "self"),
    "validators.tail_sup.calls": ("validators.tail_sup", "calls"),
    "validators.tail_sup.s": ("validators.tail_sup", "self"),
    "validators.uc_falsify.s": ("validators.uc_falsify", "self"),
    "validators.cd_falsify.s": ("validators.cd_falsify", "self"),
    "cli.emit.s": ("cli.emit", "self"),
    "cli.emit.bytes": ("cli.emit", "units"),
    "cli.self_s": ("cli.command", "self"),
}

#: waste ratios: name -> (numerator, base, what the base counts)
RATIOS = {
    "systems.maps_per_sample": (
        ("systems.verify_contraction", "systems.maps"),
        ("systems.verify_contraction", "systems.p_draw"),
        "quadruples sampled inside verify_contraction",
    ),
    "systems.resolve_constants_per_cmd": (
        "systems.resolve_constants",
        "commands",
        "commands in the cycle",
    ),
    "instances.certify_cyclic_per_verify": (
        "cyclic_verify.certify_cyclic",
        "cyclic_verify.commands",
        "verify commands on cyclic instances",
    ),
    "spaces.region_contains_per_cyclic_map": (
        "segment_triple.region_contains",
        "segment_triple.cyclic_map",
        "cyclic map calls in commands on cyclic3-affine, whose map finds its spoke by region tests",
    ),
}

#: counts reported as they are, not per base
SCOPED_COUNTS = {
    "validators.check_l2_bound.distance_calls": (
        "validators.check_l2_bound",
        "spaces.distance",
    ),
}


def layer_table(tracer, wall_s: float) -> dict:
    """Everything one traced repetition measured, keyed for comparison."""
    counts = {f"calls:{k}": v for k, v in tracer.calls.items()}
    counts.update({f"units:{k}": v for k, v in tracer.units.items()})
    counts.update({f"scoped:{a}>{b}": v for (a, b), v in tracer.scoped.items()})
    verify_cmds = [c for argv, c, _ in tracer.per_command
                   if argv[0] == "verify" and c.get("instances.certify_cyclic")]
    counts["cyclic_verify.commands"] = len(verify_cmds)
    counts["cyclic_verify.certify_cyclic"] = sum(c["instances.certify_cyclic"] for c in verify_cmds)
    segment = [(c, s) for argv, c, s in tracer.per_command if "cyclic3-affine" in argv]
    counts["segment_triple.cyclic_map"] = sum(c["instances.cyclic_map"] for c, _ in segment)
    counts["segment_triple.region_contains"] = sum(
        s[("instances.cyclic_map", "spaces.region_contains")] for _, s in segment)
    counts["commands"] = len(tracer.per_command)
    layers = {
        name: {
            "calls": tracer.calls[name],
            "incl_s": tracer.incl[name],
            "self_s": tracer.self_s[name],
        }
        for name in sorted(tracer.calls)
    }
    return {"wall_s": wall_s, "counts": counts, "layers": layers}


def _count(counts: dict, key) -> int:
    if isinstance(key, tuple):
        return counts.get(f"scoped:{key[0]}>{key[1]}", 0)
    if key in counts:
        return counts[key]
    return counts.get(f"calls:{key}", 0)


def layer_metrics(reps: list, overhead: float) -> tuple:
    """(per-layer metrics, split summary) from the traced repetitions."""
    counts = reps[0]["counts"]

    def self_s(span: str) -> float:
        return statistics.median(r["layers"].get(span, {}).get("self_s", 0.0) for r in reps)

    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if field == "self":
            metrics[metric] = {"value": self_s(span), "unit": "s"}
        else:
            key = "calls" if field == "calls" else "units"
            unit = "count" if field == "calls" else metric.rsplit(".", 1)[1]
            metrics[metric] = {"value": counts.get(f"{key}:{span}", 0), "unit": unit}
    for metric, key in SCOPED_COUNTS.items():
        metrics[metric] = {"value": _count(counts, key), "unit": "count"}
    ratios = {}
    for metric, (num, base, what) in RATIOS.items():
        n, b = _count(counts, num), _count(counts, base)
        ratios[metric] = {"value": n / b if b else 0.0, "numerator": n, "base": b, "base_is": what}
        metrics[metric] = {"value": ratios[metric]["value"], "unit": "ratio"}

    names = set().union(*(r["layers"] for r in reps))
    total = statistics.median(r["layers"]["cli.command"]["incl_s"] for r in reps)
    module_self = {m: sum(self_s(n) for n in names if n.startswith(m + ".")) for m in MODULES}
    for m in MODULES:
        metrics[f"layer.{m}.self_s"] = {"value": module_self[m], "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    top = sorted(names, key=self_s, reverse=True)[:8]
    split = {
        "command_s": total,
        "module_self_s": module_self,
        "module_share": {m: v / total for m, v in module_self.items()},
        "top_self": [[n, self_s(n), self_s(n) / total] for n in top],
        "ratios": ratios,
    }
    return metrics, split
