"""Counting and timing shims wrapped around proxiter's public functions.

Nothing here edits the package source.  ``install`` rebinds module-level
functions in every proxiter module that imported them by name, wraps the
callables stored in frozen dataclasses (regions, relations, system maps,
cyclic maps) with ``dataclasses.replace`` at the factory and registry
boundaries, and returns a ``Tracer`` whose ``uninstall`` restores every
binding.

A span has a name, a start, an end and a parent, and all spans of one
command share that command's id.  Spans are reduced to per-name totals as
they close (call count, inclusive time, self time), because a verify
command opens millions of leaf spans.  Self time is a span's duration minus
the time its child spans cover.  A shim reached again while a span of the
same name is open (a product region testing its factors, a product map
calling its factor maps) runs the wrapped function without a span, so the
work is counted once, at the outermost call.  Spans of the non-leaf names
are also kept whole for one pass so that they can be written out.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("spaces", "systems", "iteration", "validators", "instances", "cli")

#: leaf shims run per sample or per step; their spans are aggregated only
LEAF = {
    "spaces.distance",
    "spaces.metric",
    "spaces.region_contains",
    "spaces.region_draw",
    "systems.maps",
    "systems.penalty",
    "systems.p_contains",
    "systems.p_draw",
    "systems.contraction_residual",
    "instances.cyclic_map",
    "instances.candidates",
    "validators.tail_sup",
}

#: span name -> scopes; a span closing inside an open scope span is also counted there
SCOPED = {
    "systems.maps": ("systems.verify_contraction",),
    "systems.p_draw": ("systems.verify_contraction",),
    "spaces.region_contains": ("instances.cyclic_map",),
    "spaces.distance": ("validators.check_l2_bound",),
}

_clock = time.perf_counter


class Tracer:
    """Per-name span totals, the open-span stack, and the bindings it replaced."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.units = Counter()
        self.scoped = Counter()
        self.active = defaultdict(int)
        self.stack = []
        self.spans = []
        self.keep_spans = False
        self.command_id = -1
        self.per_command = []
        self._patches = []

    def reset(self, keep_spans: bool = False) -> None:
        self.calls.clear()
        self.incl.clear()
        self.self_s.clear()
        self.units.clear()
        self.scoped.clear()
        self.spans = []
        self.per_command = []
        self.keep_spans = keep_spans

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        frame = [name, _clock(), 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame, units=None):
        """Close a span; ``units`` is the work it did when that is not one call."""
        end = _clock()
        name, start, child = frame
        self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        if units is not None:
            self.units[name] += units
        for scope in SCOPED.get(name, ()):
            if self.active[scope]:
                self.scoped[(scope, name)] += 1 if units is None else units
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if self.keep_spans and name not in LEAF:
            self.spans.append(
                (self.command_id, name, start, end, parent[0] if parent else None)
            )

    def command(self, argv, run):
        """Run one command under a root span named ``cli.command``.

        Keeps the command's argv with the calls and scoped counts it added.
        """
        self.command_id += 1
        calls, scoped = Counter(self.calls), Counter(self.scoped)
        frame = self._open("cli.command")
        try:
            return run()
        finally:
            self._close(frame)
            calls = Counter(self.calls) - calls
            scoped = Counter(self.scoped) - scoped
            self.per_command.append((argv, calls, scoped))

    def shim(self, name, fn, measure=None):
        """Wrap fn in a span; measure(args, kwargs, result) gives the span's units."""
        tracer = self
        active = self.active

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            units = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    units = measure(args, kwargs, result)
                return result
            finally:
                tracer._close(frame, units)

        wrapper._perfbench_shim = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def rebind(self, target, key, value):
        """Set a module attribute, or a registry dict entry, and remember the old one."""
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def rebind_everywhere(self, original, wrapper):
        """Point every proxiter module binding of ``original`` at ``wrapper``."""
        for mod in _proxiter_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.rebind(mod, attr, wrapper)

    def uninstall(self):
        for target, key, old in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches = []


def _proxiter_modules():
    import proxiter

    return [proxiter] + [sys.modules[f"proxiter.{m}"] for m in MODULES]


def _is_shim(fn):
    return getattr(fn, "_perfbench_shim", False)


def install() -> Tracer:
    """Wrap the layers of an imported proxiter package; returns the tracer."""
    import proxiter.cli as cli
    import proxiter.instances as instances
    import proxiter.iteration as iteration
    import proxiter.spaces as spaces
    import proxiter.systems as systems
    import proxiter.validators as validators

    tr = Tracer()
    replace = dataclasses.replace

    def span(module, attr, name, measure=None, post=None):
        original = getattr(module, attr)
        inner = original if post is None else _post(original, post)
        tr.rebind_everywhere(original, tr.shim(name, inner, measure))

    def wrap_only(module, attr, post):
        original = getattr(module, attr)
        tr.rebind_everywhere(original, _post(original, post))

    # spaces: metrics and regions at their factories; the line metric is
    # rebound as a module global so that set_distance's identity test holds
    metric_shim = tr.shim("spaces.metric", spaces._abs_metric)
    tr.rebind(spaces, "_abs_metric", metric_shim)

    def traced_space(space):
        if _is_shim(space.metric):
            return space
        return replace(space, metric=tr.shim("spaces.metric", space.metric))

    def traced_region(region):
        if _is_shim(region.contains):
            return region
        return replace(
            region,
            contains=tr.shim("spaces.region_contains", region.contains),
            draw=tr.shim("spaces.region_draw", region.draw, _result_len),
        )

    for factory in ("vector_space", "compose_spaces"):
        wrap_only(spaces, factory, traced_space)
    for factory in (
        "interval",
        "singleton_region",
        "segment_region",
        "circle_region",
        "product_region",
    ):
        wrap_only(spaces, factory, traced_region)
    span(spaces, "distance", "spaces.distance")

    # systems: module functions, plus the callables a system carries
    def traced_system(system):
        if _is_shim(system.t_a):
            return system
        return replace(
            system,
            t_a=tr.shim("systems.maps", system.t_a),
            h_a=tr.shim("systems.maps", system.h_a),
            t_b=tr.shim("systems.maps", system.t_b),
            h_b=tr.shim("systems.maps", system.h_b),
            f_a=replace(system.f_a, fn=tr.shim("systems.penalty", system.f_a.fn)),
            f_b=replace(system.f_b, fn=tr.shim("systems.penalty", system.f_b.fn)),
            p=replace(
                system.p,
                contains=tr.shim("systems.p_contains", system.p.contains),
                draw=tr.shim("systems.p_draw", system.p.draw, _result_len),
            ),
        )

    for fn in (
        "verify_contraction",
        "contraction_residual",
        "check_p_invariance",
        "resolve_constants",
    ):
        span(systems, fn, f"systems.{fn}")

    # instances: factories return traced objects; registry builds are spans
    for factory in ("example1_system", "banach_system", "product_system"):
        wrap_only(instances, factory, traced_system)
    span(instances, "cyclic3_reduce", "instances.cyclic3_reduce", post=traced_system)
    span(instances, "certify_cyclic", "instances.certify_cyclic")
    span(instances, "cyclic3_solve", "instances.cyclic3_solve")

    def traced_cyclic(ct):
        if _is_shim(ct.t):
            return ct
        return replace(ct, t=tr.shim("instances.cyclic_map", ct.t))

    def traced_generator(gen):
        return tr.shim("instances.candidates", gen)

    for factory in ("pair_cd_generator", "pair_uc_generator"):
        wrap_only(instances, factory, traced_generator)

    def traced_entry(entry, post):
        return replace(entry, build=tr.shim("instances.build", _post(entry.build, post)))

    span(
        instances,
        "load_instance_json",
        "instances.load_instance_json",
        post=lambda entry: traced_entry(entry, traced_system),
    )
    for registry, post in (
        (instances.SYSTEMS, traced_system),
        (instances.CYCLIC, traced_cyclic),
        (instances.PAIRS, lambda pair: pair),
    ):
        for key, entry in list(registry.items()):
            tr.rebind(registry, key, traced_entry(entry, post))

    # iteration, validators, cli
    span(iteration, "run_paired", "iteration.run_paired", _run_steps)
    span(iteration, "detect_limit", "iteration.detect_limit")
    span(iteration, "write_trace_csv", "iteration.write_trace_csv", _trace_rows)
    for fn in ("check_l1_bound", "check_l2_bound", "tail_sup", "uc_falsify", "cd_falsify"):
        span(validators, fn, f"validators.{fn}")
    span(cli, "_emit", "cli.emit", _emitted_bytes)
    return tr


def _post(fn, post):
    def wrapper(*args, **kwargs):
        return post(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


def _result_len(args, kwargs, result):
    return len(result)


def _run_steps(args, kwargs, result):
    return result[0].steps


def _trace_rows(args, kwargs, result):
    return len(args[0].a.points)


def _emitted_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if out:
        return os.path.getsize(out)
    # the harness captures stdout in a fresh buffer per command
    return len(sys.stdout.getvalue())
