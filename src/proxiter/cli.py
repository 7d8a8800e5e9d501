"""Batch command line: load instances, run experiments, emit reports.

Exit codes are a stable contract: 0 success, 1 usage or domain error,
2 undecided (budget or step limit exhausted), 3 refutation or counterexample.
All randomness flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .errors import ProxiterError
from .instances import (
    ALIASES,
    REGISTRIES,
    cyclic3_solve,
    list_instances,
    load_instance_json,
    pair_cd_generator,
    pair_uc_generator,
    verify_cyclic,
)
from .iteration import (
    PairedRun,
    make_infimum_sequence,
    run_paired,
    trace_csv_chunks,
    uniqueness_scan,
    write_trace_csv,
)
from .spaces import format_point, parse_point
from .systems import verify_contraction
from .validators import cd_falsify, check_l1_bound, check_l2_bound, uc_falsify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2
EXIT_REFUTED = 3


def _json_safe(value):
    """Copy of a payload with each non-finite float spelled as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(payload: dict, out: Optional[str]) -> None:
    """Write the report as strict JSON; non-finite floats become strings."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_out(lambda fh: fh.write(text + "\n"), out)


def _write_out(write, out: Optional[str]) -> None:
    """Run write(fh) on the file at out, or on stdout when there is none.

    An OS failure on the file is an error, not a traceback.
    """
    if not out:
        write(sys.stdout)
        return
    try:
        with open(out, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ProxiterError(f"cannot write {out}: {exc}") from exc


def _check_writable(out: str) -> None:
    """Fail before any work when out cannot be written; creates and truncates nothing.

    An existing path is opened for appending and closed unwritten; for a new
    file, its directory must exist and be writable.
    """
    try:
        if os.path.exists(out):
            with open(out, "a"):
                pass
            return
        parent = os.path.dirname(out) or os.curdir
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)
    except OSError as exc:
        raise ProxiterError(f"cannot write {out}: {exc}") from exc


def _report(command: str, args: argparse.Namespace, **payload) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func",)}
    return {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        **payload,
    }


def _resolve(name: str):
    """Return (kind, entry) for a registry name or a JSON instance path."""
    name = ALIASES.get(name, name)
    for kind, registry in REGISTRIES:
        if name in registry:
            return kind, registry[name]
    if name.endswith(".json"):
        return "system", load_instance_json(name)
    raise ProxiterError(f"unknown instance {name!r}; try the list command")


def cmd_list(args: argparse.Namespace) -> int:
    rows = list_instances()
    if args.format == "json":
        _emit(_report("list", args, instances=[
            {"name": n, "kind": k, "description": d} for n, k, d in rows
        ]), args.out)
    else:
        _write_out(lambda fh: fh.writelines(f"{n:22s} {k:8s} {d}\n" for n, k, d in rows), args.out)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    kind, entry = _resolve(args.instance)
    if kind == "pair":
        raise ProxiterError("pair instances support the scan command only")

    if kind == "cyclic":
        if args.x0 is not None or args.y0 is not None:
            raise ProxiterError(
                "--x0 and --y0 apply to system instances; a cyclic run starts "
                "from its instance's own points"
            )
        result, first = cyclic3_solve(entry.build(), args.steps, args.tol, seed=args.seed)
        if args.format == "csv":
            _write_out(lambda fh: write_trace_csv(first, fh), args.out)
            return EXIT_OK if result is not None else EXIT_UNDECIDED
        if result is None:
            _emit(_report("run", args, outcome="undecided"), args.out)
            return EXIT_UNDECIDED
        _emit(_report("run", args, outcome="converged", result=result.to_dict()), args.out)
        return EXIT_OK

    system = entry.build()
    x0 = parse_point(args.x0) if args.x0 is not None else entry.default_x0
    y0 = parse_point(args.y0) if args.y0 is not None else entry.default_y0
    q0 = entry.quadruple(x0, y0)
    run = PairedRun(system, q0, args.steps, args.tol)
    if args.format == "csv":
        # the whole run is formatted before anything is written
        chunks = trace_csv_chunks(run)
        _write_out(lambda fh: fh.writelines(chunks), args.out)
    else:
        _emit(_report("run", args, report=run.report().to_dict()), args.out)
    if run.stop_reason == "tolerance-met":
        return EXIT_OK
    return EXIT_UNDECIDED


def cmd_verify(args: argparse.Namespace) -> int:
    kind, entry = _resolve(args.instance)
    if kind == "pair":
        raise ProxiterError("pair instances support the scan command only")

    if kind == "cyclic":
        if args.lam is not None:
            raise ProxiterError(
                "--lambda applies to system instances; a cyclic verify certifies "
                "its reduction's own constant"
            )
        worst, arg, cert = verify_cyclic(entry.build(), args.samples, args.seed, args.depth)
        payload = {"summed_residual_min": worst}
        if cert is None:
            payload["witness"] = [format_point(p) for p in arg]
            _emit(_report("verify", args, verdict="refuted", **payload), args.out)
            return EXIT_REFUTED
        payload["reduction"] = cert.to_dict()
        verdict = "certified-on-samples" if cert.certified else "refuted"
        _emit(_report("verify", args, verdict=verdict, **payload), args.out)
        return EXIT_OK if cert.certified else EXIT_REFUTED

    system = entry.build()
    if args.lam is not None:
        system = dataclasses.replace(system, lam=args.lam)
    cert = verify_contraction(system, args.samples, args.seed, depth=args.depth)
    payload = {"certification": cert.to_dict()}
    bounds_ok = None
    if cert.certified:
        q0 = entry.quadruple(entry.default_x0, entry.default_y0)
        paired, _ = run_paired(system, q0, 300, 1e-9)
        l1 = check_l1_bound(paired, system) if paired.steps >= 2 else True
        l2 = check_l2_bound(paired, system)
        bounds_ok = bool(l1 and l2.ok)
        payload["bounds"] = {
            "l1_ok": bool(l1),
            "l2_ok": l2.ok,
            "l2_m": l2.m,
            "l2_first_violation": l2.first_violation,
        }
    verdict = "certified-on-samples" if (cert.certified and bounds_ok) else "refuted"
    _emit(_report("verify", args, verdict=verdict, **payload), args.out)
    return EXIT_OK if verdict == "certified-on-samples" else EXIT_REFUTED


def _parse_grid(text: str, budget: int) -> list[float]:
    """The points lo, lo + step, ... up to hi; more than budget points is an error."""
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ProxiterError(f"bad grid spec {text!r}, want lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ProxiterError(f"bad grid spec {text!r}, lo, hi and step must be finite")
    if step <= 0:
        raise ProxiterError("grid step must be positive")
    out = []
    while True:
        v = lo + len(out) * step
        if v > hi + 1e-12:
            return out
        if len(out) == budget:
            raise ProxiterError(f"grid {text!r} has more than --budget {budget} points")
        out.append(v)


def cmd_scan(args: argparse.Namespace) -> int:
    kind, entry = _resolve(args.instance)

    if args.kind == "uniqueness":
        if kind != "system":
            raise ProxiterError("uniqueness scans need a system instance")
        system = entry.build()
        if system.pair.space.dim != 1:
            raise ProxiterError("uniqueness scans are wired for one-dimensional regions")
        if not args.grid:
            raise ProxiterError("uniqueness scans need --grid lo:hi:step")
        grid = _parse_grid(args.grid, args.budget)
        q0 = entry.quadruple(entry.default_x0, entry.default_y0)
        report = PairedRun(system, q0, 500, args.tol).report()
        if report.limit is None:
            _emit(_report("scan", args, outcome="undecided"), args.out)
            return EXIT_UNDECIDED
        alpha = report.limit
        candidates = []
        skipped = 0
        for g in grid:
            beta = (g,)
            if not system.pair.a.contains(beta):
                skipped += 1
                continue
            try:
                seq = make_infimum_sequence(
                    system, beta, (q0.y, q0.v), lambda n, b=beta: b, 12,
                    f_tol=1e-9,
                )
            except ProxiterError:
                skipped += 1
                continue
            candidates.append((beta, seq))
        violations = uniqueness_scan(system, alpha, candidates, args.tol)
        payload = {
            "alpha": format_point(alpha),
            "candidates": len(candidates),
            "skipped": skipped,
            "violations": [
                {"beta": format_point(v.beta), "tail_residual": v.tail_residual}
                for v in violations
            ],
        }
        _emit(_report("scan", args, outcome="done", **payload), args.out)
        return EXIT_REFUTED if violations else EXIT_OK

    if args.grid is not None:
        raise ProxiterError(f"--grid applies to uniqueness scans, not {args.kind} scans")
    if kind != "pair":
        raise ProxiterError(f"{args.kind} scans need a pair instance")
    pair = entry.build()
    if args.kind == "cd":
        gen = pair_cd_generator(entry.name, args.seed)
        found = cd_falsify(pair, gen, args.budget, args.tol)
    elif args.kind == "uc":
        gen = pair_uc_generator(entry.name, args.seed)
        found = uc_falsify(pair, gen, args.budget, args.tol)
    else:
        raise ProxiterError(f"unknown scan kind {args.kind!r}")
    if found is None:
        _emit(_report("scan", args, outcome="no-counterexample"), args.out)
        return EXIT_OK
    _emit(
        _report("scan", args, outcome="counterexample", witness=found.to_dict()),
        args.out,
    )
    return EXIT_REFUTED


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own output fails as every command's does.

    argparse drops an OSError from writing its help, version or usage text,
    so with an unbuffered stdout a closed pipe would lose --help silently.
    """

    def _print_message(self, message, file):
        if message:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="proxiter",
        description="Run, certify and falsify externally-driven contraction systems.",
    )
    parser.add_argument("--version", action="version", version=f"proxiter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=(*formats, "json"), default="json")

    p_list = sub.add_parser("list", help="list built-in instances")
    common(p_list, "table")
    p_list.set_defaults(func=cmd_list, format="table")

    p_run = sub.add_parser("run", help="run the paired iteration")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--x0", default=None, help="first-side start, comma-separated")
    p_run.add_argument("--y0", default=None, help="second-side start, comma-separated")
    p_run.add_argument("--steps", type=int, default=500)
    p_run.add_argument("--tol", type=float, default=1e-9)
    common(p_run, "csv")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="certify the contraction conditions")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--samples", type=int, default=10000)
    p_verify.add_argument("--depth", type=int, default=8)
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="override the declared constant")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="uniqueness scan or property falsification")
    p_scan.add_argument("--kind", choices=("uniqueness", "cd", "uc"), required=True)
    p_scan.add_argument("--instance", required=True)
    p_scan.add_argument("--grid", default=None, help="candidate grid lo:hi:step")
    p_scan.add_argument("--budget", type=int, default=1000)
    p_scan.add_argument("--tol", type=float, default=1e-6)
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    # list draws nothing, so only these commands take a seed
    for p in (p_run, p_verify, p_scan):
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    return parser


#: the parser, built on the first main() call and reused: parsing leaves it
#: unchanged, and each handler looks its helpers up when it runs
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 after printing a usage error; 2 means undecided here
            if exc.code == 2:
                return EXIT_ERROR
            sys.stdout.flush()  # --help and --version: a closed stdout fails here
            raise
        if args.out:
            _check_writable(args.out)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except ProxiterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush stays quiet (Python's signal docs,
        # "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
