"""Paired iteration engine, limit detection, and weak-fixed-point scans."""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DomainViolationError,
    InvalidInputError,
    NotAnInfimumSequenceError,
    NumericFailureError,
)
from .spaces import (
    MetricSpace,
    Point,
    _point_template,
    distance,
    format_point,
)
from .systems import (
    CElement,
    ExternalFactorSystem,
    Quadruple,
    format_celement,
    resolve_constants,
)

#: number of consecutive settled steps required before declaring a limit
CONFIRM_WINDOW = 10

#: magnitude bound beyond which a run is aborted as divergent
DIVERGENCE_GUARD = 1e15

#: trace rows formatted per chunk by write_trace_csv and trace_csv_chunks
CSV_CHUNK_ROWS = 512


@dataclass(frozen=True)
class IterationTrace:
    """States of one iterated sequence pair (x_n, u_n) with f values along it."""

    space: MetricSpace
    points: tuple[Point, ...]
    celements: tuple[CElement, ...]
    f_values: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class PairedTrace:
    """Lock-stepped traces of both sides plus the per-step cross distance."""

    a: IterationTrace
    b: IterationTrace
    rho_xy: tuple[float, ...]

    @property
    def steps(self) -> int:
        return self.a.steps


@dataclass(frozen=True)
class ConvergenceReport:
    limit: Optional[Point]
    proximity_residual: Optional[float]
    fa_residual: Optional[float]
    fb_residual: Optional[float]
    rho_alpha_y_tail: Optional[float]
    steps: int
    stop_reason: str  # tolerance-met | max-steps | divergence-guard
    dist: float

    def to_dict(self) -> dict:
        return {
            "limit": None if self.limit is None else format_point(self.limit),
            "proximity_residual": self.proximity_residual,
            "fa_residual": self.fa_residual,
            "fb_residual": self.fb_residual,
            "rho_alpha_y_tail": self.rho_alpha_y_tail,
            "steps": self.steps,
            "stop_reason": self.stop_reason,
            "dist": self.dist,
        }


@dataclass(frozen=True)
class InfimumSequence:
    """A C-sequence anchored at a point, admissible in P, with f tending to inf f."""

    anchor: Point
    witness_y: Point
    witness_v: CElement
    elements: tuple[CElement, ...]
    f_values: tuple[float, ...]


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite, zero or negative."""
    if not (0.0 < tol < math.inf):
        raise InvalidInputError(f"tol must be positive and finite, got {tol}")


def _settled(space: MetricSpace, points: Sequence[Point], tol: float) -> bool:
    """Whether the last min(CONFIRM_WINDOW, n) of the n successive distances are all < tol."""
    n = len(points) - 1
    tail = range(n - min(CONFIRM_WINDOW, n), n)
    return all(distance(space, points[i], points[i + 1]) < tol for i in tail)


def detect_limit(trace: IterationTrace, tol: float) -> Optional[Point]:
    """The final point when the last CONFIRM_WINDOW successive distances are all < tol.

    A trace shorter than the window is judged on all its transitions; a
    single-state trace is vacuously settled.
    """
    _check_tol(tol)
    return trace.points[-1] if _settled(trace.space, trace.points, tol) else None


def _beyond_guard(x: Point, y: Point, step: int) -> bool:
    """Whether a coordinate of x or y exceeds DIVERGENCE_GUARD in magnitude.

    The first non-finite coordinate, x before y, raises instead.
    """
    big = False
    for p in (x, y):
        for c in p:
            if not math.isfinite(c):
                raise NumericFailureError(f"non-finite coordinate at step {step}: {p}")
            if abs(c) > DIVERGENCE_GUARD:
                big = True
    return big


class PairedRun:
    """The rows of one paired run, in trace CSV column order, from n = 0.

    Iterating advances both sides in lock step and yields (n, x_n, u_n, y_n,
    v_n, rho(x_n, y_n), f_A(u_n), f_B(v_n)) until both sides settle or the
    budget ends.  The stop rule requires the successive displacements of both
    sides to stay below tol for a full confirmation window.  Each step calls
    T_A, H_A, T_B, H_B in that order (H not at all on a side whose H is its
    T), and a penalty only when its side's external element is a new object;
    otherwise the previous f value is reused, as every map is pure.  The
    arguments are checked at construction.  stop_reason says why the run
    ended; it is None until the rows are exhausted, and stays None after a
    run that raised or was left part way.
    """

    def __init__(self, system: ExternalFactorSystem, q0: Quadruple, max_steps: int, tol: float):
        _check_tol(tol)
        if max_steps < 0:
            raise InvalidInputError("max_steps must be nonnegative")
        q0 = Quadruple(*q0)
        if not system.in_p(q0):
            raise InvalidInputError(f"initial quadruple not in P: {q0}")
        self.system, self.q0, self.max_steps, self.tol = system, q0, max_steps, tol
        self.stop_reason: Optional[str] = None

    def __iter__(self) -> Iterator[tuple]:
        self.stop_reason = None
        system, q0, tol = self.system, self.q0, self.tol
        space = system.pair.space
        region_a, region_b = system.pair.a, system.pair.b
        fa, fb = system.f_a.fn, system.f_b.fn
        fa_k, fb_k = fa(q0.u), fb(q0.v)
        yield 0, q0.x, q0.u, q0.y, q0.v, distance(space, q0.x, q0.y), fa_k, fb_k

        # the loop body checks each new point once and calls the metric directly;
        # every earlier point already passed distance()'s dimension check
        a_contains, b_contains = region_a.contains, region_b.contains
        metric, dim = space.metric, space.dim
        guard = DIVERGENCE_GUARD
        lo = -guard
        t_a, t_b = system.t_a, system.t_b
        h_a = None if system.h_a is t_a else system.h_a
        h_b = None if system.h_b is t_b else system.h_b
        x_prev, y_prev, u, v = q0
        settled = 0
        window = CONFIRM_WINDOW
        for k in range(1, self.max_steps + 1):
            x_next = t_a(x_prev, u)
            u_next = x_next if h_a is None else h_a(x_prev, u)
            y_next = t_b(y_prev, v)
            v_next = y_next if h_b is None else h_b(y_prev, v)
            # a coordinate fails the chained test only when it is NaN or beyond
            # the guard; then the exact pass raises on a non-finite one or trips it
            big = False
            for c in x_next:
                if not lo <= c <= guard:
                    big = True
            for c in y_next:
                if not lo <= c <= guard:
                    big = True
            if big:
                big = _beyond_guard(x_next, y_next, k)
            if not a_contains(x_next):
                raise DomainViolationError(
                    f"T_A output {x_next} left region {region_a.name} at step {k}", step=k
                )
            if not b_contains(y_next):
                raise DomainViolationError(
                    f"T_B output {y_next} left region {region_b.name} at step {k}", step=k
                )
            if len(x_next) != dim or len(y_next) != dim:
                distance(space, x_prev, x_next)
                distance(space, y_prev, y_next)
            da = metric(x_prev, x_next)
            db = metric(y_prev, y_next)
            if u_next is not u:
                fa_k = fa(u_next)
            if v_next is not v:
                fb_k = fb(v_next)
            r = metric(x_next, y_next)
            yield k, x_next, u_next, y_next, v_next, r, fa_k, fb_k

            if big or r > guard:
                self.stop_reason = "divergence-guard"
                return
            # max(da, db), NaN included: da unless db is greater
            settled = settled + 1 if (db if db > da else da) < tol else 0
            if settled >= window:
                self.stop_reason = "tolerance-met"
                return
            x_prev, u, y_prev, v = x_next, u_next, y_next, v_next
        self.stop_reason = "max-steps"

    def report(self) -> ConvergenceReport:
        """Run to the end holding only the last CONFIRM_WINDOW rows, and report."""
        window = deque(self, maxlen=CONFIRM_WINDOW)
        return _window_report(window, self.stop_reason, self.system)


def _window_report(
    window: Sequence[tuple], stop_reason: str, system: ExternalFactorSystem
) -> ConvergenceReport:
    """A run's report from its stop reason and its last CONFIRM_WINDOW rows.

    A limit is reported only when both sides settled; the streak that ended
    the run already holds the settle rule over the final window, and the
    residuals are tail means over it.
    """
    steps = window[-1][0]
    constants = resolve_constants(system)
    if stop_reason != "tolerance-met":
        return ConvergenceReport(None, None, None, None, None, steps, stop_reason, constants.dist)
    n = CONFIRM_WINDOW
    limit = window[-1][1]
    space = system.pair.space
    rho_tail = sum([distance(space, limit, row[3]) for row in window]) / n
    fa_tail = sum([row[6] for row in window]) / n - constants.inf_a
    fb_tail = sum([row[7] for row in window]) / n - constants.inf_b
    return ConvergenceReport(
        limit=limit,
        proximity_residual=abs(rho_tail - constants.dist),
        fa_residual=fa_tail,
        fb_residual=fb_tail,
        rho_alpha_y_tail=rho_tail,
        steps=steps,
        stop_reason=stop_reason,
        dist=constants.dist,
    )


def run_paired(
    system: ExternalFactorSystem,
    q0: Quadruple,
    max_steps: int,
    tol: float,
) -> tuple[PairedTrace, ConvergenceReport]:
    """A PairedRun collected whole: its trace and its report.

    Callers that need only the report, or the CSV text, stream the run
    instead (PairedRun.report, trace_csv_chunks).
    """
    run = PairedRun(system, q0, max_steps, tol)
    rows = list(run)
    _, xs, us, ys, vs, rho, fa_vals, fb_vals = zip(*rows)
    space = system.pair.space
    trace_a = IterationTrace(space, xs, us, fa_vals)
    trace_b = IterationTrace(space, ys, vs, fb_vals)
    report = _window_report(rows[-CONFIRM_WINDOW:], run.stop_reason, system)
    return PairedTrace(trace_a, trace_b, rho), report


def make_infimum_sequence(
    system: ExternalFactorSystem,
    anchor: Point,
    witness: tuple[Point, CElement],
    generator: Callable[[int], CElement],
    length: int,
    *,
    f_tol: float = 1e-6,
) -> InfimumSequence:
    """Materialize and validate a C-sequence anchored at a point.

    Every element must keep (anchor, y, c_n, v) inside P, and the final f
    value must sit within f_tol of the supplied infimum of f_A.
    """
    if length < 1:
        raise InvalidInputError("length must be >= 1")
    y, v = witness
    elements = []
    f_values = []
    for n in range(length):
        c = generator(n)
        if not system.p.contains(anchor, y, c, v):
            raise InvalidInputError(
                f"element {n} breaks admissibility: ({anchor}, {y}, c, v) not in P"
            )
        elements.append(c)
        f_values.append(system.f_a.fn(c))
    inf_a = resolve_constants(system).inf_a
    if f_values[-1] > inf_a + f_tol:
        raise NotAnInfimumSequenceError(
            f"tail f value {f_values[-1]} exceeds inf {inf_a} + {f_tol}"
        )
    return InfimumSequence(anchor, y, v, tuple(elements), tuple(f_values))


def weak_fixed_residuals(
    system: ExternalFactorSystem, alpha: Point, inf_seq: InfimumSequence
) -> list[float]:
    """Distances rho(T_A(alpha, c_n), alpha) along an anchored sequence."""
    if inf_seq.anchor != alpha:
        raise InvalidInputError("infimum sequence is not anchored at the given point")
    space = system.pair.space
    out = []
    for c in inf_seq.elements:
        if not system.p.contains(alpha, inf_seq.witness_y, c, inf_seq.witness_v):
            raise InvalidInputError("anchored quadruple left P")
        out.append(distance(space, system.t_a(alpha, c), alpha))
    return out


class Violation(NamedTuple):
    beta: Point
    tail_residual: float


def uniqueness_scan(
    system: ExternalFactorSystem,
    alpha: Point,
    candidates: list[tuple[Point, InfimumSequence]],
    tol: float,
) -> list[Violation]:
    """Hunt for a second weakly fixed point away from alpha.

    A violation is a candidate beta whose weak-fixation residual tail stays
    below tol while beta itself sits more than 10*tol away from alpha.
    """
    _check_tol(tol)
    space = system.pair.space
    violations = []
    for beta, seq in candidates:
        sep = distance(space, beta, alpha)
        if sep <= 10.0 * tol:
            continue
        residuals = weak_fixed_residuals(system, beta, seq)
        w = min(CONFIRM_WINDOW, len(residuals))
        tail = max(residuals[-w:])
        if tail < tol:
            violations.append(Violation(beta, tail))
    return violations


@functools.lru_cache(maxsize=64)
def _row_template(x_slot: str, y_slot: str) -> str:
    """One trace row as a single ``%`` template, with the given x and y slots."""
    return f"%d,{x_slot},%s,{y_slot},%s,%.17g,%.17g,%.17g\n"


def _point_columns(points: Sequence[Point]) -> tuple:
    """A row slot for a chunk of points and the columns that fill it.

    When every point has the same nonzero length d, the slot is d ``%.17g``
    slots, format_point's own template, filled from the transposed points;
    otherwise it is one ``%s`` filled by format_point.
    """
    lengths = set(map(len, points))
    d = lengths.pop() if len(lengths) == 1 else 0
    if d:
        return _point_template(d, 17), zip(*points)
    return "%s", (map(format_point, points),)


def _celement_texts(celements: Sequence[CElement]) -> list[str]:
    """format_celement of each element, called once per run of the same object."""
    texts = []
    last, text = object(), ""
    for c in celements:
        if c is not last:
            last, text = c, format_celement(c)
        texts.append(text)
    return texts


_CSV_HEADER = "n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v\n"


def _csv_rows(ns, xs, us, ys, vs, rho, fa_vals, fb_vals) -> str:
    """The CSV text of one chunk of rows, given column by column; one ``%`` call per row."""
    x_slot, x_columns = _point_columns(xs)
    y_slot, y_columns = _point_columns(ys)
    rows = zip(
        ns, *x_columns, _celement_texts(us), *y_columns, _celement_texts(vs), rho, fa_vals, fb_vals
    )
    return "".join(map(_row_template(x_slot, y_slot).__mod__, rows))


def trace_csv_chunks(run: PairedRun) -> list[str]:
    """write_trace_csv's text for a run: the header, then one string per chunk.

    Each CSV_CHUNK_ROWS rows are formatted as the run yields them, so the
    run is held only as text; a run that raises leaves nothing to write.
    """
    texts = [_CSV_HEADER]
    rows = iter(run)
    while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
        texts.append(_csv_rows(*zip(*chunk)))
    return texts


def write_trace_csv(paired: PairedTrace, fh) -> None:
    """Trace table: n, x_n, u_n, y_n, v_n, rho_xy, f_a_u, f_b_v.

    Coordinates are semicolon-joined and printed with 17 significant digits
    so that values round-trip exactly.  Rows are written CSV_CHUNK_ROWS at a
    time, so a long trace is never held whole as text, and each row is one
    ``%`` call.  Columns of different lengths are refused before anything is
    written: a CSV trace is the whole run or nothing.
    """
    a, b = paired.a, paired.b
    columns = {
        "x_n": a.points, "u_n": a.celements, "y_n": b.points, "v_n": b.celements,
        "rho_xy": paired.rho_xy, "f_a_u": a.f_values, "f_b_v": b.f_values,
    }
    if len({len(column) for column in columns.values()}) > 1:
        lengths = ", ".join(f"{name} {len(column)}" for name, column in columns.items())
        raise InvalidInputError(f"trace columns differ in length: {lengths}")
    fh.write(_CSV_HEADER)
    for lo in range(0, len(a.points), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        fh.write(_csv_rows(range(lo, hi), *(column[lo:hi] for column in columns.values())))
