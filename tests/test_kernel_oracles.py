"""The paired-run step and the envelope sweep against their plain-formula references.

``reference_run_paired`` and ``reference_check_l2_bound`` are the straight
transcriptions that the package's loops replaced: one ``distance()`` call per
metric value, a generator-expression divergence guard, and the envelope
``lam ** (min(m, n) - 1)`` recomputed in every cell.  The package must give
the same traces, reports and certificates bit for bit (compared through
``repr``, so ``-0.0`` and NaN count), and where a reference raises, the
same exception type with the same message.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxiter import (
    ExternalFactor,
    ExternalFactorSystem,
    Quadruple,
    RelationP,
    SetPair,
    compose_spaces,
    real_line,
    vector_space,
)
from proxiter.errors import DomainViolationError, InvalidInputError, NumericFailureError
from proxiter.iteration import (
    CONFIRM_WINDOW,
    DIVERGENCE_GUARD,
    ConvergenceReport,
    IterationTrace,
    PairedTrace,
    _check_tol,
    run_paired,
)
from proxiter.spaces import MetricSpace, Point, Region, distance
from proxiter.systems import RESIDUAL_TOL, _orbit
from proxiter.validators import BoundCertificate, check_l2_bound


def _check_finite(p: Point, step: int) -> None:
    for c in p:
        if not math.isfinite(c):
            raise NumericFailureError(f"non-finite coordinate at step {step}: {p}")


def reference_run_paired(system, q0, max_steps, tol):
    """run_paired as a plain transcription: distance() everywhere, guard over x + y."""
    _check_tol(tol)
    if max_steps < 0:
        raise InvalidInputError("max_steps must be nonnegative")
    q0 = Quadruple(*q0)
    if not system.in_p(q0):
        raise InvalidInputError(f"initial quadruple not in P: {q0}")
    space = system.pair.space
    region_a, region_b = system.pair.a, system.pair.b
    dist = system.pair.dist_ab

    xs, us = [q0.x], [q0.u]
    ys, vs = [q0.y], [q0.v]
    fa_vals = [system.f_a.fn(q0.u)]
    fb_vals = [system.f_b.fn(q0.v)]
    rho = [distance(space, q0.x, q0.y)]

    settled = 0
    window = CONFIRM_WINDOW
    stop_reason = "max-steps"
    orbit_a = _orbit(system.t_a, system.h_a, q0.x, q0.u)
    orbit_b = _orbit(system.t_b, system.h_b, q0.y, q0.v)
    for k, (x_next, u_next), (y_next, v_next) in zip(range(1, max_steps + 1), orbit_a, orbit_b):
        _check_finite(x_next, k)
        _check_finite(y_next, k)
        if not region_a.contains(x_next):
            raise DomainViolationError(
                f"T_A output {x_next} left region {region_a.name} at step {k}", step=k
            )
        if not region_b.contains(y_next):
            raise DomainViolationError(
                f"T_B output {y_next} left region {region_b.name} at step {k}", step=k
            )
        da = distance(space, xs[-1], x_next)
        db = distance(space, ys[-1], y_next)
        xs.append(x_next)
        us.append(u_next)
        ys.append(y_next)
        vs.append(v_next)
        fa_vals.append(system.f_a.fn(u_next))
        fb_vals.append(system.f_b.fn(v_next))
        rho.append(distance(space, x_next, y_next))

        if any(abs(c) > DIVERGENCE_GUARD for c in x_next + y_next) or rho[-1] > DIVERGENCE_GUARD:
            stop_reason = "divergence-guard"
            break
        settled = settled + 1 if max(da, db) < tol else 0
        if settled >= window:
            stop_reason = "tolerance-met"
            break

    trace_a = IterationTrace(space, tuple(xs), tuple(us), tuple(fa_vals))
    trace_b = IterationTrace(space, tuple(ys), tuple(vs), tuple(fb_vals))
    paired = PairedTrace(trace_a, trace_b, tuple(rho))
    if stop_reason != "tolerance-met":
        report = ConvergenceReport(
            None, None, None, None, None, paired.steps, stop_reason, dist
        )
        return paired, report

    limit = xs[-1]
    w = min(window, len(ys) - 1) or 1
    tail_rho = [distance(space, limit, y) for y in ys[-w:]]
    rho_tail = sum(tail_rho) / len(tail_rho)
    fa_tail = sum(fa_vals[-w:]) / w - system.f_a.inf_value
    fb_tail = sum(fb_vals[-w:]) / w - system.f_b.inf_value
    report = ConvergenceReport(
        limit=limit,
        proximity_residual=abs(rho_tail - dist),
        fa_residual=fa_tail,
        fb_residual=fb_tail,
        rho_alpha_y_tail=rho_tail,
        steps=paired.steps,
        stop_reason=stop_reason,
        dist=dist,
    )
    return paired, report


def _reference_u(paired, system, m, n):
    rho = distance(system.pair.space, paired.a.points[m], paired.b.points[n])
    return rho + paired.a.f_values[m] + paired.b.f_values[n]


def with_s(system, s):
    """The system with S = s: set distance 0, f_A's infimum s and f_B's 0.

    0 + s + 0 is s, bit for bit, for every s >= 0 and for NaN.
    """
    return dataclasses.replace(
        system,
        pair=dataclasses.replace(system.pair, dist_ab=0.0),
        f_a=dataclasses.replace(system.f_a, inf_value=s),
        f_b=dataclasses.replace(system.f_b, inf_value=0.0),
    )


def reference_check_l2_bound(paired, system):
    """check_l2_bound as a plain transcription: every cell through distance()."""
    if paired.steps < 1:
        raise InvalidInputError("need at least one step")
    lam = system.lam
    s = system.pair.dist_ab + system.f_a.inf_value + system.f_b.inf_value
    horizon = paired.steps
    m_const = max(
        max(_reference_u(paired, system, k, 1) for k in range(1, horizon + 1)),
        max(_reference_u(paired, system, 1, k) for k in range(1, horizon + 1)),
    )
    first: Optional[tuple[int, int]] = None
    for mm in range(1, horizon + 1):
        for nn in range(1, horizon + 1):
            decay = lam ** (min(mm, nn) - 1)
            bound = decay * m_const + (1.0 - decay) * s
            if not (_reference_u(paired, system, mm, nn) <= bound + RESIDUAL_TOL):
                first = (mm, nn)
                break
        if first is not None:
            break
    return BoundCertificate(m_const, lam, s, first)


def _outcome(fn, *args):
    """('ok', repr of the result) or ('raised', type, message, step).

    Object addresses are cut from the repr: each run builds its own metric.
    """
    try:
        return ("ok", re.sub(r" at 0x[0-9a-f]+", "", repr(fn(*args))))
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return ("raised", type(exc), str(exc), getattr(exc, "step", None))


#: half-width of the box both regions are; wide enough that a guard jump stays inside
BOX = 1e20

SPACES = {
    "R": real_line(),
    "R2-sum": compose_spaces(real_line(), real_line()),
    "R2-euclidean": vector_space(2),
}

#: fault -> the point a map returns at its fault step, given the dimension
BAD_POINTS = {
    "nan": lambda d: (math.nan,) * d,
    "inf": lambda d: (math.inf,) * d,
    "-inf": lambda d: (-math.inf,) * d,
    "region-exit": lambda d: (5.0 * BOX,) * d,
    "guard": lambda d: (2.0 * DIVERGENCE_GUARD,) * d,
    "-guard": lambda d: (-2.0 * DIVERGENCE_GUARD,) * d,
    "wide": lambda d: (1.0,) * (d + 1),
    "short": lambda d: (1.0,) * (d - 1),
    "empty": lambda d: (),
    "-0.0": lambda d: (-0.0,) * d,
    # the guard's edges: on it (kept) and one ulp beyond it (tripped)
    "at-guard": lambda d: (DIVERGENCE_GUARD,) * d,
    "-at-guard": lambda d: (-DIVERGENCE_GUARD,) * d,
    "past-guard": lambda d: (math.nextafter(DIVERGENCE_GUARD, math.inf),) * d,
    "-past-guard": lambda d: (math.nextafter(-DIVERGENCE_GUARD, -math.inf),) * d,
}
#: the sides move to +-scale * DIVERGENCE_GUARD: only together do they trip the
#: guard, through rho, and at scale 0.5 rho lands on it exactly without tripping it
NEAR_GUARD = {"near-guard": 0.6, "half-guard": 0.5}
FAULTS = ("none", "nan-penalty") + tuple(NEAR_GUARD) + tuple(BAD_POINTS)


def _box(name: str) -> Region:
    def contains(p) -> bool:
        return all(-BOX <= c <= BOX for c in p)

    def draw(rng: random.Random, n: int):
        raise AssertionError("never sampled")

    return Region(name, contains, draw)


def _faulty_system(space_key, slope, offset, faults, pens, log):
    """x -> slope*x + offset per coordinate on both sides, each side with a fault.

    ``faults`` maps "a" and "b" to (fault, step).  The external element counts
    steps, so the maps stay pure: a side's map (or penalty) misbehaves when it
    makes that step.  Every map, penalty and metric call is appended to log.
    """
    base = SPACES[space_key]
    dim = base.dim

    def metric(x, y):
        log.append(("metric", x, y))
        return base.metric(x, y)

    def point_map(side):
        fault, k = faults[side]
        sign = 1.0 if side == "a" else -1.0

        def t(x, u):
            log.append(("t_" + side, x, u))
            if u[0] + 1 == k and fault in BAD_POINTS:
                return BAD_POINTS[fault](dim)
            if u[0] + 1 == k and fault in NEAR_GUARD:
                return (sign * NEAR_GUARD[fault] * DIVERGENCE_GUARD,) * dim
            return tuple(slope * c + offset for c in x)

        return t

    def count(side):
        def h(x, u):
            log.append(("h_" + side, x, u))
            return (u[0] + 1,)

        return h

    def penalty(side, weight):
        fault, k = faults[side]

        def f(u):
            log.append(("f_" + side, u))
            return math.nan if fault == "nan-penalty" and u[0] == k else weight * 0.5 ** u[0]

        return f

    region_a, region_b = _box("box-a"), _box("box-b")
    return ExternalFactorSystem(
        name="faulty",
        pair=SetPair(MetricSpace(base.name, dim, metric), region_a, region_b, dist_ab=0.0),
        t_a=point_map("a"),
        h_a=count("a"),
        t_b=point_map("b"),
        h_b=count("b"),
        f_a=ExternalFactor(penalty("a", pens[0]), 0.0),
        f_b=ExternalFactor(penalty("b", pens[1]), 0.0),
        p=RelationP(lambda x, y, u, v: region_a.contains(x) and region_b.contains(y), None),
        lam=0.5,
    )


def _same_outcome_and_calls(reference, new, system_args, make_args):
    """Run both on fresh copies of one system; their outcomes and call logs must agree.

    make_args(system) gives the positional arguments; returns the common outcome.
    """
    runs = []
    for fn in (reference, new):
        log: list = []
        system = _faulty_system(*system_args, log)
        runs.append((_outcome(fn, *make_args(system)), repr(log)))
    assert runs[1] == runs[0]
    return runs[0][0]


NO_FAULTS = {"a": ("none", 0), "b": ("none", 0)}
coordinate = st.one_of(st.floats(-10.0, 10.0), st.just(-0.0), st.just(0.0))


@st.composite
def side_faults(draw):
    """A fault per side; the second side's often lands on the same step."""
    k = draw(st.integers(1, 30))
    return {
        "a": (draw(st.sampled_from(FAULTS)), k),
        "b": (draw(st.sampled_from(FAULTS)), k + draw(st.sampled_from((0, 0, 1, -1)))),
    }


@settings(max_examples=250, deadline=None)
@given(
    space_key=st.sampled_from(sorted(SPACES)),
    slope=st.one_of(st.floats(-0.99, 0.99), st.just(0.0), st.just(1.5)),
    offset=st.one_of(st.floats(-5.0, 5.0), st.just(0.0)),
    faults=side_faults(),
    pens=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    max_steps=st.integers(0, 50),
    tol=st.sampled_from((1e-2, 1e-6, 1e-12)),
    start=st.tuples(coordinate, coordinate),
)
def test_run_paired_matches_the_reference(
    space_key, slope, offset, faults, pens, max_steps, tol, start
):
    dim = SPACES[space_key].dim
    q0 = Quadruple((start[0],) * dim, (start[1],) * dim, (0,), (0,))
    _same_outcome_and_calls(
        reference_run_paired,
        run_paired,
        (space_key, slope, offset, faults, pens),
        lambda system: (system, q0, max_steps, tol),
    )


#: (side A fault, side B fault), both at one step: the guard's edges, signed
#: zeros, non-finite values on either side, a non-finite side B behind a big
#: side A (the NaN must still raise, not trip the guard) and wrong dimensions
FAULT_PAIRS = [
    ("at-guard", "none"),
    ("-at-guard", "none"),
    ("none", "at-guard"),
    ("past-guard", "none"),
    ("-past-guard", "none"),
    ("none", "past-guard"),
    ("at-guard", "-at-guard"),
    ("-0.0", "-0.0"),
    ("-0.0", "none"),
    ("guard", "nan"),
    ("past-guard", "nan"),
    ("-guard", "inf"),
    ("nan", "guard"),
    ("inf", "none"),
    ("none", "-inf"),
    ("-inf", "inf"),
    ("wide", "none"),
    ("none", "short"),
    ("past-guard", "wide"),
    ("empty", "guard"),
]


@pytest.mark.parametrize("space_key", sorted(SPACES))
@pytest.mark.parametrize("fault_a, fault_b", FAULT_PAIRS)
def test_run_paired_matches_the_reference_at_the_step_checks_edges(space_key, fault_a, fault_b):
    dim = SPACES[space_key].dim
    q0 = Quadruple((1.0,) * dim, (1.0,) * dim, (0,), (0,))
    faults = {"a": (fault_a, 3), "b": (fault_b, 3)}
    outcome = _same_outcome_and_calls(
        reference_run_paired, run_paired, (space_key, 0.5, 1.0, faults, (1.0, 1.0)),
        lambda system: (system, q0, 8, 1e-9),
    )
    non_finite = ("nan", "inf", "-inf")
    if fault_a in non_finite or fault_b in non_finite:
        # the first non-finite point, side A before side B, names the error
        bad = fault_a if fault_a in non_finite else fault_b
        assert outcome[:2] == ("raised", NumericFailureError)
        assert outcome[2] == f"non-finite coordinate at step 3: {BAD_POINTS[bad](dim)}"
    elif "past-guard" in (fault_a, fault_b) and "wide" not in (fault_a, fault_b):
        assert "stop_reason='divergence-guard'" in outcome[1] and "steps=3" in outcome[1]


def test_run_paired_keeps_a_point_on_the_guard():
    # x lands on +guard and y stays near 2, so rho is under the guard as well
    q0 = Quadruple((1.0,), (1.0,), (0,), (0,))
    faults = {"a": ("at-guard", 3), "b": ("none", 0)}
    outcome = _same_outcome_and_calls(
        reference_run_paired, run_paired, ("R", 0.5, 1.0, faults, (1.0, 1.0)),
        lambda system: (system, q0, 8, 1e-9),
    )
    assert "stop_reason='max-steps'" in outcome[1] and "steps=8" in outcome[1]
    assert "(1000000000000000.0,)" in outcome[1]


def _fixed_side_system(fixed_side, element, space_key, slope, offset, faults, pens, log):
    """_faulty_system with fixed_side's H returning ``element`` at every step.

    That side's external element no longer counts steps, so its point map
    counts them in the first coordinate instead: x[0] runs 0, 1, ..., k and
    stays at k, the side's fault step, so the side can still settle.  The
    map stays pure and misbehaves when it makes step k; the side's penalty
    is NaN on the element when the fault is "nan-penalty" and element is (k,).
    """
    system = _faulty_system(space_key, slope, offset, faults, pens, log)
    dim = SPACES[space_key].dim
    fault, k = faults[fixed_side]
    sign = 1.0 if fixed_side == "a" else -1.0

    def t(x, u):
        log.append(("t_" + fixed_side, x, u))
        n = x[0] + 1
        if n == k and fault in BAD_POINTS:
            return BAD_POINTS[fault](dim)
        if n == k and fault in NEAR_GUARD:
            return (sign * NEAR_GUARD[fault] * DIVERGENCE_GUARD,) * dim
        return (min(n, k),) + tuple(slope * c + offset for c in x[1:])

    def h(x, u):
        log.append(("h_" + fixed_side, x, u))
        return element

    return dataclasses.replace(system, **{"t_" + fixed_side: t, "h_" + fixed_side: h})


#: faults after which a side can still settle
MILD_FAULTS = ("none", "nan-penalty", "at-guard", "half-guard")


@st.composite
def mild_or_any_faults(draw):
    """side_faults, or half the time faults that leave both sides able to settle."""
    faults = draw(side_faults())
    if draw(st.booleans()):
        faults = {side: (draw(st.sampled_from(MILD_FAULTS)), k) for side, (_, k) in faults.items()}
    return faults


@settings(max_examples=150, deadline=None)
@given(
    fixed_side=st.sampled_from(("a", "b")),
    start_is_element=st.booleans(),
    element_is_fault_step=st.booleans(),
    space_key=st.sampled_from(sorted(SPACES)),
    slope=st.one_of(st.floats(-0.99, 0.99), st.just(0.0), st.just(1.5)),
    offset=st.one_of(st.floats(-5.0, 5.0), st.just(0.0)),
    faults=mild_or_any_faults(),
    pens=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    max_steps=st.integers(0, 50),
    tol=st.sampled_from((1e-2, 1e-6, 1e-12)),
    start=st.tuples(coordinate, coordinate),
)
def test_run_paired_matches_the_reference_when_a_side_keeps_its_element(
    fixed_side, start_is_element, element_is_fault_step, space_key, slope, offset, faults,
    pens, max_steps, tol, start,
):
    # the fixed side's penalty is reused, so only its calls may differ from the reference's
    dim = SPACES[space_key].dim
    element = (faults[fixed_side][1] if element_is_fault_step else 0,)
    starts = {"a": (start[0],) * dim, "b": (start[1],) * dim}
    starts[fixed_side] = (0.0,) + starts[fixed_side][1:]
    elements = {"a": (0,), "b": (0,)}
    if start_is_element:
        elements[fixed_side] = element
    q0 = Quadruple(starts["a"], starts["b"], elements["a"], elements["b"])
    penalty = "f_" + fixed_side
    runs = []
    for fn in (reference_run_paired, run_paired):
        log: list = []
        system = _fixed_side_system(
            fixed_side, element, space_key, slope, offset, faults, pens, log
        )
        outcome = _outcome(fn, system, q0, max_steps, tol)
        calls = [entry for entry in log if entry[0] != penalty]
        runs.append((outcome, repr(calls), sum(entry[0] == penalty for entry in log)))
    (reference, ref_calls, _), (new, new_calls, penalty_calls) = runs
    assert (new, new_calls) == (reference, ref_calls)
    assert penalty_calls <= (1 if start_is_element else 2)


#: ways to break a trace; a wrong-dimension point raises, so it is drawn less often
BREAKS = ("bump-a", "bump-b") * 3 + ("nan-a", "nan-b") * 2 + ("wide", "short")


@st.composite
def traces(draw):
    """A paired trace on a space, geometric or random, with some entries broken."""
    space_key = draw(st.sampled_from(sorted(SPACES)))
    space = SPACES[space_key]
    dim = space.dim
    horizon = draw(st.integers(0, 16))
    if draw(st.booleans()):
        # a contracting orbit: the envelope holds until an entry is bumped
        slope = draw(st.floats(0.0, 0.95))
        x0, y0 = draw(coordinate), draw(coordinate)
        xs = [(x0 * slope**n,) * dim for n in range(horizon + 1)]
        ys = [(y0 * slope**n,) * dim for n in range(horizon + 1)]
        fa = [0.0] * (horizon + 1)
        fb = [0.0] * (horizon + 1)
    else:
        point = st.tuples(*[coordinate] * dim)
        xs = draw(st.lists(point, min_size=horizon + 1, max_size=horizon + 1))
        ys = draw(st.lists(point, min_size=horizon + 1, max_size=horizon + 1))
        value = st.floats(0.0, 5.0)
        fa = draw(st.lists(value, min_size=horizon + 1, max_size=horizon + 1))
        fb = draw(st.lists(value, min_size=horizon + 1, max_size=horizon + 1))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(BREAKS))
        i = draw(st.integers(0, horizon))
        if kind == "bump-a":
            fa[i] += draw(st.floats(0.0, 50.0))
        elif kind == "bump-b":
            fb[i] += draw(st.floats(0.0, 50.0))
        elif kind == "nan-a":
            fa[i] = math.nan
        elif kind == "nan-b":
            fb[i] = math.nan
        else:
            wrong = (1.0,) * (dim + 1 if kind == "wide" else dim - 1)
            if draw(st.booleans()):
                xs[i] = wrong
            else:
                ys[i] = wrong
    paired = PairedTrace(
        IterationTrace(space, tuple(xs), ((0,),) * len(xs), tuple(fa)),
        IterationTrace(space, tuple(ys), ((0,),) * len(ys), tuple(fb)),
        (0.0,) * len(xs),
    )
    return space_key, paired


@settings(max_examples=150, deadline=None)
@given(
    case=traces(),
    lam=st.one_of(st.floats(0.0, 0.999), st.sampled_from((0.0, 0.5))),
    s=st.one_of(st.floats(0.0, 5.0), st.just(math.nan)),
)
def test_check_l2_bound_matches_the_reference(case, lam, s):
    space_key, paired = case
    _same_outcome_and_calls(
        reference_check_l2_bound,
        check_l2_bound,
        (space_key, 0.5, 0.0, NO_FAULTS, (0.0, 0.0)),
        lambda system: (paired, with_s(dataclasses.replace(system, lam=lam), s)),
    )


def test_the_generated_cases_reach_every_outcome():
    # the strategies above must leave the happy path; these are three of their cases
    q0 = Quadruple((1.0,), (1.0,), (0,), (0,))
    both_near_guard = {"a": ("near-guard", 3), "b": ("near-guard", 3)}
    outcome = _same_outcome_and_calls(
        reference_run_paired, run_paired, ("R", 0.5, 1.0, both_near_guard, (0.0, 0.0)),
        lambda system: (system, q0, 10, 1e-9),
    )
    assert "stop_reason='divergence-guard'" in outcome[1] and "steps=3" in outcome[1]
    both_half_guard = {"a": ("half-guard", 3), "b": ("half-guard", 3)}
    outcome = _same_outcome_and_calls(
        reference_run_paired, run_paired, ("R", 0.5, 1.0, both_half_guard, (0.0, 0.0)),
        lambda system: (system, q0, 10, 1e-9),
    )
    assert "stop_reason='max-steps'" in outcome[1] and "1000000000000000.0" in outcome[1]
    exit_and_wide = {"a": ("region-exit", 2), "b": ("wide", 2)}
    outcome = _same_outcome_and_calls(
        reference_run_paired, run_paired, ("R", 0.5, 1.0, exit_and_wide, (0.0, 0.0)),
        lambda system: (system, q0, 10, 1e-9),
    )
    assert outcome[:2] == ("raised", DomainViolationError) and outcome[3] == 2
    system = _faulty_system("R", 0.5, 1.0, NO_FAULTS, (0.0, 0.0), [])
    paired, _ = run_paired(system, q0, 12, 1e-9)
    fb = paired.b.f_values[:5] + (40.0,) + paired.b.f_values[6:]
    broken = PairedTrace(paired.a, dataclasses.replace(paired.b, f_values=fb), paired.rho_xy)
    outcome = _same_outcome_and_calls(
        reference_check_l2_bound, check_l2_bound, ("R", 0.5, 1.0, NO_FAULTS, (0.0, 0.0)),
        lambda system: (broken, system),
    )
    assert "first_violation=(2, 5)" in outcome[1]

