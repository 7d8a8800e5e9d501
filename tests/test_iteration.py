"""Iteration engine: traces, paired runs, limits, weak fixation, uniqueness."""

import dataclasses
import math
import random

import pytest

import proxiter as px
from conftest import logged_maps, shared_start_limits_agree

E1_Q0 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))


def e1_trace(x0: float, steps: int) -> px.IterationTrace:
    """The first side of an e1 paired run from x0, at most steps long."""
    q0 = px.Quadruple((x0,), (-2.0,), (x0,), (-2.0,))
    return px.run_paired(px.example1_system(), q0, steps, 1e-9)[0].a


def test_e1_orbit_absorption_chain():
    trace = e1_trace(3.0, 4)
    assert trace.points == ((3.0,), (6.0,), (0.5,), (1.0,), (0.0,))
    assert trace.celements == trace.points  # the external sequence mirrors the points


def test_e1_orbit_fixed_start_stays_constant():
    trace = e1_trace(0.0, 25)
    assert set(trace.points) == {(0.0,)}


def test_e1_orbit_zero_steps():
    trace = e1_trace(7.0, 0)
    assert trace.points == ((7.0,),) and trace.steps == 0


def test_run_paired_e1_reaches_floor():
    system = px.example1_system()
    paired, report = px.run_paired(system, E1_Q0, 200, 1e-9)
    assert report.stop_reason == "tolerance-met"
    assert report.limit == (0.0,)
    assert paired.a.points[4] == (0.0,)
    assert report.proximity_residual <= 1e-6
    assert report.fa_residual <= 1e-6
    assert report.fb_residual <= 1e-6


def test_run_paired_banach_affine_fixed_point():
    # closed form: the slope-1/2 affine map has its fixed point at 4
    region = px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")
    system = px.banach_system(
        lambda x: ((x[0] + 4.0) / 2.0,), px.real_line(), region, 0.5, name="aff"
    )
    q0 = px.Quadruple((8.0,), (0.0,), px.Atom("unit"), px.Atom("unit"))
    _, report = px.run_paired(system, q0, 400, 1e-9)
    assert report.stop_reason == "tolerance-met"
    assert report.limit[0] == pytest.approx(4.0, abs=1e-7)
    assert report.proximity_residual <= 1e-6


def test_run_paired_start_at_limit_stops_in_window():
    system = px.example1_system()
    q0 = px.Quadruple((0.0,), (-1.0,), (0.0,), (-1.0,))
    paired, report = px.run_paired(system, q0, 500, 1e-9)
    assert report.stop_reason == "tolerance-met"
    assert report.steps == px.CONFIRM_WINDOW
    assert report.limit == (0.0,)


def test_run_paired_rejects_bad_quadruple():
    system = px.example1_system()
    with pytest.raises(px.InvalidInputError):
        px.run_paired(system, px.Quadruple((3.0,), (-2.0,), (4.0,), (-2.0,)), 10, 1e-9)


def test_run_paired_determinism():
    system = px.example1_system()
    p1, r1 = px.run_paired(system, E1_Q0, 300, 1e-9)
    p2, r2 = px.run_paired(system, E1_Q0, 300, 1e-9)
    assert p1.a.points == p2.a.points
    assert p1.b.points == p2.b.points
    assert p1.rho_xy == p2.rho_xy
    assert r1 == r2


def test_run_paired_penalties_stay_above_infimum():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 300, 1e-9)
    assert all(v >= -1e-12 for v in paired.a.f_values)
    assert all(v >= -1e-12 for v in paired.b.f_values)


def test_run_paired_limit_invariant_to_external_start(permissive_system):
    # admissible external starts may differ; the point limit must not
    limits = []
    for u0 in (0.0, 3.0, 9.5):
        q0 = px.Quadruple((8.0,), (-2.0,), (u0,), (1.0,))
        _, report = px.run_paired(permissive_system, q0, 400, 1e-9)
        assert report.limit is not None
        limits.append(report.limit[0])
    assert max(limits) - min(limits) <= 10 * 1e-9


def test_detect_limit_constant_trace():
    trace = e1_trace(0.0, 12)
    assert px.detect_limit(trace, 1e-12) == (0.0,)


def test_detect_limit_e1_thirty_steps():
    trace = e1_trace(3.0, 30)
    assert px.detect_limit(trace, 1e-9) == (0.0,)


def test_detect_limit_two_cycle_returns_nothing():
    space = px.real_line()
    pts = [((i % 2) * 1.0,) for i in range(30)]
    trace = px.IterationTrace(space, tuple(pts), tuple(pts), tuple(0.0 for _ in pts))
    assert px.detect_limit(trace, 1e-9) is None


def test_shared_start_limits_agree_shared_tail():
    system = px.example1_system()
    q1 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))
    q2 = px.Quadruple((97.3,), (-2.0,), (97.3,), (-2.0,))
    assert shared_start_limits_agree(system, q1, q2, 500, 1e-9) is True


def test_shared_start_limits_agree_identical_starts():
    system = px.example1_system()
    assert shared_start_limits_agree(system, E1_Q0, E1_Q0, 200, 1e-9) is True


def test_shared_start_limits_agree_cyclic_reduction_diagonal_starts():
    system = px.cyclic3_reduce(px.affine_cyclic_example())
    quads = system.p.draw(random.Random(4), 2)
    q1 = quads[0]
    q2 = px.Quadruple(quads[1].x, q1.y, quads[1].u, q1.v)
    assert shared_start_limits_agree(system, q1, q2, 400, 1e-9) is True


def test_shared_start_limits_agree_undecided_when_budget_too_small():
    system = px.example1_system()
    q2 = px.Quadruple((97.3,), (-2.0,), (97.3,), (-2.0,))
    assert shared_start_limits_agree(system, E1_Q0, q2, 3, 1e-12) is None


def test_make_infimum_sequence_constant_zero_valid():
    system = px.example1_system()
    seq = px.make_infimum_sequence(
        system, (0.0,), ((-1.0,), (-1.0,)), lambda n: (0.0,), 10
    )
    assert seq.f_values == tuple(0.0 for _ in range(10))


def test_make_infimum_sequence_rejects_high_floor():
    system = px.example1_system()
    # constant 3 keeps the relation happy only when anchored at 3; its f value
    # stays 12, far above the infimum
    with pytest.raises(px.NotAnInfimumSequenceError):
        px.make_infimum_sequence(
            system, (3.0,), ((-1.0,), (-1.0,)), lambda n: (3.0,), 10
        )


def test_make_infimum_sequence_rejects_relation_break():
    system = px.example1_system()
    with pytest.raises(px.InvalidInputError):
        px.make_infimum_sequence(
            system, (0.0,), ((-1.0,), (-1.0,)), lambda n: (float(n),), 5
        )


def test_make_infimum_sequence_geometric_decay(permissive_system):
    seq = px.make_infimum_sequence(
        permissive_system,
        (0.0,),
        ((-1.0,), (0.0,)),
        lambda n: (4.0 * 2.0 ** -n,),
        30,
    )
    assert seq.f_values[0] == 4.0
    assert seq.f_values[-1] <= 1e-6


def test_weak_fixed_residuals_at_floor():
    system = px.example1_system()
    seq = px.make_infimum_sequence(
        system, (0.0,), ((-1.0,), (-1.0,)), lambda n: (0.0,), 8
    )
    assert px.weak_fixed_residuals(system, (0.0,), seq) == [0.0] * 8


def test_weak_fixed_residuals_decay_with_sequence(permissive_system):
    seq = px.make_infimum_sequence(
        permissive_system,
        (0.0,),
        ((-1.0,), (0.0,)),
        lambda n: (4.0 * 2.0 ** -n,),
        30,
    )
    residuals = px.weak_fixed_residuals(permissive_system, (0.0,), seq)
    assert residuals[0] == 1.0  # T_A(0, 4) sits at 1
    assert residuals[-1] <= 1e-6
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def test_weak_fixed_residuals_banach_fixed_point():
    region = px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")
    system = px.banach_system(
        lambda x: ((x[0] + 4.0) / 2.0,), px.real_line(), region, 0.5, name="aff"
    )
    seq = px.make_infimum_sequence(
        system, (4.0,), ((0.0,), px.Atom("unit")), lambda n: px.Atom("unit"), 6
    )
    assert px.weak_fixed_residuals(system, (4.0,), seq) == [0.0] * 6


def test_weak_fixed_residuals_rejects_wrong_anchor():
    system = px.example1_system()
    seq = px.make_infimum_sequence(
        system, (0.0,), ((-1.0,), (-1.0,)), lambda n: (0.0,), 4
    )
    with pytest.raises(px.InvalidInputError):
        px.weak_fixed_residuals(system, (1.0,), seq)


def grid_candidates(system, grid, witness):
    out = []
    for g in grid:
        beta = (g,)
        try:
            seq = px.make_infimum_sequence(
                system, beta, witness, lambda n, b=beta: b, 10, f_tol=1e-9
            )
        except px.ProxiterError:
            continue
        out.append((beta, seq))
    return out


def test_uniqueness_scan_e1_grid_empty():
    system = px.example1_system()
    grid = [i * 0.5 for i in range(201)]
    candidates = grid_candidates(system, grid, ((-1.0,), (-1.0,)))
    assert len(candidates) > 50  # the even-parity bands are well represented
    assert px.uniqueness_scan(system, (0.0,), candidates, 1e-6) == []


def test_uniqueness_scan_skips_alpha_itself():
    system = px.example1_system()
    candidates = grid_candidates(system, [0.0], ((-1.0,), (-1.0,)))
    assert candidates  # alpha itself is a valid candidate entry
    assert px.uniqueness_scan(system, (0.0,), candidates, 1e-6) == []


def test_uniqueness_scan_flags_second_fixed_point(two_fixed_point_system):
    system = two_fixed_point_system
    atom = px.Atom("unit")
    seq = px.make_infimum_sequence(
        system, (1.0,), ((0.5,), atom), lambda n: atom, 6
    )
    violations = px.uniqueness_scan(system, (0.0,), [((1.0,), seq)], 1e-6)
    assert len(violations) == 1
    assert violations[0].beta == (1.0,)
    assert violations[0].tail_residual == 0.0


def test_proximity_residual_converged_run():
    system = px.example1_system()
    _, report = px.run_paired(system, E1_Q0, 300, 1e-9)
    assert report.proximity_residual is not None and report.proximity_residual <= 1e-6


def test_proximity_residual_degenerate_distance():
    region = px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")
    system = px.banach_system(
        lambda x: (x[0] / 2.0,), px.real_line(), region, 0.5, name="half"
    )
    q0 = px.Quadruple((64.0,), (32.0,), px.Atom("unit"), px.Atom("unit"))
    _, report = px.run_paired(system, q0, 400, 1e-9)
    assert report.proximity_residual == pytest.approx(report.rho_alpha_y_tail, abs=1e-15)


def test_proximity_residual_cyclic_reduction():
    ct = px.affine_cyclic_example()
    system = px.cyclic3_reduce(ct)
    q0 = system.p.draw(random.Random(2), 1)[0]
    _, report = px.run_paired(system, q0, 400, 1e-9)
    assert report.proximity_residual is not None and report.proximity_residual <= 1e-6


def test_proximity_residual_undecided_without_limit():
    _, report = px.run_paired(px.example1_system(), E1_Q0, 3, 1e-9)
    assert report.limit is None and report.proximity_residual is None


def test_trace_csv_round_trip(tmp_path):
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 40, 1e-9)
    out = tmp_path / "trace.csv"
    with open(out, "w") as fh:
        px.write_trace_csv(paired, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v"
    assert len(lines) == len(paired.a.points) + 1
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i
        assert float(fields[1]) == paired.a.points[i][0]  # 17g round-trips exactly
        assert float(fields[5]) == paired.rho_xy[i]


# ---------------------------------------------------------------------------
# one orbit per side: map calls, check order and the settle rule


@pytest.mark.parametrize("max_steps", [0, 5, 500])
def test_run_paired_calls_each_map_once_per_step(max_steps):
    log = []
    system = logged_maps(px.banach_half_system(), log)
    q0 = px.Quadruple((8.0,), (0.0,), px.Atom("unit"), px.Atom("unit"))
    _, report = px.run_paired(system, q0, max_steps, 1e-9)
    if max_steps == 500:
        assert report.stop_reason == "tolerance-met" and report.steps < max_steps
    else:
        assert report.stop_reason == "max-steps" and report.steps == max_steps
    assert log == ["t_a", "h_a", "t_b", "h_b"] * report.steps


def test_run_paired_calls_stop_at_the_divergence_guard():
    log = []
    base = px.banach_half_system()
    system = logged_maps(dataclasses.replace(base, t_b=lambda y, c: (y[0] * 1e4,)), log)
    q0 = px.Quadruple((1.0,), (1.0,), px.Atom("unit"), px.Atom("unit"))
    _, report = px.run_paired(system, q0, 50, 1e-9)
    assert report.stop_reason == "divergence-guard" and report.steps == 4
    assert log == ["t_a", "h_a", "t_b", "h_b"] * 4


ATOM = px.Atom("unit")


def one_atom_system(region_a, region_b, t_a, t_b):
    """A system on the line with a single external atom and a relation that admits all."""
    return px.ExternalFactorSystem(
        name="one-atom",
        pair=px.SetPair(px.real_line(), region_a, region_b, dist_ab=0.0),
        t_a=t_a,
        h_a=lambda x, c: ATOM,
        t_b=t_b,
        h_b=lambda y, c: ATOM,
        f_a=px.ExternalFactor(lambda c: 0.0, 0.0),
        f_b=px.ExternalFactor(lambda c: 0.0, 0.0),
        p=px.RelationP(lambda x, y, u, v: True, lambda rng, n: []),
        lam=0.5,
    )


def test_run_paired_non_finite_side_b_outranks_side_a_leaving():
    # at step 2, x = 13 leaves [0, 10] while y turns NaN
    system = one_atom_system(
        px.interval(0.0, 10.0, name="[0,10]"),
        px.interval(-math.inf, math.inf, name="R"),
        lambda x, c: (x[0] + 4.0,),
        lambda y, c: (math.nan,) if y[0] == 2.0 else (y[0] + 1.0,),
    )
    q0 = px.Quadruple((5.0,), (1.0,), ATOM, ATOM)
    with pytest.raises(px.NumericFailureError, match="step 2"):
        px.run_paired(system, q0, 10, 1e-9)


@pytest.mark.parametrize("side", ["a", "b"])
def test_run_paired_domain_violation_names_step(side):
    # the leaving side walks 5 -> 9 -> 13 and leaves [0, 10] at the second step;
    # the other side stays at its fixed point 5
    box = px.interval(0.0, 10.0, name="[0,10]")
    walk, stay = (lambda p, c: (p[0] + 4.0,)), (lambda p, c: p)
    maps = (walk, stay) if side == "a" else (stay, walk)
    system = one_atom_system(box, box, *maps)
    q0 = px.Quadruple((5.0,), (5.0,), ATOM, ATOM)
    with pytest.raises(px.DomainViolationError) as err:
        px.run_paired(system, q0, 5, 1e-9)
    assert err.value.step == 2
    assert str(err.value) == f"T_{side.upper()} output (13.0,) left region [0,10] at step 2"


def test_run_paired_overflow_to_infinity_names_step():
    # 10 * 1e308 overflows at the first step, before the divergence guard can stop the run
    line = px.interval(-math.inf, math.inf, name="R")
    system = one_atom_system(line, line, lambda x, c: (x[0] * 1e308,), lambda y, c: y)
    q0 = px.Quadruple((10.0,), (0.0,), ATOM, ATOM)
    with pytest.raises(px.NumericFailureError, match="non-finite coordinate at step 1"):
        px.run_paired(system, q0, 5, 1e-9)


def _trace(*xs):
    points = tuple((x,) for x in xs)
    return px.IterationTrace(px.real_line(), points, points, (0.0,) * len(points))


def test_detect_limit_short_traces_and_the_window_edge():
    # one state is vacuously settled
    assert px.detect_limit(_trace(3.0), 1e-6) == (3.0,)
    # shorter than the window: every transition is judged
    assert px.detect_limit(_trace(0.0, 5.0, 5.0), 1e-6) is None
    assert px.detect_limit(_trace(5.0, 5.0, 5.0), 1e-6) == (5.0,)
    # the window judges the last CONFIRM_WINDOW transitions only
    w = px.CONFIRM_WINDOW
    assert px.detect_limit(_trace(0.0, *[5.0] * (w + 1)), 1e-6) == (5.0,)
    assert px.detect_limit(_trace(0.0, *[5.0] * w), 1e-6) is None
    # a displacement equal to tol is not settled
    assert px.detect_limit(_trace(0.0, 1.0), 1.0) is None
    assert px.detect_limit(_trace(0.0, 1.0), 1.0 + 2**-52) == (1.0,)
