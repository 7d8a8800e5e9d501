"""Bound checks, tail sups, and the property falsifiers."""

import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxiter as px

E1_Q0 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))


def line_region():
    return px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")


def test_tail_sup_harmonic():
    value = px.tail_sup(lambda n, m: 1.0 / (n + m), 1, 100)
    assert value == 0.5  # attained at (1, 1)


def test_tail_sup_constant():
    for k in (0, 3, 9):
        assert px.tail_sup(lambda n, m: 2.5, k, 10) == 2.5


def test_tail_sup_empty_window():
    with pytest.raises(px.InvalidInputError):
        px.tail_sup(lambda n, m: 0.0, 11, 10)


def test_tail_sup_e1_trace_tail_reaches_floor():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 200, 1e-12)
    horizon = paired.steps

    def cross(n, m):
        return px.distance(system.pair.space, paired.a.points[n], paired.b.points[m])

    tail = px.tail_sup(cross, horizon - 10, horizon)
    assert abs(tail - 1.0) <= 1e-6


def test_tail_sup_matches_direct_and_nonincreasing_in_k():
    rng = random.Random(5)
    values = [[rng.uniform(0, 10) for _ in range(31)] for _ in range(31)]
    fn = lambda n, m: values[n][m]
    sups = [px.tail_sup(fn, k, 30) for k in range(31)]
    for k in (0, 7, 20, 30):
        assert sups[k] == max(values[n][m] for n in range(k, 31) for m in range(k, 31))
    assert all(a >= b for a, b in zip(sups, sups[1:]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=4, max_size=25))
def test_tail_sup_nonincreasing_property(xs):
    # a later window is a sub-window of an earlier one, so its sup is no larger
    fn = lambda n, m: xs[n] + xs[m]
    horizon = len(xs) - 1
    sups = [px.tail_sup(fn, k, horizon) for k in range(horizon + 1)]
    assert all(a >= b for a, b in zip(sups, sups[1:]))


def test_tail_sup_raises_on_nan_naming_the_index_pair():
    def fn(n, m):
        return math.nan if (n, m) == (4, 2) else 1.0 / (1 + n + m)

    for k in (0, 2):
        with pytest.raises(px.NumericFailureError, match=r"\(4, 2\)"):
            px.tail_sup(fn, k, 6)
    assert px.tail_sup(fn, 5, 6) == 1.0 / 11


def test_split_limit_validate_converging_pair():
    xs = [1.0 / n for n in range(1, 200)]
    ys = [2.0 + 1.0 / n for n in range(1, 200)]
    assert px.split_limit_validate(xs, ys, 0.0, 2.0, [0.5, 0.1, 0.01])


def test_split_limit_validate_vacuous_when_criterion_unmet():
    # both sequences stay one unit above their floors, so small epsilons
    # never trigger the summed criterion
    xs = [1.0 + 1.0 / n for n in range(1, 100)]
    ys = [1.0 + 1.0 / n for n in range(1, 100)]
    assert px.split_limit_validate(xs, ys, 0.0, 0.0, [0.01, 0.001])


def test_split_limit_validate_e1_penalties():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 200, 1e-12)
    xs = list(paired.a.f_values)
    ys = list(paired.b.f_values)
    assert px.split_limit_validate(xs, ys, 0.0, 0.0, [0.5, 0.01, 1e-4])


def test_split_limit_validate_rejects_bad_floor():
    with pytest.raises(px.InvalidInputError):
        px.split_limit_validate([1.0, 0.5], [1.0, 1.0], 0.75, 0.0, [0.1])


@pytest.mark.parametrize(
    "args, message",
    [
        (([1.0, math.nan], [0.0, 0.0], 0.0, 0.0, [0.1]), "term 1 of the x sequence is NaN"),
        (([1.0, 0.5], [0.0, math.nan], 0.0, 0.0, [0.1]), "term 1 of the y sequence is NaN"),
        (([1.0, 0.5], [0.0, 0.0], math.nan, 0.0, [0.1]), "x floor is NaN"),
        (([1.0, 0.5], [0.0, 0.0], 0.0, math.nan, [0.1]), "y floor is NaN"),
        (([1.0, 0.5], [0.0, 0.0], 0.0, 0.0, [0.1, math.nan]), "epsilon 1 of the schedule is NaN"),
    ],
)
def test_split_limit_validate_rejects_nan(args, message):
    with pytest.raises(px.NumericFailureError, match=f"^{message}$"):
        px.split_limit_validate(*args)


def test_check_l1_bound_e1_trace():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 300, 1e-9)
    assert px.check_l1_bound(paired, system)


def test_check_l1_bound_constant_maps():
    system = px.banach_system(
        lambda x: (5.0,), px.real_line(), line_region(), 0.0, name="const"
    )
    q0 = px.Quadruple((7.0,), (9.0,), px.Atom("unit"), px.Atom("unit"))
    paired, _ = px.run_paired(system, q0, 60, 1e-9)
    assert px.check_l1_bound(paired, system)


def test_check_l1_bound_negative_control():
    # a slope-0.9 run judged with a lowered constant breaks the telescoped bound
    system = px.banach_system(
        lambda x: (0.9 * x[0],), px.real_line(), line_region(), 0.9, name="b9"
    )
    q0 = px.Quadruple((50.0,), (111.11,), px.Atom("unit"), px.Atom("unit"))
    paired, _ = px.run_paired(system, q0, 400, 1e-9)
    assert px.check_l1_bound(paired, system)
    assert not px.check_l1_bound(paired, dataclasses.replace(system, lam=0.4))


def _nan_trace(system, at):
    """A hand-made five-step trace with f_A NaN at index at, else a converged pair."""
    space = system.pair.space
    atom = px.Atom("unit")
    xs = tuple((8.0 / 2**n,) for n in range(6))
    ys = tuple((0.0,) for _ in range(6))
    fa = tuple(math.nan if n == at else 0.0 for n in range(6))
    a = px.IterationTrace(space, xs, (atom,) * 6, fa)
    b = px.IterationTrace(space, ys, (atom,) * 6, (0.0,) * 6)
    return px.PairedTrace(a, b, tuple(abs(x[0]) for x in xs))


def test_check_l1_bound_fails_on_nan_values():
    system = px.banach_half_system()
    assert px.check_l1_bound(_nan_trace(system, None), system)
    assert not px.check_l1_bound(_nan_trace(system, 3), system)
    quarter = dataclasses.replace(system, lam=0.25)
    assert not px.check_l1_bound(_nan_trace(system, 3), quarter)


def test_check_l2_bound_fails_on_nan_values():
    system = px.banach_half_system()
    assert px.check_l2_bound(_nan_trace(system, None), system).ok
    cert = px.check_l2_bound(_nan_trace(system, 3), system)
    assert not cert.ok and cert.first_violation == (3, 1)


def test_check_l2_bound_e1_no_violation():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 300, 1e-9)
    cert = px.check_l2_bound(paired, system)
    assert cert.ok and cert.lam == 5.0 / 8.0 and cert.s == 1.0
    assert cert.m == 7.625  # hand-computed from the first row and column


def test_check_l2_bound_one_step_trace():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 1, 1e-9)
    assert px.check_l2_bound(paired, system).ok


def test_check_l2_bound_cyclic_reduction():
    ct = px.affine_cyclic_example()
    system = px.cyclic3_reduce(ct)
    q0 = system.p.draw(random.Random(3), 1)[0]
    paired, _ = px.run_paired(system, q0, 300, 1e-9)
    cert = px.check_l2_bound(paired, system)
    assert cert.ok and cert.lam == 0.5 ** 3


def test_check_l2_bound_on_every_builtin_certified_system():
    # each certified built-in must satisfy the envelope along a real run
    cases = []
    e1 = px.example1_system()
    cases.append((e1, E1_Q0))
    half = px.banach_half_system()
    cases.append((half, px.Quadruple((8.0,), (0.0,), px.Atom("unit"), px.Atom("unit"))))
    prod = px.example1_product_system()
    cases.append(
        (
            prod,
            px.Quadruple(
                (3.0, 5.0),
                (-2.0, -3.0),
                px.CPair((3.0,), (5.0,)),
                px.CPair((-2.0,), (-3.0,)),
            ),
        )
    )
    reduction = px.cyclic3_reduce(px.affine_cyclic_example())
    cases.append((reduction, reduction.p.draw(random.Random(6), 1)[0]))
    for system, q0 in cases:
        paired, _ = px.run_paired(system, q0, 300, 1e-9)
        assert px.check_l2_bound(paired, system).ok, system.name


def test_check_l2_bound_detects_planted_violation():
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 50, 1e-9)
    cert = px.check_l2_bound(paired, dataclasses.replace(system, lam=1e-6))
    assert not cert.ok and cert.first_violation is not None


def test_bound_checks_take_s_from_the_system():
    # each violation above passes once the judging system supplies an S that
    # covers it: the checks read S from the system they are given
    system = px.example1_system()
    paired, _ = px.run_paired(system, E1_Q0, 50, 1e-9)
    tight = dataclasses.replace(system, lam=1e-6)
    loose = dataclasses.replace(tight, pair=dataclasses.replace(system.pair, dist_ab=100.0))
    assert not px.check_l2_bound(paired, tight).ok
    cert = px.check_l2_bound(paired, loose)
    assert cert.ok and cert.s == 100.0
    b9 = px.banach_system(lambda x: (0.9 * x[0],), px.real_line(), line_region(), 0.9, name="b9")
    q0 = px.Quadruple((50.0,), (111.11,), px.Atom("unit"), px.Atom("unit"))
    paired, _ = px.run_paired(b9, q0, 400, 1e-9)
    lowered = dataclasses.replace(b9, lam=0.4)
    assert not px.check_l1_bound(paired, lowered)
    covered = dataclasses.replace(lowered, f_b=px.ExternalFactor(b9.f_b.fn, 1e3))
    assert px.resolve_constants(covered).s == 1e3
    assert px.check_l1_bound(paired, covered)


def geometric_pair(seed, target_a=0.0, target_b=-1.0, length=70):
    rng = random.Random(seed)
    c1, c2 = rng.uniform(1, 40), rng.uniform(1, 40)
    r1, r2 = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
    xs = [(target_a + c1 * r1 ** n,) for n in range(length)]
    ys = [(target_b - c2 * r2 ** n,) for n in range(length)]
    return xs, ys


def test_cd_falsify_no_counterexample_on_half_lines():
    pair = px.example1_pair()
    found = px.cd_falsify(pair, px.pair_cd_generator("e1-pair", 0), 1000, 1e-6)
    assert found is None


def test_cd_falsify_flags_escaping_sequence():
    pair = px.open_interval_pair()
    found = px.cd_falsify(
        pair, px.pair_cd_generator("open-interval-pair", 0), 1000, 1e-6
    )
    assert found is not None
    assert found.reason == "limit-escapes-region"
    assert found.limit_estimate == (1.0,)  # the missing endpoint
    payload = found.to_dict()
    assert payload["xs"] and payload["ys"]


def test_cd_falsify_vacuous_generator():
    # candidates keep their distance well above the pair gap: never admissible
    pair = px.example1_pair()

    def gen(i):
        xs = [(5.0 + 1.0 / (n + 1),) for n in range(40)]
        ys = [(-2.0,) for _ in range(40)]
        return xs, ys

    assert px.cd_falsify(pair, gen, 50, 1e-6) is None


def test_cd_falsify_rejects_out_of_region_candidates():
    pair = px.open_interval_pair()

    def gen(i):
        xs = [(1.0,)] * 20  # exactly on the missing endpoint
        ys = [(2.5,)] * 20
        return xs, ys

    with pytest.raises(px.InvalidInputError):
        px.cd_falsify(pair, gen, 5, 1e-6)


def test_cd_falsify_flags_no_cauchy_window():
    # on the circle an admissible sequence can hop between antipodes while
    # every cross distance stays exactly at the pair gap
    pair = px.circle_origin_pair()

    def gen(i):
        xs = [((-1.0) ** n * 1.0, 0.0) for n in range(50)]
        ys = [(0.0, 0.0)] * 50
        return xs, ys

    found = px.cd_falsify(pair, gen, 3, 1e-6)
    assert found is not None and found.reason == "no-cauchy-window"


def test_cd_falsify_short_candidates_and_the_window_edge():
    pair = px.circle_origin_pair()
    hop = [(1.0, 0.0), (-1.0, 0.0)]
    origin = [(0.0, 0.0)] * 50

    def gen_of(xs):
        return lambda i: (xs, origin[: len(xs)])

    # two terms, shorter than the window: the one transition is judged
    found = px.cd_falsify(pair, gen_of(hop), 1, 1e-6)
    assert found.reason == "no-cauchy-window" and found.limit_estimate is None
    # two settled terms: the last term is the limit, and it is on the circle
    assert px.cd_falsify(pair, gen_of([(1.0, 0.0)] * 2), 1, 1e-6) is None
    # the window judges the last CONFIRM_WINDOW transitions only: w + 1
    # settled terms after the hops are a limit on the circle, w are not
    w = px.CONFIRM_WINDOW
    assert px.cd_falsify(pair, gen_of(hop * 25 + [(1.0, 0.0)] * (w + 1)), 1, 1e-6) is None
    found = px.cd_falsify(pair, gen_of(hop * 25 + [(1.0, 0.0)] * w), 1, 1e-6)
    assert found.reason == "no-cauchy-window"


def test_uc_falsify_none_on_interval_pair():
    pair = px.example1_pair()
    found = px.uc_falsify(pair, px.pair_uc_generator("e1-pair", 0), 1000, 1e-6)
    assert found is None


def test_uc_falsify_antipodal_circle():
    pair = px.circle_origin_pair()
    found = px.uc_falsify(
        pair, px.pair_uc_generator("circle-origin-pair", 0), 1000, 1e-6
    )
    assert found is not None
    assert found.index == 0  # the antipodal construction is the first candidate
    assert found.tail_separation == pytest.approx(2.0, abs=1e-12)
    assert found.to_dict()["tail_separation"] == found.tail_separation


def test_falsifiers_judge_admissibility_by_the_supplied_distance():
    # the same circle candidates are counterexamples at the true gap 1 and
    # inadmissible once the pair supplies another distance
    pair = px.circle_origin_pair()
    hops = [((-1.0) ** n, 0.0) for n in range(50)]
    origin = [(0.0, 0.0)] * 50
    assert px.cd_falsify(pair, lambda i: (hops, origin), 1, 1e-6) is not None
    uc = px.pair_uc_generator("circle-origin-pair", 0)
    assert px.uc_falsify(pair, uc, 1, 1e-6) is not None
    off = dataclasses.replace(pair, dist_ab=0.5)
    assert px.cd_falsify(off, lambda i: (hops, origin), 1, 1e-6) is None
    assert px.uc_falsify(off, uc, 1, 1e-6) is None


def test_uc_falsify_none_on_overlapping_sets():
    pair = px.SetPair(px.real_line(), px.interval(0, 1), px.interval(0, 1), 0.0)

    def gen(i):
        rng = random.Random(i)
        t = rng.uniform(0.2, 0.8)
        c, r = rng.uniform(0.01, 0.1), rng.uniform(0.3, 0.6)
        xs = [(t + c * r ** n,) for n in range(40)]
        zs = [(t + 0.5 * c * r ** n,) for n in range(40)]
        ys = [(t - c * r ** n,) for n in range(40)]
        return xs, zs, ys

    assert px.uc_falsify(pair, gen, 200, 1e-6) is None


def test_randomized_convergent_fixtures():
    # randomized fixtures: split-limit conclusion plus convergence of the
    # tail sup onto the summed floor
    rng = random.Random(2024)
    for _ in range(200):
        fx, fy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        cx, cy = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        rx, ry = rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8)
        xs = [fx + cx * rx ** n for n in range(40)]
        ys = [fy + cy * ry ** n for n in range(40)]
        assert px.split_limit_validate(xs, ys, fx, fy, [1.0, 0.1, 0.01])
        assert abs(px.tail_sup(lambda n, m: xs[n] + ys[m], 35, 39) - (fx + fy)) <= 1e-3


def _uc_gen_of(xs, zs, ys):
    return lambda i: (xs, zs, ys)


def test_uc_falsify_needs_both_first_set_sequences_to_reach_the_gap():
    # x_n = 0 sits at dist(A, B) = 1 from y_n = -1 while z_n = 5 does not, so
    # the candidate is not admissible though x and z stay 5 apart; likewise
    # with x and z swapped
    pair = px.example1_pair()
    near, far, ys = [(0.0,)] * 5, [(5.0,)] * 5, [(-1.0,)] * 5
    assert px.uc_falsify(pair, _uc_gen_of(near, far, ys), 1, 1e-6) is None
    assert px.uc_falsify(pair, _uc_gen_of(far, near, ys), 1, 1e-6) is None


def test_uc_falsify_rejects_short_candidates_and_empty_budget():
    pair = px.example1_pair()
    ok = [(1.0,)] * 5
    ys = [(-1.0,)] * 5
    with pytest.raises(px.InvalidInputError, match="at least 2 terms"):
        px.uc_falsify(pair, _uc_gen_of([(1.0,)], ok, ys), 3, 1e-6)
    with pytest.raises(px.InvalidInputError, match="budget"):
        px.uc_falsify(pair, _uc_gen_of(ok, ok, ys), 0, 1e-6)


@pytest.mark.parametrize("which", ["xs", "zs", "ys"])
def test_uc_falsify_rejects_out_of_region_points(which):
    pair = px.example1_pair()
    seqs = {"xs": [(1.0,)] * 5, "zs": [(2.0,)] * 5, "ys": [(-1.0,)] * 5}
    seqs[which] = seqs[which][:4] + [(-0.5,)]  # in neither half-line
    region = pair.b.name if which == "ys" else pair.a.name
    with pytest.raises(px.InvalidInputError, match=re.escape(region)):
        px.uc_falsify(pair, _uc_gen_of(seqs["xs"], seqs["zs"], seqs["ys"]), 3, 1e-6)


@pytest.mark.parametrize("nan_between", ["cross", "separation"])
def test_uc_falsify_raises_on_nan_distance_naming_the_candidate(nan_between):
    # the metric is NaN between two points of A (separation) or towards
    # -1.5 in B (cross); candidates 0 and 1 are not admissible, candidate 2
    # reaches the NaN
    def metric(p, q):
        if nan_between == "separation" and p[0] >= 0 and q[0] >= 0:
            return math.nan
        if nan_between == "cross" and q == (-1.5,):
            return math.nan
        return abs(p[0] - q[0])

    space = px.MetricSpace("nan-line", 1, metric)
    pair = px.SetPair(space, px.interval(0.0, 1.0), px.interval(-2.0, -1.0), 1.0)

    def gen(i):
        ys = [(-2.0,)] * 12 if i < 2 else [(-1.5 if nan_between == "cross" else -1.0,)] * 12
        return [(0.0,)] * 12, [(0.0,)] * 12, ys

    with pytest.raises(px.NumericFailureError, match="candidate 2"):
        px.uc_falsify(pair, gen, 5, 1e-6)


#: built-in pairs per falsifier, with whether a counterexample is known there
CD_PAIRS = {"e1-pair": False, "open-interval-pair": True}
UC_PAIRS = {"e1-pair": False, "circle-origin-pair": True}


def _in_regions(seqs, regions):
    return all(region.contains(p) for seq, region in zip(seqs, regions) for p in seq)


@settings(max_examples=50, deadline=1000)
@given(st.integers(0, 2**31 - 1), st.integers(0, 50))
def test_falsifier_witnesses_pass_their_own_admissibility_test(seed, start):
    # a witness is a candidate the property quantifies over: its sequences
    # lie in their regions and its tail cross distances reach dist(A,B)
    tol = 1e-6
    for name, known in CD_PAIRS.items():
        pair = px.PAIRS[name].build()
        gen = px.pair_cd_generator(name, seed)
        found = px.cd_falsify(pair, lambda i: gen(start + i), 20, tol)
        assert (found is not None) == known
        if found is None:
            continue
        assert (found.xs, found.ys) == tuple(
            tuple(map(tuple, seq)) for seq in gen(start + found.index)
        )
        assert _in_regions((found.xs, found.ys), (pair.a, pair.b))
        horizon = min(len(found.xs), len(found.ys)) - 1
        tail = range(max(0, horizon - px.CONFIRM_WINDOW), horizon + 1)
        sup = max(px.distance(pair.space, found.xs[n], found.ys[m]) for n in tail for m in tail)
        assert abs(sup - pair.dist_ab) <= tol
    for name, known in UC_PAIRS.items():
        pair = px.PAIRS[name].build()
        gen = px.pair_uc_generator(name, seed)
        found = px.uc_falsify(pair, lambda i: gen(start + i), 20, tol)
        assert (found is not None) == known
        if found is None:
            continue
        seqs = (found.xs, found.zs, found.ys)
        assert seqs == tuple(tuple(map(tuple, seq)) for seq in gen(start + found.index))
        assert _in_regions(seqs, (pair.a, pair.a, pair.b))
        last = min(map(len, seqs)) - 1
        for first in (found.xs, found.zs):
            gap = px.distance(pair.space, first[last], found.ys[last])
            assert abs(gap - pair.dist_ab) <= tol
        assert found.tail_separation > 10.0 * tol
