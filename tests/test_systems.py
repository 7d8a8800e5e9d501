"""Certification layer: floor value, residuals, campaigns, tightness probes."""

import dataclasses
import math
import random

import pytest

import proxiter as px
from conftest import logged_maps, make_permissive_system
from proxiter.systems import INVARIANCE_PROBES

E1_Q0 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))


def banach(map_fn, lipschitz, name="b"):
    region = px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")
    return px.banach_system(map_fn, px.real_line(), region, lipschitz, name=name)


def test_s_value_example1():
    assert px.resolve_constants(px.example1_system()).s == 1.0


def test_s_value_banach_degenerate():
    assert px.resolve_constants(banach(lambda x: (x[0] / 2.0,), 0.5)).s == 0.0


def test_s_value_cyclic_reduction_matches_grid_oracle():
    # oracle: pairwise set distances from dense cross-samples over the segments
    ct = px.affine_cyclic_example()
    d = ct.space.metric
    samples = [px.sample_region(r, 300, seed=9) for r in ct.regions]
    for i in range(3):
        j = (i + 1) % 3
        oracle = min(d(a, b) for a in samples[i] for b in samples[j])
        assert oracle >= ct.dists[i] - 1e-9
        assert oracle <= ct.dists[i] + 0.05  # dense enough to approach the gap

    reduction = px.cyclic3_reduce(ct)
    assert px.resolve_constants(reduction).s == pytest.approx(sum(ct.dists), abs=1e-12)


def test_contraction_residual_equality_point():
    system = px.example1_system()
    q = px.Quadruple((0.0,), (-1.0,), (0.0,), (-1.0,))
    # direct evaluation: left side is 1, right side is 5/8 * 1 + 3/8 * 1
    lhs = abs(px.example1_T(0.0) - px.example1_Tb(-1.0))
    assert lhs == 1.0
    assert px.contraction_residual(system, q) == 0.0


def test_contraction_residual_nonnegative_on_e1():
    system = px.example1_system()
    assert px.contraction_residual(system, E1_Q0) >= 0.0


def test_contraction_residual_banach_is_displacement_slack():
    system = banach(lambda x: (0.9 * x[0],), 0.9)
    rng = random.Random(1)
    for _ in range(100):
        x, y = (rng.uniform(-50, 50),), (rng.uniform(-50, 50),)
        q = px.Quadruple(x, y, px.Atom("unit"), px.Atom("unit"))
        assert px.contraction_residual(system, q) >= -1e-12


def test_contraction_residual_rejects_off_relation():
    system = px.example1_system()
    with pytest.raises(px.InvalidInputError):
        px.contraction_residual(system, px.Quadruple((3.0,), (-2.0,), (4.0,), (-2.0,)))


def test_verify_contraction_certifies_e1():
    report = px.verify_contraction(px.example1_system(), 10000, seed=1)
    assert report.certified
    assert report.min_residual >= -1e-10
    assert report.p_invariant and report.infima_finite
    assert report.to_dict()["verdict"] == "certified-on-samples"


def test_verify_contraction_refutes_lowered_lambda():
    lowered = dataclasses.replace(px.example1_system(), lam=0.5)
    report = px.verify_contraction(lowered, 10000, seed=1)
    assert report.verdict == "refuted"
    assert report.witness is not None
    assert report.min_residual < -1e-10
    # the witness misses the lowered inequality but satisfies the relation
    assert lowered.in_p(report.witness)
    assert "witness" in report.to_dict()


def test_verify_contraction_banach_at_lipschitz():
    report = px.verify_contraction(banach(lambda x: (0.9 * x[0],), 0.9), 2000, seed=3)
    assert report.certified


def test_verify_contraction_refutes_a_lambda_below_the_banach_slope():
    # the residual is (lambda - 0.3) |x - y|: zero at the slope, negative below it
    at_slope = px.verify_contraction(banach(lambda x: (0.3 * x[0],), 0.3), 2000, seed=4)
    assert at_slope.certified and at_slope.min_residual >= -1e-10
    below = px.verify_contraction(banach(lambda x: (0.3 * x[0],), 0.25), 2000, seed=4)
    assert below.verdict == "refuted" and below.reason == "negative-residual"
    assert below.min_residual < -1e-10


def test_verify_contraction_certifies_constant_maps_at_lambda_zero():
    report = px.verify_contraction(banach(lambda x: (5.0,), 0.0), 1000, seed=3)
    assert report.certified and report.min_residual == 0.0


def test_verify_contraction_certifies_a_singleton_region_on_the_floor():
    # every sampled quadruple sits exactly on the floor: each residual is zero
    region = px.singleton_region(2.0)
    system = px.banach_system(lambda x: x, px.real_line(), region, 0.0, name="point")
    report = px.verify_contraction(system, 100, seed=0)
    assert report.certified and report.min_residual == 0.0


KERNEL_SYSTEMS = {
    "e1": px.example1_system,
    "e1-lam-0.5": lambda: dataclasses.replace(px.example1_system(), lam=0.5),
    "e1-product": px.example1_product_system,
    "banach-affine": px.banach_affine_system,
    "cyclic3-affine-reduction": lambda: px.cyclic3_reduce(px.affine_cyclic_example()),
    "permissive": make_permissive_system,
}


@pytest.mark.parametrize("name", list(KERNEL_SYSTEMS))
def test_verify_contraction_matches_reference_residuals(name):
    system = KERNEL_SYSTEMS[name]()
    # the campaign's minimum and witness are exactly those of the public
    # reference residual over the same sampled quadruples
    samples, seed = 1500, 7
    # at depth 0 a P-invariance probe tests its own quadruple only, which is in P
    report = px.verify_contraction(system, samples, seed, depth=0)
    quads = system.p.draw(random.Random(seed), samples)
    residuals = [px.contraction_residual(system, q) for q in quads]
    lowest = min(residuals)
    assert report.min_residual == lowest
    if report.reason == "negative-residual":
        assert report.witness == px.Quadruple(*quads[residuals.index(lowest)])
    else:
        assert report.certified and report.witness is None
    if name == "e1-lam-0.5":
        assert report.reason == "negative-residual"


@pytest.mark.parametrize("name", list(KERNEL_SYSTEMS))
def test_verify_contraction_evaluates_each_map_once_per_sample(name):
    system = KERNEL_SYSTEMS[name]()
    counts = {"t_a": 0, "h_a": 0, "t_b": 0, "h_b": 0, "p": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    counted_system = dataclasses.replace(
        system,
        t_a=counted("t_a", system.t_a),
        h_a=counted("h_a", system.h_a),
        t_b=counted("t_b", system.t_b),
        h_b=counted("h_b", system.h_b),
        p=dataclasses.replace(system.p, contains=counted("p", system.p.contains)),
    )
    samples = 300
    px.verify_contraction(counted_system, samples, seed=2, depth=0)
    # at depth 0 each probe calls no map and tests P twice: its quadruple, then
    # the one pairing (x_0, y_0, u_0, v_0)
    probe_p = 2 * INVARIANCE_PROBES
    assert counts == {key: samples + (probe_p if key == "p" else 0) for key in counts}


def test_verify_contraction_non_finite_residual_refutes():
    system = px.SYSTEMS["banach-half"].build()
    broken = dataclasses.replace(
        system, f_a=px.ExternalFactor(lambda c: math.nan, system.f_a.inf_value)
    )
    report = px.verify_contraction(broken, 200, seed=4)
    assert report.verdict == "refuted"
    assert report.reason == "non-finite-residual"
    assert report.witness == px.Quadruple(*broken.p.draw(random.Random(4), 200)[0])
    # min_residual keeps its meaning: NaN residuals never lower it
    assert report.min_residual == math.inf


def test_verify_contraction_reason_order():
    # an infinite infimum outranks a non-finite residual
    system = px.SYSTEMS["banach-half"].build()
    broken = dataclasses.replace(
        system, f_a=px.ExternalFactor(lambda c: math.nan, math.inf)
    )
    report = px.verify_contraction(broken, 50, seed=4)
    assert report.reason == "infimum-not-finite"


@pytest.mark.parametrize("side", ["f_a", "f_b"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_non_finite_infimum_is_accepted_and_refutes(side, value):
    system = px.SYSTEMS["banach-half"].build()
    broken = dataclasses.replace(system, **{side: px.ExternalFactor(lambda c: 0.0, value)})
    assert not math.isfinite(px.resolve_constants(broken).s)
    report = px.verify_contraction(broken, 50, seed=4)
    assert report.verdict == "refuted" and report.reason == "infimum-not-finite"
    assert not report.infima_finite


def test_verify_contraction_refutes_a_probe_that_leaves_p():
    # h_a = x + 1 puts u_1 off the point x_1, so the first probe leaves P at
    # its first step; at lambda 1/2 it outranks the negative residual that
    # e1 alone refutes with
    e1 = px.example1_system()
    broken = dataclasses.replace(e1, h_a=lambda x, c: (x[0] + 1.0,))
    first = px.Quadruple(*e1.p.draw(random.Random(1), 1)[0])
    assert first.x[0] == pytest.approx(13.436, abs=1e-3)
    assert first.y[0] == pytest.approx(-16.104, abs=1e-3)
    for system in (broken, dataclasses.replace(broken, lam=0.5)):
        report = px.verify_contraction(system, 200, seed=1)
        assert report.verdict == "refuted"
        assert report.reason == "p-invariance-failed"
        assert report.p_invariant is False
        assert report.witness == first
    plain = px.verify_contraction(dataclasses.replace(e1, lam=0.5), 200, seed=1)
    assert plain.reason == "negative-residual" and plain.p_invariant


def test_e1_tightness_grid_oracle_peaks_at_five_eighths():
    # grid oracle: ratio (lhs - s) / (rho + f_a + f_b - s) peaks at 5/8;
    # equality is attained at (0, -2) and approached below dyadic boundaries
    s = 1.0

    def ratio(x, y):
        q = px.Quadruple((x,), (y,), (x,), (y,))
        lhs = (
            abs(px.example1_T(x) - px.example1_Tb(y))
            + px.example1_fa(px.example1_T(x))
            + px.example1_fb(px.example1_Tb(y))
        )
        denom = abs(x - y) + px.example1_fa(x) + px.example1_fb(y) - s
        return (lhs - s) / denom if denom > 1e-12 else 0.0

    xs = [i * 0.37 for i in range(271)] + [2 ** e * (1 - 1e-9) for e in range(-4, 7)]
    ys = [-1.0 - i * 0.61 for i in range(163)] + [-2.0]
    grid_sup = max(ratio(x, y) for x in xs for y in ys)
    assert 0.6 < grid_sup <= 5.0 / 8.0 + 1e-12


def test_check_p_invariance_e1_depth_20():
    ok, failure = px.check_p_invariance(px.example1_system(), E1_Q0, 20)
    assert ok and failure is None


def test_check_p_invariance_cyclic_reduction_depth_10():
    system = px.cyclic3_reduce(px.affine_cyclic_example())
    q0 = system.p.draw(random.Random(0), 1)[0]
    ok, failure = px.check_p_invariance(system, q0, 10)
    assert ok and failure is None


def test_check_p_invariance_restricted_relation_fails():
    base = px.example1_system()
    q0 = E1_Q0

    def only_initial(x, y, u, v):
        return (x, y, u, v) == tuple(q0)

    restricted = dataclasses.replace(
        base, p=px.RelationP(only_initial, lambda rng, n: [q0] * n)
    )
    ok, failure = px.check_p_invariance(restricted, q0, 1)
    assert not ok
    assert failure is not None and max(failure) == 1


@pytest.mark.parametrize("depth", [0, 1, 6])
def test_check_p_invariance_calls_each_map_once_per_step(depth):
    log = []
    system = logged_maps(px.example1_system(), log)
    assert px.check_p_invariance(system, E1_Q0, depth) == (True, None)
    assert log == ["t_a", "h_a", "t_b", "h_b"] * depth


def test_a_negative_depth_is_refused_before_any_work():
    # range(depth + 1) is empty below 0: the probe would test nothing and pass
    log = []
    system = logged_maps(px.example1_system(), log)
    with pytest.raises(px.InvalidInputError, match="depth must be >= 0, got -1"):
        px.check_p_invariance(system, E1_Q0, -1)
    with pytest.raises(px.InvalidInputError, match="depth must be >= 0, got -3"):
        px.verify_contraction(system, 50, 0, depth=-3)
    assert log == []


def test_p_invariance_monotone_in_depth():
    system = px.example1_system()
    rng = random.Random(11)
    for q in system.p.draw(rng, 5):
        deep_ok, _ = px.check_p_invariance(system, q, 12)
        assert deep_ok
        for d in (1, 3, 7):
            ok, _ = px.check_p_invariance(system, q, d)
            assert ok


def mirror_probe(inf_a, inf_b) -> px.ExternalFactorSystem:
    """x -> x/2 on [0, 1] on both sides, u = x and v = y, f(c) = c, lambda = 0.4999.

    The one-step value halves, so the residual is (lambda - 1/2) * before
    + (1 - lambda) * S: it is negative once S is 0, the true value.
    """
    region = px.interval(0.0, 1.0, name="[0,1]")

    def half(x, c):
        return (x[0] / 2.0,)

    def p_draw(rng, n):
        out = []
        for _ in range(n):
            x, y = (rng.random(),), (rng.random(),)
            out.append(px.Quadruple(x, y, x, y))
        return out

    return px.ExternalFactorSystem(
        name="mirror-probe",
        pair=px.SetPair(px.real_line(), region, region, 0.0),
        c_universe=px.CUniverse("[0,1]", lambda rng, n: [(rng.random(),) for _ in range(n)]),
        t_a=half,
        h_a=half,
        t_b=half,
        h_b=half,
        f_a=px.ExternalFactor(lambda c: c[0], inf_a),
        f_b=px.ExternalFactor(lambda c: c[0], inf_b),
        p=px.RelationP(
            lambda x, y, u, v: region.contains(x) and region.contains(y) and (u, v) == (x, y),
            p_draw,
        ),
        lam=0.4999,
    )


def test_the_mirror_probe_needs_its_infima_and_refutes_with_them():
    # a sampled minimum of f overestimates its infimum, which lifts S and
    # certified this system; a constant must now be supplied
    with pytest.raises(px.InvalidInputError, match="infimum must be supplied"):
        mirror_probe(None, 0.0)
    with pytest.raises(px.InvalidInputError, match="infimum must be supplied"):
        mirror_probe(0.0, None)
    with pytest.raises(TypeError):
        px.ExternalFactor(lambda c: c[0])
    report = px.verify_contraction(mirror_probe(0.0, 0.0), 20000, 1)
    assert report.verdict == "refuted" and report.reason == "negative-residual"
    assert -2.0e-4 <= report.min_residual < -1.9e-4


def test_penalties_respect_exact_infima():
    rng = random.Random(21)
    for system in (px.example1_system(), px.cyclic3_reduce(px.affine_cyclic_example())):
        for c in system.c_universe.draw(rng, 2000):
            assert system.f_a.fn(c) >= system.f_a.inf_value - 1e-12
            assert system.f_b.fn(c) >= system.f_b.inf_value - 1e-12


def test_lambda_outside_unit_interval_rejected():
    # the bound checks read system.lam, so this is where they refuse a constant of 1
    system = px.example1_system()
    with pytest.raises(px.InvalidInputError, match=r"^contraction constant must be in \[0,1\)"):
        dataclasses.replace(system, lam=1.0)


# ---------------------------------------------------------------------------
# a map passed as both T and H is evaluated once per state


def _counting(fn, log):
    def call(p, c):
        log.append(p)
        return fn(p, c)

    return call


def test_orbit_calls_a_shared_map_once_per_step():
    log = []
    t = _counting(lambda x, c: (x[0] / 2.0 + c[0] / 4.0,), log)
    shared = px.systems._orbit(t, t, (8.0,), (3.0,))
    got = [state for _, state in zip(range(6), shared)]
    assert len(log) == 6
    # reference: the same map as two distinct objects takes the two-call path
    def twin(x, c):
        return t(x, c)

    log.clear()
    separate = px.systems._orbit(t, twin, (8.0,), (3.0,))
    assert got == [state for _, state in zip(range(6), separate)]
    assert len(log) == 12


def test_one_step_reuses_shared_outputs():
    log = []
    base = px.example1_system()
    t_a, t_b = _counting(base.t_a, log), _counting(base.t_b, log)
    shared = dataclasses.replace(base, t_a=t_a, h_a=t_a, t_b=t_b, h_b=t_b)
    twins = dataclasses.replace(shared, h_a=lambda p, c: t_a(p, c), h_b=lambda p, c: t_b(p, c))
    quads = base.p.draw(random.Random(8), 50)
    sides = list(px.systems._one_step(shared, quads, "not in P"))
    assert len(log) == 2 * len(quads)
    log.clear()
    assert sides == list(px.systems._one_step(twins, quads, "not in P"))
    assert len(log) == 4 * len(quads)


@pytest.mark.parametrize("name", ["e1", "e1-product", "banach-affine"])
def test_shared_maps_leave_runs_and_certificates_bit_identical(name):
    entry = px.SYSTEMS[name]
    system = entry.build()
    twins = dataclasses.replace(
        system,
        h_a=lambda p, c: system.h_a(p, c),
        h_b=lambda p, c: system.h_b(p, c),
    )
    q0 = entry.quadruple(entry.default_x0, entry.default_y0)
    assert px.run_paired(system, q0, 300, 1e-9) == px.run_paired(twins, q0, 300, 1e-9)
    for lam in (system.lam, 0.5):
        a = px.verify_contraction(dataclasses.replace(system, lam=lam), 400, seed=3)
        b = px.verify_contraction(dataclasses.replace(twins, lam=lam), 400, seed=3)
        assert a == b and a.min_residual.hex() == b.min_residual.hex()
