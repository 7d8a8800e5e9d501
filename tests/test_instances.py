"""Built-in instances: dyadic parity map, degenerate systems, products, cyclic triples."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxiter as px
from proxiter.instances import ONE_ATOM, cyclic_refuted


def test_alpha_parity_small_cases():
    assert px.alpha_parity(3.0) == 1  # floor(log2 3) = 1
    assert px.alpha_parity(0.0) == 0
    assert px.alpha_parity(0.5) == 1  # floor(log2 0.5) = -1, Euclidean mod
    assert px.alpha_parity(1.0) == 0
    assert px.alpha_parity(4.0) == 0
    with pytest.raises(px.InvalidInputError):
        px.alpha_parity(-1.0)


def test_example1_T_matches_parity_composition():
    # one exponent per call reproduces 2x*a + (x - pow2_floor(x))/4 * (1 - a) bit for bit
    rng = random.Random(13)
    xs = [rng.uniform(0.0, 100.0) for _ in range(20000)]
    xs += [0.0, 5e-324, 1.0, 2.0, 1e308]
    for x in xs:
        a = px.alpha_parity(x)
        old = 2.0 * x * a + 0.25 * (x - px.pow2_floor(x)) * (1 - a)
        assert px.example1_T(x).hex() == old.hex(), x


def test_alpha_parity_doubling_flips():
    rng = random.Random(99)
    for _ in range(100000):
        x = math.exp(rng.uniform(-30.0, 30.0))
        assert px.alpha_parity(2.0 * x) == 1 - px.alpha_parity(x)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False))
def test_alpha_parity_doubling_flips_property(x):
    assert px.alpha_parity(2.0 * x) == 1 - px.alpha_parity(x)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False))
def test_dyadic_remainder_at_most_half(x):
    assert x - px.pow2_floor(x) <= 0.5 * x


def test_floor_log2_exactness_near_powers():
    for e in range(-40, 41):
        p = 2.0 ** e
        assert px.floor_log2(p) == e
        assert px.floor_log2(p * (1 + 1e-15)) == e
        assert px.floor_log2(p * (1 - 1e-16)) == e - 1


def test_example1_T_values():
    assert px.example1_T(0.0) == 0.0
    assert px.example1_T(3.0) == 6.0
    assert px.example1_T(6.0) == 0.5
    assert px.example1_T(0.5) == 1.0
    assert px.example1_T(1.0) == 0.0
    with pytest.raises(px.InvalidInputError):
        px.example1_T(-2.0)


def test_example1_T_nonnegative():
    rng = random.Random(3)
    for _ in range(5000):
        assert px.example1_T(rng.uniform(0, 1000)) >= 0.0


def test_example1_Tb_stays_in_region():
    rng = random.Random(4)
    for _ in range(5000):
        y = rng.uniform(-1000, -1)
        assert px.example1_Tb(y) <= -1.0


def test_example1_system_certifies_at_declared_constant():
    report = px.verify_contraction(px.example1_system(), 10000, seed=1)
    assert report.certified


def test_example1_system_refuted_at_half():
    import dataclasses

    lowered = dataclasses.replace(px.example1_system(), lam=0.5)
    report = px.verify_contraction(lowered, 10000, seed=1)
    assert report.verdict == "refuted" and report.witness is not None


def test_banach_half_converges_from_any_start():
    system = px.banach_half_system()
    for x0 in (-77.0, 0.0, 13.5):
        q0 = px.Quadruple((x0,), (1.0,), px.Atom("unit"), px.Atom("unit"))
        _, report = px.run_paired(system, q0, 400, 1e-10)
        assert abs(report.limit[0]) <= 1e-8
    assert px.verify_contraction(system, 3000, seed=2).certified


def test_banach_affine_fixed_point():
    system = px.banach_affine_system()
    q0 = px.Quadruple((8.0,), (0.0,), px.Atom("unit"), px.Atom("unit"))
    _, report = px.run_paired(system, q0, 400, 1e-10)
    assert report.limit[0] == pytest.approx(4.0, abs=1e-8)


def test_banach_identity_is_refuted_by_verification():
    # construction takes the declared constant as given; certification refutes it
    region = px.interval(-1e9, 1e9, sample_lo=-100.0, sample_hi=100.0, name="R")
    system = px.banach_system(lambda x: x, px.real_line(), region, 0.99)
    report = px.verify_contraction(system, 1000, seed=0)
    assert (report.verdict, report.reason) == ("refuted", "negative-residual")
    assert report.min_residual < -1.9  # (0.99 - 1) * |x - y|, with |x - y| near 200


def test_banach_system_does_not_call_its_map():
    calls = []

    def counted(x):
        calls.append(x)
        return (x[0] / 2.0,)

    px.banach_system(counted, px.real_line(), px.interval(-1.0, 1.0), 0.5)
    assert calls == []


def test_product_system_constants():
    prod = px.example1_product_system()
    assert prod.lam == 5.0 / 8.0
    assert prod.pair.dist_ab == 2.0
    assert px.resolve_constants(prod).s == 2.0


def test_product_system_certifies():
    assert px.verify_contraction(px.example1_product_system(), 10000, seed=7).certified


def test_product_system_componentwise_convergence():
    prod = px.example1_product_system()
    q0 = px.Quadruple(
        (3.0, 5.0),
        (-2.0, -3.0),
        px.CPair((3.0,), (5.0,)),
        px.CPair((-2.0,), (-3.0,)),
    )
    _, report = px.run_paired(prod, q0, 500, 1e-9)
    assert report.limit == (0.0, 0.0)
    assert report.proximity_residual <= 1e-6


def test_product_of_degenerate_systems_certifies():
    prod = px.product_system(px.banach_half_system(), px.banach_half_system())
    assert px.verify_contraction(prod, 2000, seed=8).certified


def test_product_rejects_non_pair_external_elements():
    prod = px.example1_product_system()
    with pytest.raises(px.InvalidInputError):
        prod.t_a((3.0, 5.0), (3.0, 5.0))


def test_product_maps_lift_each_factor_onto_its_component():
    e1 = px.example1_system()
    prod = px.example1_product_system()
    x, u = (3.0, 5.0), px.CPair((3.0,), (5.0,))
    y, v = (-2.0, -3.0), px.CPair((-2.0,), (-3.0,))
    assert prod.t_a(x, u) == e1.t_a((3.0,), (3.0,)) + e1.t_a((5.0,), (5.0,))
    assert prod.h_a(x, u) == px.CPair(e1.h_a((3.0,), (3.0,)), e1.h_a((5.0,), (5.0,)))
    assert prod.t_b(y, v) == e1.t_b((-2.0,), (-2.0,)) + e1.t_b((-3.0,), (-3.0,))
    assert prod.h_b(y, v) == px.CPair(e1.h_b((-2.0,), (-2.0,)), e1.h_b((-3.0,), (-3.0,)))
    for fn in (prod.h_a, prod.t_b, prod.h_b):
        with pytest.raises(px.InvalidInputError):
            fn(y, (3.0,))


def test_a_product_resolves_the_summed_constants():
    e1 = px.example1_system()
    other = dataclasses.replace(
        px.SYSTEMS["banach-half"].build(),
        f_a=px.ExternalFactor(lambda c: 0.0, 0.125),
        f_b=px.ExternalFactor(lambda c: 0.0, 0.375),
    )
    other = dataclasses.replace(other, pair=dataclasses.replace(other.pair, dist_ab=2.0))
    prod = px.product_system(e1, other)
    left, right = px.resolve_constants(e1), px.resolve_constants(other)
    assert px.resolve_constants(prod) == px.SystemConstants(
        left.dist + right.dist, left.inf_a + right.inf_a, left.inf_b + right.inf_b
    )
    assert px.resolve_constants(prod).s == 3.5


def test_product_penalties_and_infima_add():
    e1 = px.example1_system()
    known = dataclasses.replace(
        e1, f_a=px.ExternalFactor(e1.f_a.fn, 0.25), f_b=px.ExternalFactor(e1.f_b.fn, 0.5)
    )
    prod = px.product_system(known, known)
    assert (prod.f_a.inf_value, prod.f_b.inf_value) == (0.5, 1.0)
    c = px.CPair((3.0,), (-2.0,))
    assert prod.f_a.fn(c) == e1.f_a.fn((3.0,)) + e1.f_a.fn((-2.0,)) == 12.0
    assert prod.f_b.fn(c) == e1.f_b.fn((3.0,)) + e1.f_b.fn((-2.0,))
    with pytest.raises(px.InvalidInputError):
        prod.f_b.fn((3.0,))


def test_singleton_triple_equality_case():
    ct = px.singleton_cyclic_example()
    worst, _ = px.certify_cyclic(ct, 100, seed=0)
    assert worst == 0.0  # constant distances make the inequality an equality
    assert ct.dists == (10.0, 10.0, 20.0)


def test_affine_triple_summed_contraction_sampled():
    ct = px.affine_cyclic_example()
    worst, _ = px.certify_cyclic(ct, 20000, seed=1)
    assert worst >= -1e-10


def test_affine_triple_pairwise_distances():
    ct = px.affine_cyclic_example()
    d = ct.space.metric
    samples = [px.sample_region(r, 400, seed=11) for r in ct.regions]
    for i in range(3):
        j = (i + 1) % 3
        cross_min = min(d(a, b) for a in samples[i] for b in samples[j])
        assert cross_min >= ct.dists[i] - 1e-9


def _counting_affine_triple(monkeypatch):
    """The affine triple with each spoke's membership test logging its name."""
    calls = []
    segment_region = px.instances.segment_region

    def counting_segment(*args, **kwargs):
        region = segment_region(*args, **kwargs)

        def contains(p):
            calls.append(region.name)
            return region.contains(p)

        return dataclasses.replace(region, contains=contains)

    monkeypatch.setattr(px.instances, "segment_region", counting_segment)
    return px.affine_cyclic_example(), calls


def _spoke_geometry():
    """Inner endpoints and outward unit vectors of the affine triple's spokes."""
    r = 1.0 / math.sqrt(3.0)
    angles = [math.pi / 2.0 + j * 2.0 * math.pi / 3.0 for j in range(3)]
    inner = [(r * math.cos(a), r * math.sin(a)) for a in angles]
    unit = [(math.cos(a), math.sin(a)) for a in angles]
    return inner, unit


def test_affine_spoke_map_tests_one_spoke(monkeypatch):
    ct, calls = _counting_affine_triple(monkeypatch)
    inner, unit = _spoke_geometry()

    def scan_map(p):
        # reference: test the spokes in order, as the map once did
        for j in range(3):
            if ct.regions[j].contains(p):
                s = (p[0] - inner[j][0]) * unit[j][0] + (p[1] - inner[j][1]) * unit[j][1]
                s = ct.k * min(1.0, max(0.0, s))
                n = (j + 1) % 3
                return (inner[n][0] + s * unit[n][0], inner[n][1] + s * unit[n][1])
        raise AssertionError("reference found no spoke")

    for j, region in enumerate(ct.regions):
        outer = (inner[j][0] + unit[j][0], inner[j][1] + unit[j][1])
        nx, ny = -unit[j][1], unit[j][0]
        for p in region.draw(random.Random(j), 200) + [inner[j], outer]:
            # on the spoke, and just inside the tolerance on either side
            for off in (0.0, 9e-10, -9e-10):
                q = (p[0] + off * nx, p[1] + off * ny)
                calls.clear()
                image = ct.t(q)
                assert calls == [region.name]
                assert image == scan_map(q)


def test_affine_spoke_map_refuses_points_on_no_spoke(monkeypatch):
    ct, calls = _counting_affine_triple(monkeypatch)
    inner, unit = _spoke_geometry()
    boundary = (0.8 * math.cos(math.pi / 6.0), 0.8 * math.sin(math.pi / 6.0))
    on_spoke2 = (inner[1][0] + 0.5 * unit[1][0], inner[1][1] + 0.5 * unit[1][1])
    off_spoke2 = (on_spoke2[0] - 1e-6 * unit[1][1], on_spoke2[1] + 1e-6 * unit[1][0])
    assert ct.regions[1].contains(on_spoke2)
    for p in [(0.0, 0.0), boundary, off_spoke2]:
        calls.clear()
        with pytest.raises(px.InvalidInputError):
            ct.t(p)
        assert len(calls) == 1


def test_cyclic_reduction_certifies():
    system = px.cyclic3_reduce(px.affine_cyclic_example())
    report = px.verify_contraction(system, 4000, seed=5)
    assert report.certified
    assert system.lam == 0.5 ** 3


def test_cyclic3_solve_refuses_broken_triple():
    # shrink the declared constant below the true one: the gate must trip,
    # naming the worst of the 1000 triples drawn at the solve's seed
    ct = px.affine_cyclic_example()
    broken = px.CyclicTriple(ct.space, ct.regions, ct.t, 0.05, ct.dists)
    with pytest.raises(px.RefutedError) as got:
        px.cyclic3_solve(broken, seed=2)
    assert str(got.value) == (
        "refuted at construction: summed-contraction residual -2.24 at "
        "((9.624961513662317e-17, 1.5718755024491289), "
        "(-1.2760586937010343, -0.736732830310054), "
        "(1.3518216652570736, -0.7804746023325404))"
    )


def test_cyclic3_reduce_builds_without_sampling():
    ct = px.affine_cyclic_example()
    broken = px.CyclicTriple(ct.space, ct.regions, ct.t, 0.05, ct.dists)
    assert px.cyclic3_reduce(broken).lam == 0.05 ** 3


@pytest.mark.parametrize(
    "change, want",
    [({"t": lambda p: (math.nan, math.nan)}, "nan"), ({"dists": (math.inf, 1.0, 1.0)}, "inf")],
    ids=["nan", "inf"],
)
def test_non_finite_cyclic_residual_refutes(change, want):
    # r < worst is false for NaN and +inf: the first one is returned, not skipped
    ct = px.affine_cyclic_example()
    bad = dataclasses.replace(ct, **change)
    worst, arg = px.certify_cyclic(bad, 50, seed=3)
    assert repr(worst) == want and cyclic_refuted(worst)
    draw = px.draw_columns([region.draw for region in ct.regions], lambda *xs: xs)
    assert arg == draw(random.Random(3), 50)[0]
    with pytest.raises(px.RefutedError):
        px.cyclic3_solve(bad, seed=3)


def test_cyclic_refuted_gate():
    assert not cyclic_refuted(0.0) and not cyclic_refuted(-0.5 * px.RESIDUAL_TOL)
    for worst in (-1e-9, -math.inf, math.inf, math.nan):
        assert cyclic_refuted(worst), worst


def test_cyclic3_solve_singleton_exact():
    result, _ = px.cyclic3_solve(px.singleton_cyclic_example(), max_steps=100, tol=1e-9)
    assert result.z == ((10.0,), (20.0,), (30.0,))
    assert result.gap_residuals == (0.0, 0.0, 0.0)
    assert result.cycle_residuals == (0.0, 0.0, 0.0)


def test_cyclic3_solve_affine_matches_closed_form():
    # closed form: the cubed map contracts each segment parameter by 1/8
    # toward zero, so the limits are the three inner endpoints
    ct = px.affine_cyclic_example()
    r = 1.0 / math.sqrt(3.0)
    vertices = [
        (r * math.cos(math.pi / 2 + j * 2 * math.pi / 3),
         r * math.sin(math.pi / 2 + j * 2 * math.pi / 3))
        for j in range(3)
    ]
    result, _ = px.cyclic3_solve(ct, max_steps=400, tol=1e-9)
    assert result is not None
    for z, v in zip(result.z, vertices):
        assert ct.space.metric(z, v) <= 1e-8
    assert max(result.gap_residuals) <= 1e-8
    assert max(result.cycle_residuals) <= 1e-8


def test_cyclic3_solve_start_independent():
    # each rotation's start is drawn at the seed, so two seeds start apart
    ct = px.affine_cyclic_example()
    r1, first1 = px.cyclic3_solve(ct, max_steps=400, tol=1e-9, seed=0)
    r2, first2 = px.cyclic3_solve(ct, max_steps=400, tol=1e-9, seed=1)
    assert first1.a.points[0] != first2.a.points[0]
    for a, b in zip(r1.z, r2.z):
        assert ct.space.metric(a, b) <= 1e-8


def test_cyclic3_solve_undecided_on_tiny_budget():
    ct = px.affine_cyclic_example()
    result, first = px.cyclic3_solve(ct, max_steps=3, tol=1e-12)
    assert result is None and first.steps == 3


def test_rotate_cyclic_relabels_distances():
    ct = px.affine_cyclic_example()
    rot = px.rotate_cyclic(ct, 1)
    assert rot.regions[0] is ct.regions[1]
    assert rot.dists == (ct.dists[1], ct.dists[2], ct.dists[0])


def test_registry_names():
    names = {row[0] for row in px.list_instances()}
    assert {
        "e1",
        "banach-half",
        "banach-affine",
        "e1-product",
        "cyclic3-singleton",
        "cyclic3-affine",
        "e1-pair",
        "open-interval-pair",
        "circle-origin-pair",
    } <= names
    assert px.ALIASES["banach"] == "banach-half"


def test_load_instance_json(tmp_path):
    spec = {
        "name": "half-move",
        "space": {"kind": "real"},
        "regions": {
            "a": {"lo": -1e9, "hi": 1e9, "sample_lo": -50, "sample_hi": 50},
        },
        "maps": {
            "t_a": {"name": "affine", "slope": 0.5, "offset": 2.0},
            "t_b": {"name": "affine", "slope": 0.5, "offset": 2.0},
        },
        "lambda": 0.5,
        "dist": 0.0,
        "infima": {"a": 0.0, "b": 0.0},
        "x0": 10.0,
        "y0": 0.0,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
    entry = px.load_instance_json(str(path))
    system = entry.build()
    assert px.verify_contraction(system, 2000, seed=0).certified
    q0 = entry.quadruple(entry.default_x0, entry.default_y0)
    _, report = px.run_paired(system, q0, 300, 1e-10)
    assert report.limit[0] == pytest.approx(4.0, abs=1e-8)  # x = x/2 + 2


def test_json_instance_reads_omitted_dist_and_infima_as_zero(tmp_path):
    spec = {
        "name": "no-constants",
        "space": {"kind": "real"},
        "regions": {"a": {"lo": -10.0, "hi": 10.0}},
        "maps": {
            "t_a": {"name": "affine", "slope": 0.5},
            "t_b": {"name": "affine", "slope": 0.5},
        },
        "lambda": 0.5,
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(spec))
    system = px.load_instance_json(str(path)).build()
    assert px.resolve_constants(system) == px.SystemConstants(0.0, 0.0, 0.0)
    report = px.verify_contraction(system, 500, seed=0)
    assert report.certified and report.s == 0.0


def test_json_instance_with_two_regions_keeps_its_system(tmp_path):
    spec = {
        "name": "two-regions",
        "space": {"kind": "real"},
        "regions": {
            "a": {"lo": 0.0, "hi": 10.0, "name": "[0,10]"},
            "b": {"lo": 20.0, "hi": 30.0, "name": "[20,30]"},
        },
        "maps": {
            "t_a": {"name": "affine", "slope": 0.5},
            "t_b": {"name": "affine", "slope": 0.5, "offset": 12.5},
        },
        "lambda": 0.5,
        "dist": 10.0,
        "infima": {"a": 0.25, "b": 0.5},
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(spec))
    entry = px.load_instance_json(str(path))
    system = entry.build()
    unit = px.Atom("unit")
    assert system.name == "two-regions" and system.lam == 0.5
    assert (system.pair.a.name, system.pair.b.name, system.pair.dist_ab) == (
        "[0,10]", "[20,30]", 10.0,
    )
    assert (system.f_a.inf_value, system.f_b.inf_value) == (0.25, 0.5)
    assert (system.f_a.fn(unit), system.f_b.fn(unit)) == (0.0, 0.0)
    assert system.p.draw(random.Random(3), 3) == [
        px.Quadruple((2.3796462709189137,), (26.039200385961944,), unit, unit),
        px.Quadruple((5.442292252959518,), (26.25720304108054,), unit, unit),
        px.Quadruple((3.6995516654807927,), (20.65528859239813,), unit, unit),
    ]
    assert system.t_a((4.0,), unit) == (2.0,) and system.t_b((22.0,), unit) == (23.5,)
    assert system.h_a((4.0,), unit) == unit and system.h_b((22.0,), unit) == unit
    assert system.p.contains((1.0,), (21.0,), unit, unit)
    assert not system.p.contains((11.0,), (21.0,), unit, unit)
    assert not system.p.contains((1.0,), (1.0,), unit, unit)
    assert (entry.default_x0, entry.default_y0) == ((8.444218515250482,), (21.34364244112401,))
    assert entry.quadruple(entry.default_x0, entry.default_y0)[1::2] == ((21.34364244112401,), unit)


# ---------------------------------------------------------------------------
# the flat e1 parity kernel against the floor_log2 formulas it replaced


def _ref_alpha_parity(x):
    if x < 0:
        raise px.InvalidInputError("alpha_parity needs a nonnegative argument")
    if x == 0:
        return 0
    return px.floor_log2(x) % 2


def _ref_example1_T(x):
    if x < 0:
        raise px.InvalidInputError("example1_T needs a nonnegative argument")
    if x == 0:
        a, band = 0, 0.0
    else:
        a, band = _ref_alpha_parity(x), math.ldexp(1.0, px.floor_log2(x))
    return 2.0 * x * a + 0.25 * (x - band) * (1 - a)


def _ref_example1_Tb(y):
    g = y + 1.0
    return g / 8.0 + (15.0 / 8.0) * g * _ref_alpha_parity(-g) - 1.0


def _ref_example1_fa(c):
    if c >= 0:
        return 4.0 * c * _ref_alpha_parity(c)
    if c <= -1:
        return 0.0
    raise px.InvalidInputError(f"{c} is outside the external set")


def _ref_example1_fb(c):
    if c >= 0:
        return 0.0
    if c <= -1:
        return -4.0 * (c + 1.0) * _ref_alpha_parity(-c - 1.0)
    raise px.InvalidInputError(f"{c} is outside the external set")


E1_KERNEL = [
    (px.alpha_parity, _ref_alpha_parity),
    (px.example1_T, _ref_example1_T),
    (px.example1_Tb, _ref_example1_Tb),
    (px.example1_fa, _ref_example1_fa),
    (px.example1_fb, _ref_example1_fb),
]


def _outcome(fn, x):
    """The result's bits, or the raised error's type and message."""
    try:
        value = fn(x)
    except px.InvalidInputError as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else value


def _e1_edge_inputs():
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf]
    for e in list(range(-1074, -1000)) + list(range(-60, 61)) + list(range(1000, 1024)):
        p = math.ldexp(1.0, e)
        edges += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # the second side's band edges sit at -1 - 2**e
    edges += [-1.0 - v for v in edges if v < 1e300]
    edges += [-v for v in edges] + [math.nan, -math.nan]
    return edges


def test_e1_kernel_matches_floor_log2_formulas_on_edges():
    for x in _e1_edge_inputs():
        for fn, ref in E1_KERNEL:
            assert _outcome(fn, x) == _outcome(ref, x), (fn.__name__, x)


@settings(max_examples=1000, deadline=None)
@given(st.floats())
def test_e1_kernel_matches_floor_log2_formulas(x):
    for fn, ref in E1_KERNEL:
        assert _outcome(fn, x) == _outcome(ref, x), fn.__name__


# ---------------------------------------------------------------------------
# the reduction's map: one cubed-map call per diagonal point, same bits


def _two_call_reference(ct, p, d):
    def t3(q):
        return ct.t(ct.t(ct.t(q)))

    return t3(p[:d]) + t3(p[d:])


def _reduction_points(rot, seed):
    rng = random.Random(seed)
    firsts, seconds, thirds = (region.draw(rng, 20) for region in rot.regions)
    points = [g + g for g in firsts]  # diagonal, as P draws them
    points += [g + tuple(float(repr(c)) for c in g) for g in firsts]  # equal, distinct floats
    points += [g + h for g, h in zip(firsts, firsts[1:])]  # first side, off the diagonal
    points += [b + c for b, c in zip(seconds, thirds)]  # second side
    return points


@pytest.mark.parametrize("name", ["cyclic3-singleton", "cyclic3-affine"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(0, 2))
def test_reduction_map_matches_two_cubed_calls(name, seed, shift):
    ct = px.CYCLIC[name].build()
    rot = px.rotate_cyclic(ct, shift)
    system = px.cyclic3_reduce(rot)
    assert system.t_a is system.t_b is system.h_b
    d = ct.space.dim
    for p in _reduction_points(rot, seed):
        got = system.t_a(p, ONE_ATOM)
        assert [c.hex() for c in got] == [c.hex() for c in _two_call_reference(rot, p, d)]


@pytest.mark.parametrize("name", ["cyclic3-singleton", "cyclic3-affine"])
def test_reduction_map_signed_zero_halves_off_the_regions(name):
    # no region of either triple holds a zero coordinate: both paths refuse alike
    ct = px.CYCLIC[name].build()
    system = px.cyclic3_reduce(ct)
    d = ct.space.dim
    p = (0.0,) * d + (-0.0,) * d
    with pytest.raises(px.InvalidInputError) as got:
        system.t_a(p, ONE_ATOM)
    with pytest.raises(px.InvalidInputError) as ref:
        _two_call_reference(ct, p, d)
    assert str(got.value) == str(ref.value)


def test_reduction_map_keeps_the_sign_of_a_zero_half():
    # a map that sends +0.0 and -0.0 apart: equal halves must not share a call
    region = px.interval(-1.0, 1.0, name="[-1,1]")

    def t(p):
        return (math.copysign(0.5, p[0]) if p[0] == 0.0 else p[0] / 2.0,)

    ct = px.CyclicTriple(px.real_line(), (region,) * 3, t, 0.5, (0.0, 0.0, 0.0))
    system = px.cyclic3_reduce(ct)
    for p in [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.5, 0.5)]:
        got = system.t_a(p, ONE_ATOM)
        assert [c.hex() for c in got] == [c.hex() for c in _two_call_reference(ct, p, 1)]
    assert system.t_a((0.0, -0.0), ONE_ATOM) == (0.125, -0.125)


# ---------------------------------------------------------------------------
# relabelling a cyclic triple leaves its summed residual unchanged


@pytest.mark.parametrize("name", ["cyclic3-singleton", "cyclic3-affine"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(-3, 5))
def test_cyclic_residual_invariant_under_rotation(name, seed, shift):
    ct = px.CYCLIC[name].build()
    rng = random.Random(seed)
    xs = [region.draw(rng, 1)[0] for region in ct.regions]
    i = shift % 3
    rotated = px.rotate_cyclic(ct, shift)
    before = px.cyclic_residual(ct, *xs)
    after = px.cyclic_residual(rotated, *(xs[(i + j) % 3] for j in range(3)))
    if i == 0:
        assert after.hex() == before.hex()
    # each three-term sum may round differently once reassociated: a few ulps
    # of the largest magnitude in the residual's terms
    d = ct.space.metric
    perim = d(xs[0], xs[1]) + d(xs[1], xs[2]) + d(xs[2], xs[0])
    scale = ct.k * perim + (1.0 - ct.k) * ct.d_total + perim
    assert abs(after - before) <= 8 * math.ulp(scale)


def test_cyclic_residual_sums_the_distances_once_per_triple():
    reads = []

    class CountedDists(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    dists = CountedDists((0.1, 0.2, 0.3))  # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    ct = dataclasses.replace(px.affine_cyclic_example(), dists=dists)
    xs = [region.draw(random.Random(3), 1)[0] for region in ct.regions]
    for _ in range(5):
        px.cyclic_residual(ct, *xs)
    assert len(reads) == 1
    assert ct.d_total.hex() == (0 + 0.1 + 0.2 + 0.3).hex()
    rotated = px.rotate_cyclic(ct, 1)
    assert rotated.d_total.hex() == (0 + 0.2 + 0.3 + 0.1).hex()


def test_reduction_sample_makes_nine_cyclic_map_calls():
    # T_A at a diagonal point cubes one half (3 calls); T_B cubes two halves
    # (6 calls); H_B is T_B, so it reuses that output
    ct = px.affine_cyclic_example()
    calls = []

    def counted(p):
        calls.append(p)
        return ct.t(p)

    system = px.cyclic3_reduce(dataclasses.replace(ct, t=counted))
    samples = 200
    # at depth 0 the P-invariance probes call no map
    px.verify_contraction(system, samples, seed=1, depth=0)
    assert len(calls) == 9 * samples
