"""Metric core: distances, regions, set pairs, products, axiom checks."""

import math
import random
import struct
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxiter as px


def test_distance_real_line():
    space = px.real_line()
    assert px.distance(space, (3.0,), (-2.0,)) == 5.0


def test_distance_sum_metric_plane():
    space = px.compose_spaces(px.real_line(), px.real_line())
    assert px.distance(space, (0.0, 0.0), (1.0, 2.0)) == 3.0


def test_distance_self_is_zero():
    for space, p in [
        (px.real_line(), (7.25,)),
        (px.compose_spaces(px.real_line(), px.real_line()), (1.0, -2.0)),
        (px.vector_space(2), (0.3, 0.4)),
    ]:
        assert px.distance(space, p, p) == 0.0


def test_distance_dimension_mismatch():
    space = px.compose_spaces(px.real_line(), px.real_line())
    with pytest.raises(px.InvalidInputError):
        px.distance(space, (1.0,), (0.0, 0.0))


@pytest.mark.parametrize("dim", [None, 0, -1, 1.0, True, "2"])
def test_metric_space_needs_a_positive_integer_dimension(dim):
    with pytest.raises(px.InvalidInputError, match="positive integer dimension"):
        px.MetricSpace("bad", dim, lambda x, y: 0.0)


def test_vector_space_refuses_dimension_zero():
    with pytest.raises(px.InvalidInputError, match="dim must be 2"):
        px.vector_space(0)


NON_PLANAR = {
    "R^1": lambda: px.vector_space(1),
    "R^3": lambda: px.vector_space(3),
    "dim-2.0": lambda: px.vector_space(2.0),
    "segment-3d": lambda: px.segment_region((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    "segment-1d-2d": lambda: px.segment_region((0.0,), (1.0, 0.0)),
    # the dimension is checked before the segment's length
    "segment-3d-degenerate": lambda: px.segment_region((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "circle-3d": lambda: px.circle_region((0.0, 0.0, 0.0), 1.0),
    "circle-1d": lambda: px.circle_region((0.0,), 1.0),
}


@pytest.mark.parametrize("case", list(NON_PLANAR))
def test_euclidean_geometry_refuses_anything_but_the_plane(case):
    with pytest.raises(px.InvalidInputError, match="plane"):
        NON_PLANAR[case]()


def test_a_circle_has_no_member_off_the_plane():
    # a point of another dimension is an error, never a member
    circ = px.circle_region((0.0, 0.0), 1.0)
    for point in ((1.0,), (1.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            circ.contains(point)


@pytest.mark.parametrize(
    "dist, needle",
    [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "cannot be negative"),
     (-1.0, "cannot be negative"), (None, "must be supplied")],
)
def test_set_pair_refuses_a_non_finite_or_negative_distance(dist, needle):
    with pytest.raises(px.InvalidInputError, match=needle):
        px.SetPair(px.real_line(), px.interval(0, 1), px.interval(3, 4), dist)


def test_product_space_distances_add():
    e1 = px.example1_pair()
    prod = px.product_space(e1, e1)
    assert prod.dist_ab == 2.0
    singles = px.SetPair(
        px.real_line(), px.singleton_region(0.0), px.singleton_region(5.0), 5.0
    )
    singles2 = px.SetPair(
        px.real_line(), px.singleton_region(0.0), px.singleton_region(7.0), 7.0
    )
    assert px.product_space(singles, singles2).dist_ab == 12.0


def test_product_metric_is_exact_sum():
    e1 = px.example1_pair()
    prod = px.product_space(e1, e1)
    rng = random.Random(0)
    for _ in range(200):
        x = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        y = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        expected = abs(x[0] - y[0]) + abs(x[1] - y[1])
        assert px.distance(prod.space, x, y) == expected


def test_sample_region_membership_and_determinism():
    region = px.interval(0.0, math.inf, sample_hi=100.0)
    pts = px.sample_region(region, 3, seed=7)
    assert len(pts) == 3 and all(p[0] >= 0 for p in pts)
    assert px.sample_region(region, 3, seed=7) == pts
    assert px.sample_region(region, 0, seed=7) == []


def test_sample_region_negative_count():
    with pytest.raises(px.InvalidInputError):
        px.sample_region(px.interval(0, 1), -1, seed=0)


def test_sampler_exhaustion_raises():
    broken = px.Region("broken", lambda p: True, lambda rng, n: [], complete=False)
    with pytest.raises(px.EstimationFailureError):
        px.sample_region(broken, 2, seed=0)


def test_open_interval_membership():
    region = px.interval(0.0, 1.0, closed_lo=False, closed_hi=False)
    assert not region.contains((0.0,))
    assert not region.contains((1.0,))
    assert region.contains((0.5,))
    assert not region.complete


def _reference_interval_contains(lo, hi, closed_lo, closed_hi, v):
    """The membership test as written before the predicate was chosen at construction."""
    ok_lo = v >= lo if closed_lo else v > lo
    ok_hi = v <= hi if closed_hi else v < hi
    return ok_lo and ok_hi


@pytest.mark.parametrize("closed_lo", [True, False])
@pytest.mark.parametrize("closed_hi", [True, False])
@pytest.mark.parametrize(
    "lo, hi", [(0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (-math.inf, -1.0), (0.0, math.inf),
               (-math.inf, math.inf)]
)
def test_interval_membership_matches_the_per_call_expression(lo, hi, closed_lo, closed_hi):
    region = px.interval(lo, hi, closed_lo=closed_lo, closed_hi=closed_hi)
    for v in (math.nan, math.inf, -math.inf, -0.0, 0.0, lo, hi, 0.5, -0.5, 5e-324):
        want = _reference_interval_contains(lo, hi, closed_lo, closed_hi, v)
        got = region.contains((v,))
        assert type(got) is bool and got == want, (lo, hi, closed_lo, closed_hi, v)


def metric_axiom_violations(
    space: px.MetricSpace, points: Sequence[px.Point], slack: float = 1e-12
) -> list[str]:
    """Check identity, symmetry and the triangle inequality on point windows.

    Consecutive windows (p[i], p[i+1], p[i+2]) of the supplied list are used
    as test triples, so n points yield n-2 triples.
    """
    bad: list[str] = []
    for i in range(len(points) - 2):
        x, y, z = points[i], points[i + 1], points[i + 2]
        dxx = px.distance(space, x, x)
        dxy = px.distance(space, x, y)
        dyx = px.distance(space, y, x)
        dxz = px.distance(space, x, z)
        dyz = px.distance(space, y, z)
        if abs(dxx) > slack:
            bad.append(f"identity failed at {x}: rho(x,x)={dxx}")
        if abs(dxy - dyx) > slack:
            bad.append(f"symmetry failed at ({x},{y}): {dxy} vs {dyx}")
        if dxz > dxy + dyz + slack:
            bad.append(f"triangle failed at ({x},{y},{z}): {dxz} > {dxy}+{dyz}")
        if dxy < -slack:
            bad.append(f"negativity at ({x},{y}): {dxy}")
    return bad


def test_metric_axioms_on_builtin_spaces():
    # 1e4 random triples per space via sliding windows over sampled points
    rng = random.Random(123)
    spaces = {
        px.real_line(): lambda: (rng.uniform(-50, 50),),
        px.vector_space(2): lambda: (rng.uniform(-50, 50), rng.uniform(-50, 50)),
        px.compose_spaces(px.real_line(), px.real_line()): lambda: (
            rng.uniform(-50, 50),
            rng.uniform(-50, 50),
        ),
    }
    for space, gen in spaces.items():
        points = [gen() for _ in range(10002)]
        assert metric_axiom_violations(space, points, slack=1e-12) == []


def test_point_serialization_round_trip():
    pts = [(3.0,), (0.1 + 0.2,), (-1.0 / 3.0, 2.0 ** 0.5), (1e-300, 1e300)]
    for p in pts:
        back = px.parse_point(px.format_point(p))
        assert back == p


def test_segment_and_circle_regions():
    seg = px.segment_region((0.0, 0.0), (1.0, 0.0))
    assert seg.contains((0.5, 0.0))
    assert not seg.contains((0.5, 0.1))
    pts = px.sample_region(seg, 50, seed=1)
    assert all(seg.contains(p) for p in pts)

    circ = px.circle_region((0.0, 0.0), 1.0)
    assert circ.contains((1.0, 0.0))
    assert not circ.contains((0.5, 0.0))
    assert all(circ.contains(p) for p in px.sample_region(circ, 50, seed=2))


# reference: the generic zip/sum formulas that every dimension once used


def _generic_segment(a, b):
    direction = tuple(q - p for p, q in zip(a, b))
    length2 = sum(d * d for d in direction)

    def at(t):
        return tuple(o + t * d for o, d in zip(a, direction))

    def contains(p):
        t = min(1.0, max(0.0, sum((c - o) * d for c, o, d in zip(p, a, direction)) / length2))
        q = at(t)
        return math.sqrt(sum((c - d) * (c - d) for c, d in zip(p, q))) <= px.GEOMETRY_TOL

    return at, contains


def _generic_euclidean(x, y):
    return math.sqrt(sum((a - b) * (a - b) for a, b in zip(x, y)))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# on the segment, about one tolerance off it either way, or well off it
normal_offset = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-9, -1e-9, 1e-9 * (1 - 1e-12), -1e-9 * (1 + 1e-12)]),
    st.floats(min_value=-2e-9, max_value=2e-9),
    st.floats(min_value=-1.0, max_value=1.0),
)


@settings(max_examples=400, deadline=None)
@given(
    a=st.tuples(coord, coord),
    b=st.tuples(coord, coord),
    t=st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([0.0, 1.0])),
    off=normal_offset,
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_plane_segment_matches_generic_formula(a, b, t, off, seed):
    length = math.dist(a, b)
    if length < 1e-6:
        return
    at, contains = _generic_segment(a, b)
    seg = px.segment_region(a, b)
    nx, ny = (a[1] - b[1]) / length, (b[0] - a[0]) / length
    q = at(t)

    def shifted(h):
        return (q[0] + h * nx, q[1] + h * ny)

    points = [q, shifted(off), a, b]
    if contains(q):
        # the two offsets one step apart where the generic answer flips
        lo, hi = 0.0, 4e-9
        while math.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2.0
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if contains(shifted(mid)) else (lo, mid)
        points += [shifted(lo), shifted(hi)]
    for point in points:
        assert seg.contains(point) == contains(point)
    rng = random.Random(seed)
    expected = [at(rng.random()) for _ in range(20)]
    drawn = seg.draw(random.Random(seed), 20)
    assert [_bits(p) for p in drawn] == [_bits(p) for p in expected]


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
)
def test_plane_euclidean_metric_matches_generic_formula(x, y):
    metric = px.vector_space(2).metric
    assert _bits([metric(x, y)]) == _bits([_generic_euclidean(x, y)])


@settings(max_examples=300, deadline=None)
@given(
    center=st.tuples(st.floats(), st.floats()),
    angle=st.floats(min_value=0.0, max_value=7.0),
    radius=st.one_of(st.floats(min_value=0.0, max_value=1e6), st.sampled_from([0.0, math.inf])),
    off=normal_offset,
)
def test_plane_circle_matches_generic_formula(center, angle, radius, off):
    circ = px.circle_region(center, radius)
    r = radius + off
    point = (center[0] + r * math.cos(angle), center[1] + r * math.sin(angle))
    generic = abs(_generic_euclidean(point, center) - radius) <= px.GEOMETRY_TOL
    assert circ.contains(point) == generic


def test_a_square_beyond_the_largest_double_is_inf_not_an_error():
    # x * x rounds to inf above about 1.34e154, where x ** 2 raised OverflowError
    far = (1e200, 0.0)
    assert px.vector_space(2).metric(far, (0.0, 0.0)) == math.inf
    assert px.segment_region((0.0, 0.0), (1.0, 0.0)).contains(far) is False
    assert px.circle_region((0.0, 0.0), 1.0).contains(far) is False


TOL_SQUARED = px.spaces.GEOMETRY_TOL_SQUARED


def test_the_squared_tolerance_is_the_largest_double_whose_root_is_within_it():
    assert math.sqrt(TOL_SQUARED) <= px.GEOMETRY_TOL
    assert math.sqrt(math.nextafter(TOL_SQUARED, math.inf)) > px.GEOMETRY_TOL
    assert TOL_SQUARED == 1.0000000000000003e-18


def _ulps_away(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-4, max_value=4).map(lambda k: _ulps_away(TOL_SQUARED, k)),
        st.floats(min_value=0.0, max_value=1e-16),
        st.sampled_from([0.0, -0.0, math.inf, math.nan]),
    )
)
def test_comparing_a_square_with_the_squared_tolerance_is_comparing_its_root(s):
    assert (s <= TOL_SQUARED) == (math.sqrt(s) <= px.GEOMETRY_TOL)


# symmetry, which lets the cyclic campaign take d(c, g) for d(g, c): swapping
# the points negates each difference exactly, so the bits agree
special = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -1.5e-310, 2.2250738585072014e-308,
     1e300, -1e300, math.inf, -math.inf, math.nan]
)
any_coord = st.one_of(special, st.floats())
SYMMETRY_SPACES = {
    "R": px.real_line(),
    "R^2": px.vector_space(2),
    "R^2 x R": px.compose_spaces(px.vector_space(2), px.real_line()),
}


def _symmetry_outcome(metric, x, y):
    """NaN, or the result's bits."""
    value = metric(x, y)
    return "nan" if math.isnan(value) else _bits([value])


@pytest.mark.parametrize("name", list(SYMMETRY_SPACES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_builtin_metrics_are_symmetric_bit_for_bit(name, data):
    space = SYMMETRY_SPACES[name]
    point = st.tuples(*[any_coord] * space.dim)
    x, y = data.draw(point), data.draw(point)
    assert _symmetry_outcome(space.metric, x, y) == _symmetry_outcome(space.metric, y, x)


def _below_five(p):
    return all(c < 5.0 for c in p)


def _positive_below_five(p):
    # tells -0.0 from 0.0, as a predicate may
    return all(math.copysign(1.0, c) > 0.0 and c < 5.0 for c in p)


def _counted_region(name, calls, predicate):
    def contains(p):
        calls.append(name)
        return predicate(p)

    return px.Region(name, contains, lambda rng, n: [])


@pytest.mark.parametrize(
    "half, calls",
    [((1.0, 2.0), 1), ((math.inf, -3.0), 1), ((0.0, 2.0), 2), ((1.0, -0.0), 2)],
)
def test_a_diagonal_of_one_region_tests_one_half_unless_it_holds_a_zero(half, calls):
    seen = []
    region = _counted_region("r", seen, _below_five)
    product = px.product_region(region, region, 2)
    assert product.contains(half + half) == _below_five(half)
    assert len(seen) == calls


def test_a_diagonal_of_two_regions_tests_both_halves():
    seen = []
    product = px.product_region(
        _counted_region("r1", seen, _below_five), _counted_region("r2", seen, _below_five), 2
    )
    assert product.contains((1.0, 2.0, 1.0, 2.0))
    assert seen == ["r1", "r2"]


def test_a_zero_that_changes_sign_across_the_halves_is_tested_on_both():
    seen = []
    region = _counted_region("r", seen, _positive_below_five)
    product = px.product_region(region, region, 1)
    # the halves compare equal, and the second is not a member
    assert not product.contains((0.0, -0.0))
    assert len(seen) == 2


small_coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 4.0, 6.0, math.nan]), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    left=st.tuples(small_coord, small_coord),
    how=st.sampled_from(["same", "copy", "negated", "other"]),
    other=st.tuples(small_coord, small_coord),
    shared=st.booleans(),
)
def test_a_product_region_agrees_with_testing_both_halves(left, how, other, shared):
    seen = []
    r1 = _counted_region("r1", seen, _positive_below_five)
    r2 = r1 if shared else _counted_region("r2", seen, _below_five)
    right = {
        "same": left,
        "copy": tuple(float(repr(c)) for c in left),
        "negated": tuple(-c for c in left),
        "other": other,
    }[how]
    want = r1.contains(left) and r2.contains(right)
    assert px.product_region(r1, r2, 2).contains(left + right) == want
