"""Metric spaces, regions, set pairs, and sum-metric product composition.

Points are fixed-length tuples of floats.  Every sampler is driven by an
explicit seed so that repeated campaigns reproduce bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import EstimationFailureError, InvalidInputError

Point = tuple[float, ...]

#: membership slack for regions defined by an implicit equation (segments, circles)
GEOMETRY_TOL = 1e-9


def _largest_square_within(tol: float) -> float:
    """The largest double s with ``math.sqrt(s) <= tol``.

    ``math.sqrt`` is correctly rounded and monotone, so ``s <= S`` for this S
    gives the verdict of ``math.sqrt(s) <= tol`` on every s, NaN and inf
    included; tol * tol is within a few ulps of S, so the search is short.
    """
    s = tol * tol
    while math.sqrt(s) > tol:
        s = math.nextafter(s, 0.0)
    while math.sqrt(math.nextafter(s, math.inf)) <= tol:
        s = math.nextafter(s, math.inf)
    return s


#: the segment test compares a squared distance with this, not its root
GEOMETRY_TOL_SQUARED = _largest_square_within(GEOMETRY_TOL)


def as_point(value: Union[float, int, Sequence[float]]) -> Point:
    """Coerce a scalar or a coordinate sequence to a Point tuple."""
    if isinstance(value, (int, float)):
        return (float(value),)
    return tuple(float(v) for v in value)


@functools.lru_cache(maxsize=64)
def _point_template(length: int, digits: int) -> str:
    return ";".join([f"%.{digits}g"] * length)


def format_point(p: Point, digits: int = 17) -> str:
    """Semicolon-joined decimal form; round-trips exactly at 17 digits.

    Each coordinate is printed as ``f"{c:.{digits}g}"`` would print it, through
    one ``%`` template per (length, digits).
    """
    return _point_template(len(p), digits) % tuple(p)


def parse_point(text: str) -> Point:
    """Comma- or semicolon-separated coordinates; a bad coordinate is an input error."""
    try:
        return tuple(float(part) for part in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad point {text!r}: {exc}") from exc


def draw_columns(
    columns: Sequence[Callable[[random.Random, int], list]], row: Callable
) -> Callable[[random.Random, int], list]:
    """A seeded sampler that draws each column whole, in order, from the one rng.

    Row i is ``row(c_1[i], ..., c_k[i])``.  Every multi-part sampler is built
    here, so the draw order is written once.
    """

    def draw(rng: random.Random, n: int) -> list:
        return list(map(row, *[column(rng, n) for column in columns]))

    return draw


@dataclass(frozen=True)
class MetricSpace:
    """A point universe of a fixed positive dimension with its distance function."""

    name: str
    dim: int
    metric: Callable[[Point, Point], float]

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidInputError(
                f"space {self.name} needs a positive integer dimension, got {self.dim!r}"
            )


def distance(space: MetricSpace, x: Point, y: Point) -> float:
    """Evaluate the space's metric after checking both points' dimensions."""
    if len(x) != space.dim or len(y) != space.dim:
        raise InvalidInputError(
            f"dimension mismatch in {space.name}: got {len(x)}/{len(y)}, want {space.dim}"
        )
    return space.metric(x, y)


def _abs_metric(x: Point, y: Point) -> float:
    return abs(x[0] - y[0])


#: metrics vector_space and compose_spaces built that grow with each rounded
#: |x_i - y_i|; a metric wrapped by ``dataclasses.replace`` is not among them
_MONOTONE_METRICS: weakref.WeakSet = weakref.WeakSet()


def _coordinatewise_monotone(metric: Callable[[Point, Point], float]) -> bool:
    """Whether the metric is nondecreasing in each rounded |x_i - y_i|.

    True for the line metric (by identity with the module global, so a
    rebound one counts), for ``vector_space``'s metric and for
    ``compose_spaces`` of such metrics: rounded subtraction, ``abs``,
    ``e * e``, addition and ``sqrt`` are each monotone.  Each of them is
    also NaN or infinite wherever a coordinate is.  A metric that cannot be
    hashed is not in the registry.
    """
    if metric is _abs_metric:
        return True
    try:
        return metric in _MONOTONE_METRICS
    except TypeError:
        return False


def _line_cross_sup(
    space: MetricSpace, xs: Sequence[Point], ys: Sequence[Point]
) -> Optional[float]:
    """max over x in xs, y in ys of the metric, in one pass, on the real line.

    Rounded subtraction is monotone in each argument, so the largest
    |x - y| is max x - min y or max y - min x: the pairwise maximum, up to
    the sign of a zero.  None on any other space, or when a coordinate is
    not finite, where only the pairwise sweep says which value failed.
    """
    if space.metric is not _abs_metric or space.dim != 1:
        return None
    a, b = [p[0] for p in xs], [p[0] for p in ys]
    if not all(map(math.isfinite, a + b)):
        return None
    return max(max(a) - min(b), max(b) - min(a))


#: the membership predicates interval() built
_INTERVAL_PREDICATES: weakref.WeakSet = weakref.WeakSet()


def _interval_predicate(contains: Callable[[Point], bool]) -> bool:
    """Whether contains is a predicate interval() built.

    Such a predicate compares p[0] with two fixed ends by ``<=`` or ``<``,
    so it holds at every point whose first coordinate lies between those
    of two members.  A predicate that cannot be weakly referenced is not in
    the registry; neither is one that a wrapper replaced.
    """
    try:
        return contains in _INTERVAL_PREDICATES
    except TypeError:
        return False


def real_line() -> MetricSpace:
    return MetricSpace("R", 1, _abs_metric)


def vector_space(dim: int) -> MetricSpace:
    """The Euclidean plane, dim 2 only; other spaces are built with ``compose_spaces``."""
    if not isinstance(dim, int) or dim != 2:
        raise InvalidInputError(f"vector_space is the Euclidean plane: dim must be 2, got {dim!r}")
    sqrt = math.sqrt

    def d(x: Point, y: Point) -> float:
        x0, x1 = x
        y0, y1 = y
        e0, e1 = x0 - y0, x1 - y1
        return sqrt(e0 * e0 + e1 * e1)

    _MONOTONE_METRICS.add(d)
    return MetricSpace("R^2[euclidean]", 2, d)


def compose_spaces(s1: MetricSpace, s2: MetricSpace) -> MetricSpace:
    """Product universe under the sum of the component metrics."""
    d1 = s1.dim

    def d(x: Point, y: Point) -> float:
        return s1.metric(x[:d1], y[:d1]) + s2.metric(x[d1:], y[d1:])

    if _coordinatewise_monotone(s1.metric) and _coordinatewise_monotone(s2.metric):
        _MONOTONE_METRICS.add(d)
    return MetricSpace(f"({s1.name})x({s2.name})", d1 + s2.dim, d)


@dataclass(frozen=True)
class Region:
    """A membership predicate plus a deterministic seeded sampler."""

    name: str
    contains: Callable[[Point], bool]
    draw: Callable[[random.Random, int], list[Point]]


def sample_region(region: Region, n: int, seed: int) -> list[Point]:
    """n member points, reproducible per seed."""
    if n < 0:
        raise InvalidInputError("sample count must be nonnegative")
    if n == 0:
        return []
    pts = region.draw(random.Random(seed), n)
    if len(pts) < n:
        raise EstimationFailureError(
            f"sampler exhaustion in region {region.name}: {len(pts)} of {n}"
        )
    for p in pts:
        if not region.contains(p):
            raise EstimationFailureError(
                f"sampler for region {region.name} produced non-member {p}"
            )
    return pts


def interval(
    lo: float,
    hi: float,
    *,
    closed_lo: bool = True,
    closed_hi: bool = True,
    sample_lo: Optional[float] = None,
    sample_hi: Optional[float] = None,
    name: Optional[str] = None,
) -> Region:
    """A real interval region; infinite ends get a truncated sampling box.

    Both ends of the sampling box, after the nudge off an open end, must be
    members; otherwise InvalidInputError's message starts with the parameter
    name, ``sample_lo`` or ``sample_hi``, of the end that is not.
    """
    s_lo = sample_lo if sample_lo is not None else (lo if math.isfinite(lo) else -100.0)
    s_hi = sample_hi if sample_hi is not None else (hi if math.isfinite(hi) else 100.0)
    if not closed_lo:
        s_lo = s_lo + min(1e-9, (s_hi - s_lo) * 1e-9)
    if not closed_hi:
        s_hi = s_hi - min(1e-9, (s_hi - s_lo) * 1e-9)

    # one predicate per closedness, chosen here rather than on every call
    if closed_lo and closed_hi:
        def contains(p: Point) -> bool:
            return lo <= p[0] <= hi
    elif closed_lo:
        def contains(p: Point) -> bool:
            return lo <= p[0] < hi
    elif closed_hi:
        def contains(p: Point) -> bool:
            return lo < p[0] <= hi
    else:
        def contains(p: Point) -> bool:
            return lo < p[0] < hi

    _INTERVAL_PREDICATES.add(contains)
    if name is None:
        name = f"{'[' if closed_lo else '('}{lo};{hi}{']' if closed_hi else ')'}"
    for end, value in (("sample_lo", s_lo), ("sample_hi", s_hi)):
        if not contains((value,)):
            raise InvalidInputError(
                f"{end} {value} of the sampling box [{s_lo}, {s_hi}] is not a member of {name}"
            )
    span = s_hi - s_lo

    def draw(rng: random.Random, n: int) -> list[Point]:
        # rng.uniform(s_lo, s_hi), spelled out with the same float operations
        rand = rng.random
        return [(s_lo + span * rand(),) for _ in range(n)]

    return Region(name, contains, draw)


def singleton_region(p: Union[float, Sequence[float]], name: Optional[str] = None) -> Region:
    pt = as_point(p)
    return Region(
        name or f"{{{format_point(pt, 6)}}}",
        lambda q: q == pt,
        lambda rng, n: [pt] * n,
    )


def segment_region(a: Sequence[float], b: Sequence[float], name: Optional[str] = None) -> Region:
    """Closed straight segment between two points of the plane (Euclidean test).

    The projection, the clamp and the distance are unrolled into scalar
    arithmetic.  The test compares the squared distance with
    ``GEOMETRY_TOL_SQUARED``, which is the same verdict as comparing its
    root with ``GEOMETRY_TOL``.
    """
    pa, pb = as_point(a), as_point(b)
    if len(pa) != 2 or len(pb) != 2:
        raise InvalidInputError(f"segment ends must be points of the plane, got {pa}, {pb}")
    o0, o1 = pa
    d0, d1 = pb[0] - o0, pb[1] - o1
    length2 = d0 * d0 + d1 * d1
    if length2 <= 0.0:
        raise InvalidInputError("degenerate segment")

    def contains(p: Point) -> bool:
        c0, c1 = p
        t = ((c0 - o0) * d0 + (c1 - o1) * d1) / length2
        # max(0.0, t) then min(1.0, t), NaN and -0.0 included
        t = t if t > 0.0 else 0.0
        t = t if t < 1.0 else 1.0
        e0, e1 = c0 - (o0 + t * d0), c1 - (o1 + t * d1)
        return e0 * e0 + e1 * e1 <= GEOMETRY_TOL_SQUARED

    def draw(rng: random.Random, n: int) -> list[Point]:
        rand = rng.random
        return [(o0 + t * d0, o1 + t * d1) for t in [rand() for _ in range(n)]]

    return Region(name or "segment", contains, draw)


def circle_region(center: Sequence[float], radius: float, name: Optional[str] = None) -> Region:
    """The circle itself (not the disk) in the plane; a deliberately non-convex region.

    The test is two-sided, so it keeps the root: |r - radius| <= GEOMETRY_TOL.
    """
    c = as_point(center)
    if len(c) != 2:
        raise InvalidInputError(f"circle center must be a point of the plane, got {c}")
    c0, c1 = c

    def contains(p: Point) -> bool:
        p0, p1 = p
        e0, e1 = p0 - c0, p1 - c1
        return abs(math.sqrt(e0 * e0 + e1 * e1) - radius) <= GEOMETRY_TOL

    def draw(rng: random.Random, n: int) -> list[Point]:
        out = []
        for _ in range(n):
            th = rng.uniform(0.0, 2.0 * math.pi)
            out.append((c0 + radius * math.cos(th), c1 + radius * math.sin(th)))
        return out

    return Region(name or f"circle(r={radius})", contains, draw)


def product_region(r1: Region, r2: Region, d1: int) -> Region:
    """Cartesian product of two regions, coordinates concatenated.

    When both factors are one region, a point whose halves are equal tests
    one half once; +0.0 and -0.0 compare equal yet a predicate may tell them
    apart, so halves holding a zero test both.
    """
    if r1 is r2:
        inside = r1.contains

        def contains(p: Point) -> bool:
            left, right = p[:d1], p[d1:]
            if left == right and 0.0 not in left:
                return inside(left)
            return inside(left) and inside(right)
    else:
        def contains(p: Point) -> bool:
            return r1.contains(p[:d1]) and r2.contains(p[d1:])

    return Region(
        f"{r1.name}x{r2.name}",
        contains,
        draw_columns((r1.draw, r2.draw), operator.add),
    )


@dataclass(frozen=True)
class SetPair:
    """Two regions of one space and dist_ab, their author-supplied distance."""

    space: MetricSpace
    a: Region
    b: Region
    dist_ab: float

    def __post_init__(self):
        if self.dist_ab is None:
            raise InvalidInputError("set distance must be supplied")
        if self.dist_ab < 0:
            raise InvalidInputError("set distance cannot be negative")
        if not math.isfinite(self.dist_ab):
            raise InvalidInputError(f"set distance must be finite, got {self.dist_ab}")


def product_space(p1: SetPair, p2: SetPair) -> SetPair:
    """(A1xA2, B1xB2) in the sum-metric product; the distances add."""
    space = compose_spaces(p1.space, p2.space)
    d1 = p1.space.dim
    a = product_region(p1.a, p2.a, d1)
    b = product_region(p1.b, p2.b, d1)
    return SetPair(space, a, b, p1.dist_ab + p2.dist_ab)
