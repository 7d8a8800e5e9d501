"""Trace-level bound checks, tail sups, and budgeted property falsifiers.

All falsifiers are budgeted searches.  Absence of a counterexample is
evidence, never proof: the checked properties quantify over all sequences
while only finitely many candidates are examined.
"""

from __future__ import annotations

import collections.abc
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError, NumericFailureError
from .iteration import CONFIRM_WINDOW, PairedTrace, _check_tol, _settled
from .spaces import (
    Point,
    Region,
    SetPair,
    _coordinatewise_monotone,
    _interval_predicate,
    _line_cross_sup,
    distance,
    format_point,
)
from .systems import RESIDUAL_TOL, ExternalFactorSystem, resolve_constants


def tail_sup(fn: Callable[[int, int], float], k: int, horizon: int) -> float:
    """Finite-horizon stand-in for the limsup-style tail quantity; NaN raises.

    Values are taken n-major; the result is the first maximal value, as
    ``max`` gives it, and a NaN raises naming the first (n, m) that gave one.
    """
    if k > horizon:
        raise InvalidInputError("empty index window: k exceeds the horizon")
    indices = range(k, horizon + 1)
    best = -math.inf
    for n in indices:
        for m in indices:
            value = fn(n, m)
            if value != value:
                raise NumericFailureError(f"tail value at (n, m) = ({n}, {m}) is NaN")
            if value > best:
                best = value
    return best


def split_limit_validate(
    xs: Sequence[float],
    ys: Sequence[float],
    x_floor: float,
    y_floor: float,
    eps_schedule: Sequence[float],
) -> bool:
    """Check the split-limit conclusion on finite data.

    For each epsilon: once the summed tail stays below x_floor + y_floor +
    epsilon, each sequence's tail must sit within epsilon of its own floor.
    An epsilon whose criterion is never met is vacuously fine.  Every
    comparison allows a slack of 1e-12.  A NaN term, floor or epsilon raises
    NumericFailureError naming it.
    """
    slack = 1e-12
    if len(xs) != len(ys) or not xs:
        raise InvalidInputError("sequences must be nonempty and equally long")
    for j, eps in enumerate(eps_schedule):
        if math.isnan(eps):
            raise NumericFailureError(f"epsilon {j} of the schedule is NaN")
    for name, seq, floor in (("x", xs, x_floor), ("y", ys, y_floor)):
        for i, value in enumerate(seq):
            if math.isnan(value):
                raise NumericFailureError(f"term {i} of the {name} sequence is NaN")
        if math.isnan(floor):
            raise NumericFailureError(f"{name} floor is NaN")
        low = min(seq)
        if floor > low + slack:
            raise InvalidInputError(f"{name} floor {floor} exceeds a term ({low})")
    n = len(xs)
    for eps in eps_schedule:
        target = x_floor + y_floor + eps
        start = None
        for i in range(n - 1, -1, -1):
            if xs[i] + ys[i] <= target + slack:
                start = i
            else:
                break
        if start is None:
            continue  # criterion never met: vacuous
        for i in range(start, n):
            if xs[i] > x_floor + eps + slack or ys[i] > y_floor + eps + slack:
                return False
    return True


def check_l1_bound(paired: PairedTrace, system: ExternalFactorSystem) -> bool:
    """One-sided boundedness check along a paired trace.

    Validates rho(x_n, y_1) + f_A(u_n) <= rho(x_1, y_1) + f_A(u_1)
    + Q/(1-lam) + S at every n >= 1, with Q = rho(y_1, y_2)
    + lam*f_B(v_1) - f_B(v_2), lam the system's constant and S the sum of its
    supplied distance and infima.
    """
    if paired.steps < 2:
        raise InvalidInputError("need at least two steps for the boundedness check")
    lam = system.lam
    s = resolve_constants(system).s
    space = system.pair.space
    y1, y2 = paired.b.points[1], paired.b.points[2]
    q = distance(space, y1, y2) + lam * paired.b.f_values[1] - paired.b.f_values[2]
    rhs = (
        distance(space, paired.a.points[1], y1)
        + paired.a.f_values[1]
        + q / (1.0 - lam)
        + s
    )
    for n in range(1, paired.steps + 1):
        lhs = distance(space, paired.a.points[n], y1) + paired.a.f_values[n]
        if not (lhs <= rhs + RESIDUAL_TOL):
            return False
    return True


@dataclass(frozen=True)
class BoundCertificate:
    """Geometric-decay envelope check over all index pairs of a trace."""

    m: float
    lam: float
    s: float
    first_violation: Optional[tuple[int, int]] = None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def check_l2_bound(paired: PairedTrace, system: ExternalFactorSystem) -> BoundCertificate:
    """Check U(m,n) <= lam^(min(m,n)-1) * M + (1 - lam^(min(m,n)-1)) * S.

    U(m,n) = rho(x_m, y_n) + f_A(u_m) + f_B(v_n); M is the maximum of U over
    the first row and column of the finite trace, indices starting at 1.
    lam is the system's constant, and S the sum of its supplied distance and
    infima.
    The full row-major sweep runs only where ``_envelope_screened`` cannot
    rule a violation out, so it alone names ``first_violation``.
    """
    if paired.steps < 1:
        raise InvalidInputError("need at least one step")
    lam = system.lam
    s = resolve_constants(system).s
    horizon = paired.steps
    space = system.pair.space
    xs, fa = paired.a.points, paired.a.f_values
    ys, fb = paired.b.points, paired.b.f_values
    # U down column 1, then along row 1: the values M is taken over, whose
    # distance() calls check the dimension of every point the other cells use
    column = [distance(space, xs[k], ys[1]) + fa[k] + fb[1] for k in range(1, horizon + 1)]
    row = [distance(space, xs[1], ys[k]) + fa[1] + fb[k] for k in range(1, horizon + 1)]
    m_const = max(max(column), max(row))
    # the envelope depends on min(m, n) only: one limit per k
    limits = [math.nan]
    for k in range(1, horizon + 1):
        decay = lam ** (k - 1)
        limits.append(decay * m_const + (1.0 - decay) * s + RESIDUAL_TOL)
    first = None
    if not _envelope_screened(space.metric, paired, limits, column + row, s):
        first = _first_violation(space.metric, paired, limits)
    return BoundCertificate(m_const, lam, s, first)


def _first_violation(
    metric: Callable[[Point, Point], float], paired: PairedTrace, limits: list[float]
) -> Optional[tuple[int, int]]:
    """The first (m, n) in row-major order whose U exceeds its limit, cell by cell."""
    xs, fa = paired.a.points, paired.a.f_values
    ys, fb = paired.b.points, paired.b.f_values
    horizon = paired.steps
    for mm in range(1, horizon + 1):
        x, f_m, limit_m = xs[mm], fa[mm], limits[mm]
        for nn in range(1, horizon + 1):
            limit = limits[nn] if nn < mm else limit_m
            if not (metric(x, ys[nn]) + f_m + fb[nn] <= limit):
                return (mm, nn)
    return None


def _suffix_ranges(values: Sequence[float]) -> tuple[list[float], list[float]]:
    """(min(values[j:]), max(values[j:])) for every j, as two lists."""
    lo = hi = values[-1]
    lows, highs = [], []
    for value in reversed(values):
        if value < lo:
            lo = value
        elif value > hi:
            hi = value
        lows.append(lo)
        highs.append(hi)
    lows.reverse()
    highs.reverse()
    return lows, highs


def _far_corners(own: Sequence[Point], other: Sequence[Point], shift: int) -> list[Point]:
    """For each j, the corner of other[j + shift:]'s coordinate box farthest from own[j].

    Per coordinate it takes the bound whose rounded difference from own[j]'s
    coordinate is larger in magnitude.
    """
    columns = []
    for mine, theirs in zip(zip(*own), zip(*other)):
        lows, highs = _suffix_ranges(theirs[shift:])
        columns.append(
            [lo if c - lo >= hi - c else hi for c, lo, hi in zip(mine, lows, highs)]
        )
    return list(zip(*columns))


def _envelope_screened(
    metric: Callable[[Point, Point], float],
    paired: PairedTrace,
    limits: list[float],
    edge: list[float],
    s: float,
) -> bool:
    """True when no cell can exceed its limit; False leaves it to the sweep.

    The cells split into row 1 and column 1, whose values ``edge`` holds,
    the upper part of each row m >= 2 (n >= m, limit limits[m]) and the
    lower part of each column n >= 2 (m > n, limit limits[n]).  A part is
    bounded by one metric call from its own point to the far corner of the
    other side's coordinate box over the part, plus its own penalty and the
    other side's largest penalty there, added in the sweep's order.

    The metrics ``_coordinatewise_monotone`` accepts are NaN or infinite
    wherever a coordinate is, so finite edge values mean every coordinate
    and penalty is finite (each index meets row 1 or column 1).  Each cell
    is then a composition of monotone rounded operations (subtraction,
    ``abs``, ``e * e``, addition, ``sqrt``) that meets no NaN, so the bound
    is at least every cell it covers.  A part whose bound exceeds its
    limit, any other metric, a non-finite edge value or a non-finite S is
    left to the sweep.
    """
    if not _coordinatewise_monotone(metric):
        return False
    if not (math.isfinite(s) and all(map(math.isfinite, edge))):
        return False
    if not all(value <= limits[1] for value in edge):
        return False
    horizon = paired.steps
    if horizon == 1:
        return True  # the edge is the whole grid
    # indices 1..horizon, 0-based from here on
    end = horizon + 1
    xs, fa = paired.a.points[1:end], paired.a.f_values[1:end]
    ys, fb = paired.b.points[1:end], paired.b.f_values[1:end]
    # row j + 1 meets y_{j+1}.. and column j + 1 meets x_{j+2}.. (0-based j)
    row_corners, fb_max = _far_corners(xs, ys, 0), _suffix_ranges(fb)[1]
    column_corners, fa_max = _far_corners(ys, xs, 1), _suffix_ranges(fa[1:])[1]
    for j in range(1, horizon):
        # both parts of index j + 1 share its limit
        x, f_x, limit = xs[j], fa[j], limits[j + 1]
        if not (metric(x, row_corners[j]) + f_x + fb_max[j] <= limit):
            return False
        if j + 1 == horizon:
            break
        if not (metric(column_corners[j], ys[j]) + fa_max[j] + fb[j] <= limit):
            return False
    return True


def _aitken_limit(points: Sequence[Point]) -> Point:
    """Per-coordinate Aitken extrapolation of the last three points.

    Exact on geometric tails; falls back to the final value where the second
    difference degenerates.  Coordinates are snapped to 12 decimal places so
    that membership tests see the intended limit rather than float fuzz.
    """
    p0, p1, p2 = points[-3], points[-2], points[-1]
    out = []
    for a, b, c in zip(p0, p1, p2):
        denom = c - 2.0 * b + a
        if denom == 0.0 or not math.isfinite(denom):
            out.append(c)
            continue
        step = c - b
        val = c - step * step / denom
        out.append(val if math.isfinite(val) else c)
    return tuple(round(v, 12) for v in out)


class GeometricTerms(collections.abc.Sequence):
    """A falsifier candidate of 80 points, each computed when read.

    Term n is ``(target + sign * (floor if floor > v else v),)`` with
    ``v = c * ratio ** n``, so a NaN v is kept.  Indexing takes negative
    indices, and a slice gives a tuple of points.  ``_intake`` may admit
    the sequence from its two hull ends without computing the rest.
    """

    __slots__ = ("target", "c", "ratio", "sign", "floor")

    def __init__(self, target: float, c: float, ratio: float, sign: float, floor: float):
        self.target, self.c, self.ratio, self.sign, self.floor = target, c, ratio, sign, floor

    def __len__(self) -> int:
        return 80

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._term, range(*index.indices(80))))
        n = operator.index(index)
        if n < 0:
            n += 80
        if not 0 <= n < 80:
            raise IndexError("candidate term index out of range")
        return self._term(n)

    def _term(self, n: int) -> Point:
        v = self.c * self.ratio ** n
        floor = self.floor
        return (self.target + self.sign * (floor if floor > v else v),)

    def _admitted_on(self, region: Region) -> bool:
        """Whether every term is a member of an interval() region, judged from two hull ends.

        With c >= 0, 0 <= ratio <= 1 and target, c, sign and floor finite,
        ``ratio ** n`` is in [0, 1] for a pow that errs by under one ulp, so
        each term's v is between c * 0 and c * 1 = c.  Rounded
        multiplication, ``max``, multiplication by a finite sign and
        addition are each monotone, so every term lies between the target
        moved by max(floor, 0) and term 0, and an interval holds every point
        between two members.  Anything else is False, left to the point by
        point check.
        """
        target, c, ratio, sign, floor = self.target, self.c, self.ratio, self.sign, self.floor
        if not (_interval_predicate(region.contains) and 0.0 <= c < math.inf
                and 0.0 <= ratio <= 1.0 and math.isfinite(target)
                and math.isfinite(sign) and math.isfinite(floor)):
            return False
        low = (target + sign * (floor if floor > 0.0 else 0.0),)
        return region.contains(low) and region.contains(self._term(0))


def _intake(candidate: Sequence, regions: Sequence[Region]) -> tuple[Sequence[Point], ...]:
    """A generated candidate, each sequence at least 2 terms long and in its region.

    GeometricTerms admitted on its region from its hull ends is kept as it
    is, its terms uncomputed; any other sequence is copied to point tuples
    and checked point by point.
    """
    seqs = tuple(
        seq
        if isinstance(seq, GeometricTerms) and i < len(regions) and seq._admitted_on(regions[i])
        else tuple(map(tuple, seq))
        for i, seq in enumerate(candidate)
    )
    if min(len(seq) for seq in seqs) < 2:
        raise InvalidInputError("candidate sequences must have at least 2 terms")
    for seq, region in zip(seqs, regions):
        if isinstance(seq, GeometricTerms):
            continue
        if not all(map(region.contains, seq)):
            p = next(p for p in seq if not region.contains(p))
            raise InvalidInputError(f"generator produced {p} outside region {region.name}")
    return seqs


@dataclass(frozen=True)
class CDCounterexample:
    """An admissible pair whose first sequence fails to converge in A."""

    index: int
    xs: tuple[Point, ...]
    ys: tuple[Point, ...]
    reason: str  # "no-cauchy-window" or "limit-escapes-region"
    limit_estimate: Optional[Point]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "reason": self.reason,
            "limit_estimate": None
            if self.limit_estimate is None
            else format_point(self.limit_estimate),
            "xs": [format_point(p) for p in self.xs],
            "ys": [format_point(p) for p in self.ys],
        }


def cd_falsify(
    pair: SetPair,
    gen: Callable[[int], tuple[Sequence[Point], Sequence[Point]]],
    budget: int,
    tol: float,
) -> Optional[CDCounterexample]:
    """Search for an admissible pair of sequences refuting convergence in A.

    A candidate is admissible when the tail sup of the cross distances sits
    within tol of dist(A,B).  "Converges in A" means: confirmation window met
    and the extrapolated limit is a member of A, so completeness failures
    surface as escaping limits.  Returns the first counterexample, else None.
    """
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    _check_tol(tol)
    dist = pair.dist_ab
    space = pair.space
    for i in range(budget):
        xs, ys = _intake(gen(i), (pair.a, pair.b))
        horizon = min(len(xs), len(ys)) - 1
        k_tail = max(0, horizon - CONFIRM_WINDOW)
        # every later read is of x_{k_tail}.. or the window of y: the last
        # CONFIRM_WINDOW + 1 points of xs are in this tail
        tail = xs[k_tail:]
        window_x, window_y = tail[: horizon + 1 - k_tail], ys[k_tail : horizon + 1]
        # the one-pass sup needs every window point to have the space's
        # dimension; otherwise distance() raises its usual error
        sup = None
        if all(len(p) == space.dim for p in (*window_x, *window_y)):
            sup = _line_cross_sup(space, window_x, window_y)
        if sup is None:
            sup = tail_sup(
                lambda n, m: distance(space, window_x[n - k_tail], window_y[m - k_tail]),
                k_tail,
                horizon,
            )
        if abs(sup - dist) > tol:
            continue  # cross distances never reach the pair gap: not admissible
        if not _settled(pair.space, tail, tol):
            return CDCounterexample(i, tuple(xs), tuple(ys), "no-cauchy-window", None)
        limit = _aitken_limit(tail) if len(xs) >= 3 else tail[-1]
        if not pair.a.contains(limit):
            return CDCounterexample(i, tuple(xs), tuple(ys), "limit-escapes-region", limit)
    return None


@dataclass(frozen=True)
class UCCounterexample:
    """Two first-set sequences that approach B in distance yet stay apart."""

    index: int
    xs: tuple[Point, ...]
    zs: tuple[Point, ...]
    ys: tuple[Point, ...]
    tail_separation: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "tail_separation": self.tail_separation,
            "xs": [format_point(p) for p in self.xs],
            "zs": [format_point(p) for p in self.zs],
            "ys": [format_point(p) for p in self.ys],
        }


def uc_falsify(
    pair: SetPair,
    gen: Callable[[int], tuple[Sequence[Point], Sequence[Point], Sequence[Point]]],
    budget: int,
    tol: float,
) -> Optional[UCCounterexample]:
    """Search for admissible triples refuting the collapse property.

    Admissible: rho(x_n, y_n) and rho(z_n, y_n) both reach dist(A,B) within
    tol at the tail.  A counterexample keeps rho(x_n, z_n) above 10*tol
    through the whole trailing window.  A NaN distance raises, naming the
    candidate index.
    """
    if budget < 1:
        raise InvalidInputError("budget must be >= 1")
    _check_tol(tol)
    dist = pair.dist_ab
    space = pair.space
    metric, dim = space.metric, space.dim

    def rho(i: int, p: Point, q: Point) -> float:
        # distance() only to raise its dimension error
        value = metric(p, q) if len(p) == dim == len(q) else distance(space, p, q)
        if math.isnan(value):
            raise NumericFailureError(f"candidate {i}: distance from {p} to {q} is NaN")
        return value

    for i in range(budget):
        xs, zs, ys = _intake(gen(i), (pair.a, pair.a, pair.b))
        n = min(len(xs), len(zs), len(ys))
        y = ys[n - 1]
        if abs(rho(i, xs[n - 1], y) - dist) > tol:
            continue
        if abs(rho(i, zs[n - 1], y) - dist) > tol:
            continue
        sep = min(rho(i, xs[j], zs[j]) for j in range(n - min(CONFIRM_WINDOW, n), n))
        if sep > 10.0 * tol:
            return UCCounterexample(i, tuple(xs), tuple(zs), tuple(ys), sep)
    return None
