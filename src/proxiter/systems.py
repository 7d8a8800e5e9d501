"""Contraction systems driven by an external set, and their certification.

A system bundles two region maps (one per side of a set pair), two update
maps on an external set C, two penalty functions with supplied infima, an
admissibility relation P on (x, y, u, v) quadruples, and a contraction
constant.  Certification is sample based: verdicts are
"certified-on-samples" or "refuted", never "proved".
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import DomainViolationError, EstimationFailureError, InvalidInputError
from .spaces import Point, SetPair, distance, format_point

#: absolute slack when judging the contraction inequality on samples
RESIDUAL_TOL = 1e-10

#: sampled quadruples whose orbits a campaign probes for P-invariance
INVARIANCE_PROBES = 4

@dataclass(frozen=True)
class Atom:
    """A tagged non-vector member of the external set."""

    label: str

    def __repr__(self):
        return f"@{self.label}"


@dataclass(frozen=True)
class CPair:
    """External element of a product system, one component per factor."""

    left: "CElement"
    right: "CElement"


CElement = Union[Point, Atom, CPair]


def format_celement(c: CElement) -> str:
    if isinstance(c, Atom):
        return f"@{c.label}"
    if isinstance(c, CPair):
        return f"{format_celement(c.left)}&{format_celement(c.right)}"
    return format_point(c)


class Quadruple(NamedTuple):
    x: Point
    y: Point
    u: CElement
    v: CElement


@dataclass(frozen=True)
class ExternalFactor:
    """A penalty function on C and inf_value, its author-supplied infimum.

    A non-finite infimum is accepted, and refutes every certification.
    """

    fn: Callable[[CElement], float]
    inf_value: float

    def __post_init__(self):
        if self.inf_value is None:
            raise InvalidInputError("penalty infimum must be supplied")


@dataclass(frozen=True)
class RelationP:
    """Admissible quadruples, as a predicate plus a deterministic sampler."""

    contains: Callable[[Point, Point, CElement, CElement], bool]
    draw: Callable[[random.Random, int], list[Quadruple]]


class Block(NamedTuple):
    """One certification campaign's samples, checked and evaluated in arrays.

    ``terms`` holds six float64 columns, one entry per sample: rho(x, y),
    f_A(u), f_B(v), rho(T_A, T_B), f_A(H_A) and f_B(H_B), each bit-identical
    to the value the system's own callables give for that sample.  ``ok`` is
    True when every sample is in P, both T outputs are in their regions and
    every point has the space's dimension.  ``row(i)`` is sample i as the
    Quadruple that ``p.draw`` returns in position i.
    """

    terms: tuple
    ok: bool
    row: Callable[[int], Quadruple]


@dataclass(frozen=True)
class BlockKernel:
    """A system's campaign in numpy arrays, bound to the callables it reproduces.

    ``run(rng, n)`` consumes rng exactly as ``p.draw(rng, n)`` does and
    returns a ``Block`` over the same n samples.  ``bound`` holds the pair,
    the relation's two callables, the four maps and both penalty functions
    the kernel was declared with; once any of them is replaced, the kernel
    no longer describes the system and is not used.
    """

    run: Callable[[random.Random, int], Block]
    bound: tuple


@dataclass(frozen=True)
class ExternalFactorSystem:
    """The six maps, the relation P and the constant.

    The external set C has no object: its members are P's u and v, H's outputs.
    Every map must be pure: its output depends on its arguments only.  A
    system whose external update on a side is that side's point map says so
    by passing the same object as T and H; the engine then evaluates it once
    per state and reuses T's output as H's; a run reuses f's value while H
    returns the element it was given.  ``block`` is an optional array kernel
    for certification campaigns; see ``declare_block``.
    """

    name: str
    pair: SetPair
    t_a: Callable[[Point, CElement], Point]
    h_a: Callable[[Point, CElement], CElement]
    t_b: Callable[[Point, CElement], Point]
    h_b: Callable[[Point, CElement], CElement]
    f_a: ExternalFactor
    f_b: ExternalFactor
    p: RelationP
    lam: float
    block: Optional[BlockKernel] = None

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise InvalidInputError(f"contraction constant must be in [0,1), got {self.lam}")

    def in_p(self, q: Quadruple) -> bool:
        return self.p.contains(q.x, q.y, q.u, q.v)


def _block_bound(system: ExternalFactorSystem) -> tuple:
    return (
        system.pair, system.p.draw, system.p.contains, system.t_a, system.h_a,
        system.t_b, system.h_b, system.f_a.fn, system.f_b.fn,
    )


def declare_block(
    system: ExternalFactorSystem, run: Callable[[random.Random, int], Block]
) -> ExternalFactorSystem:
    """The system with ``run`` as its block kernel, bound to its current callables."""
    return dataclasses.replace(system, block=BlockKernel(run, _block_bound(system)))


def live_block(system: ExternalFactorSystem) -> Optional[Callable[[random.Random, int], Block]]:
    """The system's block kernel, or None when it has none or a bound callable was replaced.

    ``dataclasses.replace(system, lam=...)`` keeps the kernel live; replacing
    a map, a penalty, the relation or the pair (as a tracing wrapper does)
    retires it.
    """
    block = system.block
    if block is None:
        return None
    if all(a is b for a, b in zip(block.bound, _block_bound(system))):
        return block.run
    return None


@dataclass(frozen=True)
class SystemConstants:
    """The system's set distance and penalty infima, and their sum S."""

    dist: float
    inf_a: float
    inf_b: float

    @property
    def s(self) -> float:
        return self.dist + self.inf_a + self.inf_b


def resolve_constants(system: ExternalFactorSystem) -> SystemConstants:
    """The distance and both infima that the system supplies."""
    return SystemConstants(system.pair.dist_ab, system.f_a.inf_value, system.f_b.inf_value)


def _orbit(t: Callable, h: Callable, x: Point, u: CElement) -> Iterator[tuple]:
    """Yield (x_1, u_1), (x_2, u_2), ... of x_{n+1} = t(x_n, u_n), u_{n+1} = h(x_n, u_n).

    Endless: check_p_invariance and the tests' reference for PairedRun zip
    it with a range, so no map is called past the budget.  When h is t, each
    step calls t once and its output is also u_{n+1}.
    """
    if h is t:
        while True:
            x = t(x, u)
            u = x
            yield x, u
    while True:
        x_next = t(x, u)
        u_next = h(x, u)
        yield x_next, u_next
        x, u = x_next, u_next


def _one_step(
    system: ExternalFactorSystem, quads, not_member: str
) -> Iterator[tuple[Quadruple, float, float]]:
    """Yield (q, before, after): both sides of the contraction inequality per q.

    before is rho(x, y) + f_A(u) + f_B(v) and after is rho(T_A, T_B) +
    f_A(H_A) + f_B(H_B), summed left to right, so every residual built from
    them is bit-identical however the caller reached q.  Per q, in order: P
    membership (``not_member`` opens the error), T_A, T_B, the T outputs'
    regions, the four points' dimensions, then the sums; a side whose H is
    its T reuses that output.  Every callable is bound once for the whole
    sequence and the metric is called directly; on a dimension mismatch the
    distance() calls run in the sums' order, so the error is the one that
    evaluating the sums through distance() raises.
    """
    p_contains, t_a, t_b = system.p.contains, system.t_a, system.t_b
    h_a = None if system.h_a is t_a else system.h_a
    h_b = None if system.h_b is t_b else system.h_b
    region_a, region_b = system.pair.a, system.pair.b
    a_contains, b_contains = region_a.contains, region_b.contains
    space = system.pair.space
    metric, dim = space.metric, space.dim
    f_a, f_b = system.f_a.fn, system.f_b.fn
    for q in quads:
        if type(q) is not Quadruple:
            q = Quadruple(*q)
        x, y, u, v = q
        if not p_contains(x, y, u, v):
            raise InvalidInputError(f"{not_member}: {q}")
        ta_out = t_a(x, u)
        tb_out = t_b(y, v)
        if not a_contains(ta_out):
            raise DomainViolationError(f"T_A output {ta_out} left region {region_a.name}")
        if not b_contains(tb_out):
            raise DomainViolationError(f"T_B output {tb_out} left region {region_b.name}")
        if len(x) != dim or len(y) != dim or len(ta_out) != dim or len(tb_out) != dim:
            distance(space, x, y)
            f_a(u)
            f_b(v)
            distance(space, ta_out, tb_out)
        before = metric(x, y) + f_a(u) + f_b(v)
        after = metric(ta_out, tb_out)
        after += f_a(ta_out if h_a is None else h_a(x, u))
        after += f_b(tb_out if h_b is None else h_b(y, v))
        yield q, before, after


def contraction_residual(system: ExternalFactorSystem, q: Quadruple) -> float:
    """Right side minus left side of the contraction inequality at q.

    Nonnegative exactly when the inequality holds at q.  The left side maps
    the quadruple forward once through (T_A, H_A) and (T_B, H_B); q must be
    in P and each T output in its region, as in a certification campaign.
    """
    ((_, before, after),) = _one_step(system, (q,), "quadruple not in P")
    return system.lam * before + (1.0 - system.lam) * resolve_constants(system).s - after


def check_p_invariance(
    system: ExternalFactorSystem, q: Quadruple, depth: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Iterate both sides and test every cross pairing (x_n, y_m, u_n, v_m).

    Returns (ok, first_failure) where first_failure is the (n, m) index pair
    of the first cross pairing that left P, or None.
    """
    if depth < 0:
        raise InvalidInputError(f"depth must be >= 0, got {depth}")
    q = Quadruple(*q)
    if not system.in_p(q):
        raise InvalidInputError(f"quadruple not in P: {q}")
    side_a, side_b = [(q.x, q.u)], [(q.y, q.v)]
    orbit_a = _orbit(system.t_a, system.h_a, q.x, q.u)
    orbit_b = _orbit(system.t_b, system.h_b, q.y, q.v)
    for _, a, b in zip(range(depth), orbit_a, orbit_b):
        side_a.append(a)
        side_b.append(b)
    for n in range(depth + 1):
        for m in range(depth + 1):
            (x, u), (y, v) = side_a[n], side_b[m]
            if not system.p.contains(x, y, u, v):
                return False, (n, m)
    return True, None


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a sampling campaign against the contraction conditions."""

    verdict: str  # "certified-on-samples" or "refuted"
    min_residual: float
    samples: int
    seed: int
    lam: float
    s: float
    infima_finite: bool
    p_invariant: bool
    p_depth: int
    reason: str = ""
    witness: Optional[Quadruple] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-on-samples"

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "min_residual": self.min_residual,
            "samples": self.samples,
            "seed": self.seed,
            "lambda": self.lam,
            "s_value": self.s,
            "infima_finite": self.infima_finite,
            "p_invariant": self.p_invariant,
            "p_depth": self.p_depth,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = {
                "x": format_point(self.witness.x),
                "y": format_point(self.witness.y),
                "u": format_celement(self.witness.u),
                "v": format_celement(self.witness.v),
            }
        return out


def verify_contraction(
    system: ExternalFactorSystem,
    samples: int,
    seed: int,
    *,
    depth: int = 8,
) -> CertificationReport:
    """Sample quadruples from P and certify the three contraction conditions.

    The inequality is checked on every sampled quadruple, the infima are
    checked finite, and P-invariance is probed on the first INVARIANCE_PROBES
    quadruples to the given depth.  Each sample tests P once and evaluates
    each map once.
    The first failing condition, in this order, gives the refutation reason:

    - ``infimum-not-finite``: an infimum of f_A or f_B is not finite;
    - ``p-invariance-failed``: a probe left P; the probed quadruple is the
      witness;
    - ``non-finite-residual``: a residual is NaN or infinite; the first such
      quadruple is the witness;
    - ``negative-residual``: a residual is below -RESIDUAL_TOL; the worst
      quadruple is the witness.

    A system with a live block kernel (``live_block``) is checked in numpy
    arrays when numpy imports, with the same report; otherwise, or when a
    sample fails a check, each sample goes through ``_one_step``.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    if depth < 0:
        raise InvalidInputError(f"depth must be >= 0, got {depth}")
    lam = system.lam
    floor = (1.0 - lam) * resolve_constants(system).s
    campaign = _block_campaign(system, samples, seed, lam, floor)
    if campaign is None:
        campaign = _scalar_campaign(system, samples, seed, lam, floor)
    return campaign_report(system, samples, seed, depth, campaign)


def campaign_report(
    system: ExternalFactorSystem,
    samples: int,
    seed: int,
    depth: int,
    campaign: tuple,
) -> CertificationReport:
    """``verify_contraction``'s report from a finished campaign.

    campaign is (min residual, its first quadruple, the first non-finite
    one, the probe quadruples), as ``_scalar_campaign`` returns it; the
    infima, the P-invariance probes and the reason order are judged here.
    """
    min_res, arg_min, non_finite, probed = campaign
    constants = resolve_constants(system)
    infima_finite = math.isfinite(constants.inf_a) and math.isfinite(constants.inf_b)

    p_ok = True
    p_witness: Optional[Quadruple] = None
    for q in probed:
        ok, _ = check_p_invariance(system, Quadruple(*q), depth)
        if not ok:
            p_ok, p_witness = False, Quadruple(*q)
            break

    if not infima_finite:
        verdict, reason, witness = "refuted", "infimum-not-finite", None
    elif not p_ok:
        verdict, reason, witness = "refuted", "p-invariance-failed", p_witness
    elif non_finite is not None:
        verdict, reason, witness = "refuted", "non-finite-residual", non_finite
    elif min_res < -RESIDUAL_TOL:
        verdict, reason, witness = "refuted", "negative-residual", arg_min
    else:
        verdict, reason, witness = "certified-on-samples", "", None

    return CertificationReport(
        verdict=verdict,
        min_residual=min_res,
        samples=samples,
        seed=seed,
        lam=system.lam,
        s=constants.s,
        infima_finite=infima_finite,
        p_invariant=p_ok,
        p_depth=depth,
        reason=reason,
        witness=witness,
    )


def _scalar_campaign(system, samples, seed, lam, floor) -> tuple:
    """(min residual, its first quadruple, first non-finite one, probe quadruples)."""
    quads = system.p.draw(random.Random(seed), samples)
    if not quads:
        raise EstimationFailureError("relation sampler produced no quadruples")
    isfinite = math.isfinite
    min_res = math.inf
    arg_min: Optional[Quadruple] = None
    non_finite: Optional[Quadruple] = None
    for q, before, after in _one_step(
        system, quads, "relation sampler produced a non-member quadruple"
    ):
        res = lam * before + floor - after
        if res < min_res:
            min_res, arg_min = res, q
        if non_finite is None and not isfinite(res):
            non_finite = q
    return min_res, arg_min, non_finite, quads[:INVARIANCE_PROBES]


def _block_campaign(system, samples, seed, lam, floor) -> Optional[tuple]:
    """``_scalar_campaign``'s result from the system's block kernel, bit for bit.

    None, with no error raised, when the system has no live kernel, numpy
    cannot be imported, or any sample fails a check: the scalar campaign
    then runs from a fresh rng and raises the error, if there is one.  The
    sums run left to right elementwise, as in ``_one_step``; only the
    witnesses and the probe samples are built as quadruples.
    """
    run = live_block(system)
    if run is None:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    # float arithmetic in Python makes NaN and infinities silently; so does this
    with np.errstate(all="ignore"):
        block = run(random.Random(seed), samples)
        if not block.ok:
            return None
        rho_xy, f_a_u, f_b_v, rho_t, f_a_h, f_b_h = block.terms
        res = lam * (rho_xy + f_a_u + f_b_v) + floor - (rho_t + f_a_h + f_b_h)
    finite = np.isfinite(res)
    non_finite = None if finite.all() else block.row(int(finite.argmin()))
    # `res < min_res` never takes a NaN, but argmin would stop at the first one
    masked = np.where(np.isnan(res), math.inf, res)
    i = int(masked.argmin())
    min_res = float(masked[i])
    arg_min = block.row(i) if min_res < math.inf else None
    probed = [block.row(k) for k in range(min(samples, INVARIANCE_PROBES))]
    return min_res, arg_min, non_finite, probed
