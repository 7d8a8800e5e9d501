"""Built-in systems, set pairs, cyclic triples, and the instance registry.

Example 1 is a half-line system whose first-side map either doubles a point
or quarters its dyadic remainder, depending on the parity of floor(log2 x);
its penalties vanish exactly on the even-parity bands.  The other built-ins
are a degenerate single-region family, sum-metric products, and three-set
cyclic triples solved through a product-space reduction.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidInputError, ProxiterError, RefutedError
from .iteration import PairedTrace, run_paired
from .spaces import (
    MetricSpace,
    Point,
    Region,
    SetPair,
    as_point,
    circle_region,
    compose_spaces,
    draw_columns,
    format_point,
    interval,
    product_region,
    product_space,
    real_line,
    sample_region,
    singleton_region,
    segment_region,
    vector_space,
)
from .systems import (
    INVARIANCE_PROBES,
    RESIDUAL_TOL,
    Atom,
    Block,
    CElement,
    CertificationReport,
    CPair,
    ExternalFactor,
    ExternalFactorSystem,
    Quadruple,
    RelationP,
    campaign_report,
    declare_block,
    live_block,
    resolve_constants,
    verify_contraction,
)


# ---------------------------------------------------------------------------
# example 1: half-line system with dyadic-parity penalties


def floor_log2(x: float) -> int:
    """Exact floor(log2 x) for positive floats via the binary exponent."""
    if x <= 0:
        raise InvalidInputError("floor_log2 needs a positive argument")
    mantissa, exp = math.frexp(x)  # x = mantissa * 2**exp, mantissa in [0.5, 1)
    return exp - 1


def pow2_floor(x: float) -> float:
    """Largest power of two not exceeding x; 0 by convention at x = 0."""
    if x == 0:
        return 0.0
    return math.ldexp(1.0, floor_log2(x))


def alpha_parity(x: float) -> int:
    """Euclidean mod-2 parity of floor(log2 x); 0 at x = 0."""
    if x < 0:
        raise InvalidInputError("alpha_parity needs a nonnegative argument")
    if x == 0:
        return 0
    return (math.frexp(x)[1] - 1) % 2  # floor_log2(x) % 2, inlined on the hot path


def example1_T(x: float) -> float:
    """First-side point map: doubles on odd bands, quarters the remainder on even."""
    if x < 0:
        raise InvalidInputError("example1_T needs a nonnegative argument")
    # alpha_parity(x) and pow2_floor(x) without their zero case: at x = +-0
    # the parity 1 and band 0.5 that frexp's exponent gives return x's zero
    e = math.frexp(x)[1] - 1  # floor_log2(x)
    a, band = e % 2, math.ldexp(1.0, e)
    return 2.0 * x * a + 0.25 * (x - band) * (1 - a)


def example1_Tb(y: float) -> float:
    """Second-side point map; contracts the gap below -1 by 1/8 or doubles it."""
    g = y + 1.0
    return g / 8.0 + (15.0 / 8.0) * g * alpha_parity(-g) - 1.0


#: the point maps (and the parity they use) that _example1_block reproduces
_EXAMPLE1_POINT_MAPS = (example1_T, example1_Tb, alpha_parity)


def _example1_fa_point(p: Point) -> float:
    # alpha_parity(c) inlined without its zero case: at c = +-0 the product
    # is +-0 whichever parity frexp's exponent gives (likewise in f_B)
    c = p[0]
    if c >= 0:
        return 4.0 * c * ((math.frexp(c)[1] - 1) % 2)
    if c <= -1:
        return 0.0
    raise InvalidInputError(f"{c} is outside the external set")


def _example1_fb_point(p: Point) -> float:
    c = p[0]
    if c >= 0:
        return 0.0
    if c <= -1:
        return -4.0 * (c + 1.0) * ((math.frexp(-c - 1.0)[1] - 1) % 2)
    raise InvalidInputError(f"{c} is outside the external set")


def example1_fa(c: float) -> float:
    return _example1_fa_point((c,))


def example1_fb(c: float) -> float:
    return _example1_fb_point((c,))


#: each thread's numpy generator for _uniforms, built on the thread's first draw
_DRAWS = threading.local()


def _uniforms(rng: random.Random, m: int):
    """The next m ``rng.random()`` values as a float64 array; rng ends where m calls leave it.

    A plain ``random.Random`` is drawn in C: numpy's MT19937 runs CPython's
    Mersenne Twister, so it is loaded with rng's key and position, and
    ``Generator.random`` forms each double from two 32-bit words as
    ``random()`` does, ``((a >> 5) * 67108864.0 + (b >> 6)) / 2**53``.  The
    advanced key and position are written back, keeping rng's version and
    ``gauss_next``.  Each thread keeps one generator, built on its first
    draw; every call loads the whole key and position it draws from, so no
    state carries from one call to the next and threads share nothing.  Any
    other rng, such as a subclass that overrides ``random()``, is called
    once per draw.
    """
    import numpy as np

    if type(rng) is not random.Random:
        return np.fromiter(iter(rng.random, None), np.float64, m)
    version, internal, gauss_next = rng.getstate()
    gen = getattr(_DRAWS, "generator", None)
    if gen is None:
        gen = _DRAWS.generator = np.random.Generator(np.random.MT19937())
    bits = gen.bit_generator
    key, pos = internal[:-1], internal[-1]
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    out = gen.random(m)
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return out


def _parity(exp):
    """alpha_parity without its zero case from ``np.frexp``'s exponents: ``(exp - 1) % 2``.

    Returns a float64 column of 0.0 and 1.0; exp is overwritten.  On the
    two's-complement int exponents ``& 1`` is Python's ``% 2``, negative
    ones included.
    """
    exp -= 1
    exp &= 1
    return exp.astype(float)


def _example1_block(rng: random.Random, n: int) -> Block:
    """example1_system's campaign over n samples in arrays, bit for bit.

    The rows are p_draw's: 2n ``rng.random()`` values in p_draw's order,
    mapped with its float operations.  Each map and penalty is its scalar
    formula elementwise in the same operation order, with ``np.frexp`` for
    the binary exponent, ``_parity`` for its parity and ``np.ldexp`` for the
    band.  The penalties take the branch that rows in P and in-region T
    outputs reach: f_A's on [0, inf), f_B's on (-inf, -1].  f_A(x) shares
    T_A(x)'s exponents and f_B(y) shares T_B(y)'s: -y - 1.0 and -(y + 1.0)
    round alike, and frexp gives +0.0 and -0.0 the same exponent.  Each map
    runs in its own function, so its temporaries are freed before the next
    one starts, and the T outputs are dropped once their terms are made:
    the peak stays near the arrays the block returns.
    """
    import numpy as np

    def t_a(x):  # example1_T, and f_a(x)
        mantissa, exp = np.frexp(x)
        band = np.ldexp(0.5, exp, out=mantissa)  # pow2_floor(x), 2**(exp - 1)
        a = _parity(exp)
        return 2.0 * x * a + 0.25 * (x - band) * (1.0 - a), 4.0 * x * a

    def t_b(y):  # example1_Tb, and f_b(y)
        g = y + 1.0
        parity = _parity(np.frexp(-g)[1])
        return g / 8.0 + (15.0 / 8.0) * g * parity - 1.0, -4.0 * g * parity

    def f_a(c):
        return 4.0 * c * _parity(np.frexp(c)[1])

    def f_b(c):
        return -4.0 * (c + 1.0) * _parity(np.frexp(-c - 1.0)[1])

    r = _uniforms(rng, 2 * n)
    xs = 0.0 + 100.0 * r[0::2]
    ys = -100.0 + 99.0 * r[1::2]
    del r
    (ta, fa_x), (tb, fb_y) = t_a(xs), t_b(ys)
    # P is x in [0, inf) and y in (-inf, -1] (u and v mirror them by
    # construction); T_A and T_B outputs must stay in those regions
    ok = bool(((xs >= 0.0) & (ta >= 0.0) & (ys <= -1.0) & (tb <= -1.0)).all())
    after = (np.abs(ta - tb), f_a(ta), f_b(tb))
    del ta, tb
    terms = (np.abs(xs - ys), fa_x, fb_y) + after

    def row(i: int) -> Quadruple:
        x, y = (float(xs[i]),), (float(ys[i]),)
        return Quadruple(x, y, x, y)

    return Block(terms, ok, row)


def example1_pair() -> SetPair:
    a = interval(0.0, math.inf, sample_hi=100.0, name="[0,inf)")
    b = interval(-math.inf, -1.0, sample_lo=-100.0, name="(-inf,-1]")
    return SetPair(real_line(), a, b, dist_ab=1.0)


def example1_system() -> ExternalFactorSystem:
    """Half-line system: both external sequences mirror the point iterates."""
    pair = example1_pair()

    def t_a(x: Point, c: CElement) -> Point:
        return (example1_T(x[0]),)

    def t_b(y: Point, c: CElement) -> Point:
        return (example1_Tb(y[0]),)

    a_contains, b_contains = pair.a.contains, pair.b.contains

    def p_contains(x: Point, y: Point, u: CElement, v: CElement) -> bool:
        return a_contains(x) and b_contains(y) and u == x and v == y

    def p_draw(rng: random.Random, n: int) -> list[Quadruple]:
        """The scalar twin of ``_example1_block``, which draws this stream in arrays.

        A campaign runs it without numpy (the numpy-less CI leg covers it) or
        once a wrapper has replaced a callable that the block is bound to.
        """
        # rng.uniform(a, b) spelled out as a + (b - a) * rng.random()
        rand = rng.random
        out = []
        for _ in range(n):
            x = (0.0 + 100.0 * rand(),)
            y = (-100.0 + 99.0 * rand(),)
            out.append(Quadruple(x, y, x, y))
        return out

    system = ExternalFactorSystem(
        name="e1",
        pair=pair,
        t_a=t_a,
        h_a=t_a,
        t_b=t_b,
        h_b=t_b,
        f_a=ExternalFactor(_example1_fa_point, 0.0),
        f_b=ExternalFactor(_example1_fb_point, 0.0),
        p=RelationP(p_contains, p_draw),
        lam=5.0 / 8.0,
    )
    # t_a and t_b call the module's point maps by name; with a stand-in in
    # their place (a counting double, say) the block would not reproduce them
    if (example1_T, example1_Tb, alpha_parity) != _EXAMPLE1_POINT_MAPS:
        return system
    return declare_block(system, _example1_block)


# ---------------------------------------------------------------------------
# degenerate single-region systems


#: the one member of a single-atom system's external set
UNIT_ATOM = Atom("unit")


def _atom_quadruple(x: Point, y: Point) -> Quadruple:
    return Quadruple(x, y, UNIT_ATOM, UNIT_ATOM)


def _single_atom_system(
    name: str, pair: SetPair, t_a: Callable, t_b: Callable, lam: float, inf_a: float, inf_b: float
) -> ExternalFactorSystem:
    """One-atom external set, zero penalties with the given infima, membership-product P."""
    atom = UNIT_ATOM
    region_a, region_b = pair.a, pair.b

    def p_contains(x: Point, y: Point, u: CElement, v: CElement) -> bool:
        return region_a.contains(x) and region_b.contains(y) and u == atom and v == atom

    return ExternalFactorSystem(
        name=name,
        pair=pair,
        t_a=t_a,
        h_a=lambda x, c: atom,
        t_b=t_b,
        h_b=lambda y, c: atom,
        f_a=ExternalFactor(lambda c: 0.0, inf_a),
        f_b=ExternalFactor(lambda c: 0.0, inf_b),
        p=RelationP(p_contains, draw_columns((region_a.draw, region_b.draw), _atom_quadruple)),
        lam=lam,
    )


def banach_system(
    map_fn: Callable[[Point], Point],
    space: MetricSpace,
    region: Region,
    lipschitz: float,
    *,
    name: str = "banach",
) -> ExternalFactorSystem:
    """Single-region single-map system with a trivial external set.

    Both sides share the region and the map, the penalties vanish, and the
    contraction inequality collapses to the classical displacement bound.
    The declared constant is taken as given and the map is not called:
    ``verify_contraction`` refutes a false one (``negative-residual``).
    """
    if not (0.0 <= lipschitz < 1.0):
        raise InvalidInputError("lipschitz constant must be in [0,1)")
    pair = SetPair(space, region, region, dist_ab=0.0)
    t = lambda x, c: map_fn(x)  # noqa: E731
    return _single_atom_system(name, pair, t, t, lipschitz, 0.0, 0.0)


def _whole_line_region() -> Region:
    return interval(-math.inf, math.inf, name="R")


def _line_banach_system(g: Callable, name: str) -> ExternalFactorSystem:
    """banach_system for the float map g on the whole line, constant 1/2, with a block kernel.

    g is written once and must give the same bits on a float and on each
    entry of a float64 array: the scalar map is ``(g(x[0]),)`` and the
    block applies g to the whole column.
    """
    system = banach_system(
        lambda x: (g(x[0]),), real_line(), _whole_line_region(), 0.5, name=name
    )

    def block(rng: random.Random, n: int) -> Block:
        # p.draw's rows: n x values, then n y values, each the whole line's
        # draw -100.0 + 200.0 * r; u and v are the atom, both penalties 0.0
        import numpy as np

        r = _uniforms(rng, 2 * n)
        xs, ys = -100.0 + 200.0 * r[:n], -100.0 + 200.0 * r[n:]
        del r
        tx, ty = g(xs), g(ys)
        # the whole line holds every point but NaN, and every point has dimension 1
        ok = not bool((np.isnan(xs) | np.isnan(ys) | np.isnan(tx) | np.isnan(ty)).any())
        rho_t = np.abs(tx - ty)
        del tx, ty
        # separate zero columns: a product's block adds into factor 1's in place
        terms = (np.abs(xs - ys), np.zeros(n), np.zeros(n), rho_t, np.zeros(n), np.zeros(n))

        def row(i: int) -> Quadruple:
            return _atom_quadruple((float(xs[i]),), (float(ys[i]),))

        return Block(terms, ok, row)

    return declare_block(system, block)


def _half(x):
    return x / 2.0


def _half_toward_4(x):
    return (x + 4.0) / 2.0


def banach_half_system() -> ExternalFactorSystem:
    return _line_banach_system(_half, "banach-half")


def banach_affine_system() -> ExternalFactorSystem:
    return _line_banach_system(_half_toward_4, "banach-affine")


# ---------------------------------------------------------------------------
# sum-metric product composition


def product_system(
    s1: ExternalFactorSystem, s2: ExternalFactorSystem
) -> ExternalFactorSystem:
    """Component-wise composition on the sum-metric product pair.

    Penalty values add, the relation is the component conjunction, and the
    composed constant is the larger of the two: each component inequality
    still holds at it because the one-step value never drops below the floor.
    Callers are expected to pass systems that individually certify.  When
    both factors have a live block kernel, so does the product.
    """
    d1 = s1.pair.space.dim
    pair = product_space(s1.pair, s2.pair)

    def need_pair(c: CElement) -> CPair:
        if not isinstance(c, CPair):
            raise InvalidInputError("product external elements must be component pairs")
        return c

    # each factor's map runs on its own component; points join with +, C elements as CPair
    def lift(m1: Callable, m2: Callable, join: Callable) -> Callable:
        def lifted(p: Point, c: CElement):
            cp = need_pair(c)
            return join(m1(p[:d1], cp.left), m2(p[d1:], cp.right))

        return lifted

    def sum_factor(g1: ExternalFactor, g2: ExternalFactor) -> ExternalFactor:
        def fn(c: CElement) -> float:
            cp = need_pair(c)
            return g1.fn(cp.left) + g2.fn(cp.right)

        return ExternalFactor(fn, g1.inf_value + g2.inf_value)

    def p_contains(x: Point, y: Point, u: CElement, v: CElement) -> bool:
        if not isinstance(u, CPair) or not isinstance(v, CPair):
            return False
        return s1.p.contains(x[:d1], y[:d1], u.left, v.left) and s2.p.contains(
            x[d1:], y[d1:], u.right, v.right
        )

    def p_row(q1: Quadruple, q2: Quadruple) -> Quadruple:
        return Quadruple(q1.x + q2.x, q1.y + q2.y, CPair(q1.u, q2.u), CPair(q1.v, q2.v))

    system = ExternalFactorSystem(
        name=f"{s1.name}x{s2.name}",
        pair=pair,
        t_a=lift(s1.t_a, s2.t_a, operator.add),
        h_a=lift(s1.h_a, s2.h_a, CPair),
        t_b=lift(s1.t_b, s2.t_b, operator.add),
        h_b=lift(s1.h_b, s2.h_b, CPair),
        f_a=sum_factor(s1.f_a, s2.f_a),
        f_b=sum_factor(s1.f_b, s2.f_b),
        p=RelationP(p_contains, draw_columns((s1.p.draw, s2.p.draw), p_row)),
        lam=max(s1.lam, s2.lam),
    )
    run1, run2 = live_block(s1), live_block(s2)
    if run1 is None or run2 is None:
        return system

    def block(rng: random.Random, n: int) -> Block:
        # draw_columns' order: factor 1's samples, then factor 2's; each term
        # adds the factors' values, as the sum metric and sum_factor do
        b1, b2 = run1(rng, n), run2(rng, n)
        for t1, t2 in zip(b1.terms, b2.terms):
            t1 += t2  # factor 1's columns are this call's own; factor 2's are freed
        row1, row2 = b1.row, b2.row
        return Block(b1.terms, b1.ok and b2.ok, lambda i: p_row(row1(i), row2(i)))

    return declare_block(system, block)


def example1_product_system() -> ExternalFactorSystem:
    return product_system(example1_system(), example1_system())


# ---------------------------------------------------------------------------
# three-set cyclic triples and their product-space reduction


@dataclass(frozen=True)
class CyclicTriple:
    """Three regions cycled by one map, with a summed contraction constant.

    dists holds the exact pairwise set distances (d12, d23, d31).
    """

    space: MetricSpace
    regions: tuple[Region, Region, Region]
    t: Callable[[Point], Point]
    k: float
    dists: tuple[float, float, float]

    @functools.cached_property
    def d_total(self) -> float:
        """d12 + d23 + d31, summed once per triple object."""
        return sum(self.dists)


def _summed_residual(d, k, floor, x1, x2, x3, tx1, tx2, tx3) -> tuple:
    """(residual, sides) at one triple.

    residual is k times the perimeter of x1, x2, x3, plus floor, minus the
    perimeter of their images; sides are d(x1, x2), d(x2, x3), d(x3, x1).
    """
    sides = d12, d23, d31 = d(x1, x2), d(x2, x3), d(x3, x1)
    image = d(tx1, tx2) + d(tx2, tx3) + d(tx3, tx1)
    return k * (d12 + d23 + d31) + floor - image, sides


def cyclic_residual(ct: CyclicTriple, x1: Point, x2: Point, x3: Point) -> float:
    """Slack of the summed contraction inequality at one triple (>= 0 iff it holds)."""
    floor = (1.0 - ct.k) * ct.d_total
    t = ct.t
    return _summed_residual(ct.space.metric, ct.k, floor, x1, x2, x3, t(x1), t(x2), t(x3))[0]


def certify_cyclic(
    ct: CyclicTriple, samples: int = 2000, seed: int = 0
) -> tuple[float, Optional[tuple[Point, Point, Point]]]:
    """Minimum sampled residual and the worst triple.

    The first NaN or infinite residual is returned at once with its triple,
    so that ``cyclic_refuted`` refuses it.  A run of triples holding the
    same point objects is mapped once (see ``_cyclic_campaign``).
    """
    worst, arg, _ = _cyclic_campaign(ct, samples, seed, None)
    return worst, arg


def _cyclic_campaign(ct: CyclicTriple, samples: int, seed: int, reduction) -> tuple:
    """(worst, arg, campaign) from one draw of triples.

    worst and arg are ``certify_cyclic``'s minimum and triple.  reduction is
    None, or the system ``cyclic3_reduce(ct)``.  With a
    reduction, each triple (g, b, c) is also the sample
    ``_reduction_quadruple(g, b, c)``: its T^3 outputs continue the images
    T(g), T(b), T(c) that the triple's residual took, so a sample makes 9 map
    calls.  The sample's distances are those of the halves: before is
    d(g, b) + d(g, c) + f_A + d(b, c), over the triple's own sides (a metric
    is symmetric, and each built-in one gives d(c, g) the bits of d(g, c)),
    and after is d(ga, gb) + d(ga, gc) + f_A + d(gb, gc) over the T^3
    outputs, in ``_one_step``'s order.  campaign is then
    ``_scalar_campaign``'s tuple for ``verify_contraction(system, samples,
    seed)``, bit for bit.  It is None without a reduction, or once a
    reduction sample fails a check or raises; the triple's own errors raise.

    A triple whose three points are the previous triple's objects (``is``,
    not ``==``: +0.0 and -0.0 compare equal yet may map apart) is not
    evaluated again: pure maps and metrics repeat its values, which move no
    strict minimum.  It is still a probe while fewer than INVARIANCE_PROBES
    are held.  So a singleton triple, drawn ``[pt] * n``, makes 9 map calls.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    t, d, k = ct.t, ct.space.metric, ct.k
    floor = (1.0 - k) * ct.d_total
    isfinite = math.isfinite
    worst = math.inf
    arg = None
    live = reduction is not None
    if live:
        p_contains = reduction.p.contains
        a_contains, b_contains = reduction.pair.a.contains, reduction.pair.b.contains
        # each half of a sample has the triple's dimension, so the product
        # metric's terms are the halves' distances; a sample whose halves
        # split otherwise goes to the generic campaign
        dim = ct.space.dim
        # u and H_A(x, u) are ONE_ATOM in every sample, so both f_A terms are this
        f_a_one = reduction.f_a.fn(ONE_ATOM)
        lam = reduction.lam
        r_floor = (1.0 - lam) * resolve_constants(reduction).s
        min_res = math.inf
        arg_min = non_finite = None
        probed = []
    draw = draw_columns([region.draw for region in ct.regions], lambda *xs: xs)
    g0 = b0 = c0 = object()  # no drawn point is this object
    for g, b, c in draw(random.Random(seed), samples):
        if g is g0 and b is b0 and c is c0:
            if live and len(probed) < INVARIANCE_PROBES:
                probed.append(_reduction_quadruple(g, b, c))
            continue
        g0, b0, c0 = g, b, c
        tg, tb, tc = t(g), t(b), t(c)
        r, sides = _summed_residual(d, k, floor, g, b, c, tg, tb, tc)
        if not isfinite(r):
            return r, (g, b, c), None
        if r < worst:
            worst, arg = r, (g, b, c)
        if not live:
            continue
        # _reduction_quadruple's points; the quadruple itself is built only
        # for a witness or a probe
        x, y = g + g, b + c
        try:
            # the reduction's T at a diagonal point maps its one half
            ga, gb, gc = t(t(tg)), t(t(tb)), t(t(tc))
            ta_out, tb_out = ga + ga, gb + gc
            live = (
                p_contains(x, y, ONE_ATOM, y)
                and a_contains(ta_out)
                and b_contains(tb_out)
                and len(g) == len(b) == len(c) == len(ga) == len(gb) == len(gc) == dim
            )
            if not live:
                continue
            d_g_b, d_b_c, d_c_g = sides
            before = d_g_b + d_c_g + f_a_one + d_b_c
            after = d(ga, gb) + d(ga, gc) + f_a_one + d(gb, gc)
        except ProxiterError:
            # verify_cyclic's generic campaign raises it, after the triple's verdict
            live = False
            continue
        res = lam * before + r_floor - after
        if res < min_res:
            min_res, arg_min = res, _reduction_quadruple(g, b, c)
        if non_finite is None and not isfinite(res):
            non_finite = _reduction_quadruple(g, b, c)
        if len(probed) < INVARIANCE_PROBES:
            probed.append(_reduction_quadruple(g, b, c))
    if not live:
        return worst, arg, None
    return worst, arg, (min_res, arg_min, non_finite, probed)


def verify_cyclic(
    ct: CyclicTriple, samples: int, seed: int, depth: int
) -> tuple[float, Optional[tuple[Point, Point, Point]], Optional[CertificationReport]]:
    """The summed inequality, then the product-space reduction, from one campaign.

    Returns ``certify_cyclic(ct, samples, seed)``'s minimum and triple, and
    ``verify_contraction(cyclic3_reduce(ct), samples, seed, depth=depth)``'s
    report with the same bits, or None in its place when the triple refutes
    (``cyclic_refuted``).  The triple's verdict comes first: a reduction that
    cannot be built, takes a negative depth, or fails a check or raises on a
    sample is certified after it by ``verify_contraction``, which raises its
    first error.
    """
    try:
        system = cyclic3_reduce(ct)
    except ProxiterError:
        system = None
    reduction = system if depth >= 0 else None
    worst, arg, campaign = _cyclic_campaign(ct, samples, seed, reduction)
    if cyclic_refuted(worst):
        return worst, arg, None
    if campaign is None:
        return worst, arg, verify_contraction(cyclic3_reduce(ct), samples, seed, depth=depth)
    return worst, arg, campaign_report(system, samples, seed, depth, campaign)


def cyclic_refuted(worst: float) -> bool:
    """Whether a ``certify_cyclic`` minimum refutes: below the slack, or not finite."""
    return not -RESIDUAL_TOL <= worst < math.inf


def rotate_cyclic(ct: CyclicTriple, shift: int) -> CyclicTriple:
    """Relabel the triple so that region shift becomes the first one."""
    i = shift % 3
    regions = tuple(ct.regions[(i + j) % 3] for j in range(3))
    dists = tuple(ct.dists[(i + j) % 3] for j in range(3))
    return CyclicTriple(ct.space, regions, ct.t, ct.k, dists)


ONE_ATOM = Atom("one")


def _reduction_quadruple(g: Point, b: Point, c: Point) -> Quadruple:
    """The cyclic reduction's quadruple over first, second and third region points."""
    y = b + c
    return Quadruple(g + g, y, ONE_ATOM, y)


def cyclic3_reduce(ct: CyclicTriple) -> ExternalFactorSystem:
    """Rebuild a cyclic triple as a paired system on the product space.

    First-side points are diagonal pairs over the first region driven by the
    cubed map; second-side points pair the other two regions; the second
    penalty charges the cross gap inside a second-side point.  The composed
    constant is k cubed.  Nothing is sampled: ``certify_cyclic`` certifies
    the triple, once, where a command makes its verdict.
    """
    base = ct.space
    d = base.dim
    space2 = compose_spaces(base, base)
    a1, a2, a3 = ct.regions
    region_a = product_region(a1, a1, d)
    region_b = product_region(a2, a3, d)
    d12, d23, d31 = ct.dists
    pair = SetPair(space2, region_a, region_b, dist_ab=d12 + d31)

    def t3(p: Point) -> Point:
        return ct.t(ct.t(ct.t(p)))

    def t(p: Point, c: CElement) -> Point:
        left, right = p[:d], p[d:]
        # a diagonal point maps its one half once; +0.0 and -0.0 compare
        # equal yet may map apart, so halves holding a zero take two calls
        if left == right and 0.0 not in left:
            image = t3(left)
            return image + image
        return t3(left) + t3(right)

    def f_b_fn(c: CElement) -> float:
        if isinstance(c, Atom):
            if c == ONE_ATOM:
                return d23
            raise InvalidInputError(f"unknown atom {c} in the external set")
        return base.metric(c[:d], c[d:])

    def diagonal(x: Point) -> bool:
        return x[:d] == x[d:]

    def p_contains(x: Point, y: Point, u: CElement, v: CElement) -> bool:
        return (
            region_a.contains(x)
            and diagonal(x)
            and region_b.contains(y)
            and u == ONE_ATOM
            and v == y
        )

    return ExternalFactorSystem(
        name="cyclic3-reduction",
        pair=pair,
        t_a=t,
        h_a=lambda x, c: ONE_ATOM,
        t_b=t,
        h_b=t,
        f_a=ExternalFactor(lambda c: 0.0, 0.0),
        f_b=ExternalFactor(f_b_fn, d23),
        p=RelationP(p_contains, draw_columns((a1.draw, a2.draw, a3.draw), _reduction_quadruple)),
        lam=ct.k ** 3,
    )


@dataclass(frozen=True)
class BestProximityResult:
    """Limits of the three rotated reductions with their residuals."""

    z: tuple[Point, Point, Point]
    gap_residuals: tuple[float, float, float]
    cycle_residuals: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "z": [format_point(p) for p in self.z],
            "gap_residuals": list(self.gap_residuals),
            "cycle_residuals": list(self.cycle_residuals),
        }


def cyclic3_solve(
    ct: CyclicTriple,
    max_steps: int = 400,
    tol: float = 1e-9,
    *,
    seed: int = 0,
) -> tuple[Optional[BestProximityResult], PairedTrace]:
    """Locate the three best-proximity points through rotated reductions.

    The triple is certified once, on 1000 triples drawn at ``seed``; the
    summed inequality is the same under rotation, so no rotation certifies
    again, and a refutation raises ``RefutedError``.  Rotation i starts from
    points drawn at ``seed + 17 * i`` and contributes the diagonal limit over
    its first region; the second-side limits converge in distance only, so
    they are not read off.  Returns the result, or None (undecided) when any
    rotation misses the confirmation window within max_steps, and the
    PairedTrace of the first rotation.
    """
    worst, arg = certify_cyclic(ct, 1000, seed)
    if cyclic_refuted(worst):
        raise RefutedError(
            f"refuted at construction: summed-contraction residual {worst:.3g} at {arg}"
        )
    d = ct.space.dim
    zs: list[Point] = []
    for i in range(3):
        rotated = rotate_cyclic(ct, i)
        system = cyclic3_reduce(rotated)
        rng = random.Random(seed + 17 * i)
        g = rotated.regions[0].draw(rng, 1)[0]
        b = rotated.regions[1].draw(rng, 1)[0]
        c = rotated.regions[2].draw(rng, 1)[0]
        q0 = _reduction_quadruple(g, b, c)
        paired, report = run_paired(system, q0, max_steps, tol)
        if i == 0:
            first = paired
        if report.limit is None:
            return None, first
        zs.append(report.limit[:d])
    z1, z2, z3 = zs
    metric = ct.space.metric
    d12, d23, d31 = ct.dists
    gaps = (
        abs(metric(z1, z2) - d12),
        abs(metric(z2, z3) - d23),
        abs(metric(z3, z1) - d31),
    )
    cycles = (
        metric(ct.t(z1), z2),
        metric(ct.t(z2), z3),
        metric(ct.t(z3), z1),
    )
    return BestProximityResult((z1, z2, z3), gaps, cycles), first


# The spokes of affine_cyclic_example at a_j = pi/2 + j*2*pi/3, j = 0, 1, 2:
# inner endpoint (r*cos(a_j), r*sin(a_j)) with r = 1.0/math.sqrt(3.0), and unit
# vector (cos(a_j), sin(a_j)), each the double that math.cos and math.sin gave
# when the report digests were recorded.  Literals keep the geometry, and so
# every cyclic report, off the host's libm; cos(pi/2) is 6.1e-17, not 0.
_SPOKE_INNER = (
    (float.fromhex("0x1.4611bfd437b1ap-55"), float.fromhex("0x1.279a74590331dp-1")),
    (float.fromhex("-0x1.0000000000001p-1"), float.fromhex("-0x1.279a74590331ap-2")),
    (float.fromhex("0x1.ffffffffffffep-2"), float.fromhex("-0x1.279a745903322p-2")),
)
_SPOKE_UNIT = (
    (float.fromhex("0x1.1a62633145c07p-54"), float.fromhex("0x1.0000000000000p+0")),
    (float.fromhex("-0x1.bb67ae8584cacp-1"), float.fromhex("-0x1.ffffffffffffbp-2")),
    (float.fromhex("0x1.bb67ae8584ca8p-1"), float.fromhex("-0x1.0000000000004p-1")),
)


def affine_cyclic_example() -> CyclicTriple:
    """Three unit segments pointing outward from an equilateral unit triangle.

    The map carries each segment onto the near half of the next one, halving
    the outward parameter, so the summed contraction holds with k = 1/2 and
    the best-proximity points are the three inner endpoints.

    The spokes point at 90, 210 and 330 degrees, and the sector boundaries
    at 30, 150 and 270 degrees lie 60 degrees from every spoke, so a point
    near spoke j is in sector j; the map tests that one spoke only.
    """
    inner, unit = _SPOKE_INNER, _SPOKE_UNIT
    outer = [
        (e[0] + u[0], e[1] + u[1]) for e, u in zip(inner, unit)
    ]
    space = vector_space(2)
    regions = tuple(
        segment_region(inner[j], outer[j], name=f"spoke-{j + 1}") for j in range(3)
    )
    m = 0.5
    # per spoke: its membership test, inner endpoint and unit vector, then the
    # next spoke's inner endpoint and unit vector
    spokes = tuple(
        (regions[j].contains, *inner[j], *unit[j], *inner[(j + 1) % 3], *unit[(j + 1) % 3])
        for j in range(3)
    )
    sqrt3 = math.sqrt(3.0)

    def t(p: Point) -> Point:
        x, y = p
        # spoke-1's sector spans 30..150 degrees; below it the negative y-axis
        # splits spoke-2's sector from spoke-3's
        j = 0 if sqrt3 * y > abs(x) else (1 if x < 0.0 else 2)
        contains, e0, e1, u0, u1, f0, f1, w0, w1 = spokes[j]
        if not contains(p):
            raise InvalidInputError(f"point {p} is on none of the three segments")
        # the outward parameter clamped as min(1.0, max(0.0, s)), then halved
        s = (x - e0) * u0 + (y - e1) * u1
        s = s if s > 0.0 else 0.0
        s = m * (s if s < 1.0 else 1.0)
        return (f0 + s * w0, f1 + s * w1)

    return CyclicTriple(space, regions, t, m, (1.0, 1.0, 1.0))


def singleton_cyclic_example() -> CyclicTriple:
    """Degenerate triple of three collinear singletons; equality case throughout."""
    pts = [(10.0,), (20.0,), (30.0,)]
    regions = tuple(singleton_region(p, name=f"pt-{int(p[0])}") for p in pts)

    successor = {pts[j]: pts[(j + 1) % 3] for j in range(3)}

    def t(p: Point) -> Point:
        image = successor.get(p)
        if image is None:
            raise InvalidInputError(f"point {p} is not one of the three singletons")
        return image

    return CyclicTriple(real_line(), regions, t, 0.5, (10.0, 10.0, 20.0))


# ---------------------------------------------------------------------------
# scan fixtures: set pairs with candidate-sequence generators


def open_interval_pair() -> SetPair:
    a = interval(0.0, 1.0, closed_lo=False, closed_hi=False, complete=False, name="(0,1)")
    b = interval(2.0, 3.0, closed_lo=False, closed_hi=False, complete=False, name="(2,3)")
    return SetPair(real_line(), a, b, dist_ab=1.0)


def circle_origin_pair() -> SetPair:
    space = vector_space(2)
    a = circle_region((0.0, 0.0), 1.0, name="unit-circle")
    b = singleton_region((0.0, 0.0), name="origin")
    return SetPair(space, a, b, dist_ab=1.0)


def _geometric(
    target: float, c: float, ratio: float, sign: float, floor: float = 0.0
) -> list[Point]:
    # the floor keeps strictly-open boundaries unreached despite float absorption;
    # `floor if floor > v else v` is max(v, floor), NaN included
    return [
        (target + sign * (floor if floor > v else v),)
        for v in [c * ratio ** n for n in range(80)]
    ]


def pair_cd_generator(name: str, seed: int) -> Callable[[int], tuple[list[Point], list[Point]]]:
    """Candidate pairs converging in distance toward the facing boundary.

    For the half-line pair they settle on member points; for the open pair
    the first sequence escapes toward the missing endpoint.
    """

    def gen(i: int) -> tuple[list[Point], list[Point]]:
        rng = random.Random(f"cd:{name}:{seed}:{i}")
        c1, c2 = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)
        r1, r2 = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
        if name == "e1-pair":
            xs = _geometric(0.0, c1 * 80.0, r1, +1.0)
            ys = _geometric(-1.0, c2 * 80.0, r2, -1.0)
        elif name == "open-interval-pair":
            xs = _geometric(1.0, c1, r1, -1.0, floor=1e-13)
            ys = _geometric(2.0, c2, r2, +1.0, floor=1e-13)
        else:
            raise InvalidInputError(f"no candidate generator for pair {name}")
        return xs, ys

    return gen


def pair_uc_generator(
    name: str, seed: int
) -> Callable[[int], tuple[list[Point], list[Point], list[Point]]]:
    """Candidate triples approaching the pair distance from two first-set paths.

    On the circle the first candidate puts the two paths at exactly antipodal
    rest points, the known failure of the collapse property there.
    """

    def gen(i: int) -> tuple[list[Point], list[Point], list[Point]]:
        rng = random.Random(f"uc:{name}:{seed}:{i}")
        if name == "e1-pair":
            c1, c2, c3 = (rng.uniform(0.05, 0.5) * 80.0 for _ in range(3))
            r1, r2, r3 = (rng.uniform(0.3, 0.7) for _ in range(3))
            xs = _geometric(0.0, c1, r1, +1.0)
            zs = _geometric(0.0, c2, r2, +1.0)
            ys = _geometric(-1.0, c3, r3, -1.0)
            return xs, zs, ys
        if name == "circle-origin-pair":
            th1 = 0.0 if i == 0 else rng.uniform(0.0, 2.0 * math.pi)
            th2 = math.pi if i == 0 else rng.uniform(0.0, 2.0 * math.pi)
            xs = [(math.cos(th1), math.sin(th1))] * 40
            zs = [(math.cos(th2), math.sin(th2))] * 40
            ys = [(0.0, 0.0)] * 40
            return xs, zs, ys
        raise InvalidInputError(f"no candidate generator for pair {name}")

    return gen


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Instance:
    """A named built-in; build() makes its system, cyclic triple or set pair."""

    name: str
    description: str
    build: Callable[[], object]


@dataclass(frozen=True)
class SystemInstance(Instance):
    default_x0: Point
    default_y0: Point
    quadruple: Callable[[Point, Point], Quadruple]


def _mirror_quadruple(x: Point, y: Point) -> Quadruple:
    return Quadruple(x, y, x, y)


def _product_quadruple(x: Point, y: Point) -> Quadruple:
    # components mirror their own coordinates, as in the factor systems
    return Quadruple(x, y, CPair(x[:1], x[1:]), CPair(y[:1], y[1:]))


SYSTEMS: dict[str, SystemInstance] = {
    "e1": SystemInstance(
        "e1",
        "half-line system with dyadic-parity penalties, lambda 5/8",
        example1_system,
        (3.0,),
        (-2.0,),
        _mirror_quadruple,
    ),
    "banach-half": SystemInstance(
        "banach-half",
        "halving map on the line, trivial external set",
        banach_half_system,
        (8.0,),
        (0.0,),
        _atom_quadruple,
    ),
    "banach-affine": SystemInstance(
        "banach-affine",
        "affine map (x+4)/2 on the line, fixed point 4",
        banach_affine_system,
        (8.0,),
        (0.0,),
        _atom_quadruple,
    ),
    "e1-product": SystemInstance(
        "e1-product",
        "sum-metric product of two copies of e1",
        example1_product_system,
        (3.0, 5.0),
        (-2.0, -3.0),
        _product_quadruple,
    ),
}

CYCLIC: dict[str, Instance] = {
    "cyclic3-singleton": Instance(
        "cyclic3-singleton",
        "three collinear singletons, equality case of the summed contraction",
        singleton_cyclic_example,
    ),
    "cyclic3-affine": Instance(
        "cyclic3-affine",
        "three radial unit segments at an equilateral triangle, k = 1/2",
        affine_cyclic_example,
    ),
}

PAIRS: dict[str, Instance] = {
    "e1-pair": Instance(
        "e1-pair", "half-line pair of e1, distance 1", example1_pair
    ),
    "open-interval-pair": Instance(
        "open-interval-pair",
        "open intervals (0,1) and (2,3); first region incomplete",
        open_interval_pair,
    ),
    "circle-origin-pair": Instance(
        "circle-origin-pair",
        "unit circle against the origin; non-convex first region",
        circle_origin_pair,
    ),
}

#: convenience alias used by the command line
ALIASES = {"banach": "banach-half"}

#: each registry with its kind name, in listing and name-lookup order
REGISTRIES = (("system", SYSTEMS), ("cyclic", CYCLIC), ("pair", PAIRS))


def list_instances() -> list[tuple[str, str, str]]:
    return [
        (e.name, kind, e.description) for kind, registry in REGISTRIES for e in registry.values()
    ]


# ---------------------------------------------------------------------------
# JSON-described instances (degenerate external-factor shape)

#: map name -> (parameters with their defaults, factory taking them by name);
#: a factory builds the point map (x, c) -> x' on the real line
_JSON_MAPS: dict[str, tuple[dict[str, float], Callable[..., Callable[..., Point]]]] = {
    "affine": (
        {"slope": 1.0, "offset": 0.0},
        lambda slope, offset: (lambda x, c: (slope * x[0] + offset,)),
    ),
    "identity": ({}, lambda: (lambda x, c: (x[0],))),
}


def load_instance_json(path: str) -> SystemInstance:
    """Build a system instance from a JSON description.

    Supported shape: one real region per side, named scalar maps for both
    sides, zero penalties with supplied infima, an exact distance, and a
    declared constant.  The relation is the membership product.  A malformed
    description raises InvalidInputError naming the file and the field.
    """
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"{path}: cannot read the instance file: {exc}") from exc

    def number(field: str, value) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{path}: field {field!r} must be a number, got {value!r}")

    def flag(field: str, value) -> bool:
        # bool("false") is True: only JSON true and false are flags
        if not isinstance(value, bool):
            raise InvalidInputError(
                f"{path}: field {field!r}: must be true or false, got {value!r}"
            )
        return value

    def section(field: str, value) -> dict:
        if not isinstance(value, dict):
            raise InvalidInputError(f"{path}: field {field!r} must be an object, got {value!r}")
        return value

    def region(key: str, rspec) -> Region:
        rspec = section(f"regions.{key}", rspec)
        kind = rspec.get("kind", "interval")
        if kind != "interval":
            raise InvalidInputError(
                f"{path}: field 'regions.{key}.kind': unsupported region kind {kind!r}"
            )
        bounds = {
            k: number(f"regions.{key}.{k}", rspec[k])
            for k in ("sample_lo", "sample_hi")
            if rspec.get(k) is not None
        }
        complete = rspec.get("complete")  # None: complete when both ends are closed
        if complete is not None:
            complete = flag(f"regions.{key}.complete", complete)
        lo = number(f"regions.{key}.lo", rspec.get("lo", -math.inf))
        hi = number(f"regions.{key}.hi", rspec.get("hi", math.inf))
        closed_lo = flag(f"regions.{key}.closed_lo", rspec.get("closed_lo", True))
        closed_hi = flag(f"regions.{key}.closed_hi", rspec.get("closed_hi", True))
        # a NaN end compares false with every point, as do reversed ends
        if not lo <= hi or (lo == hi and not (closed_lo and closed_hi)):
            end = "hi" if math.isnan(hi) else "lo"
            raise InvalidInputError(
                f"{path}: field 'regions.{key}.{end}': the interval from {lo} to {hi} is empty"
            )
        return interval(lo, hi, closed_lo=closed_lo, closed_hi=closed_hi, complete=complete,
                        name=rspec.get("name"), **bounds)

    spec = section("(top level)", spec)
    space_kind = section("space", spec.get("space", {})).get("kind", "real")
    if space_kind != "real":
        raise InvalidInputError(
            f"{path}: field 'space.kind': unsupported space kind {space_kind!r}"
        )
    space = real_line()
    regions = section("regions", spec.get("regions", {}))
    region_a = region("a", regions.get("a", {}))
    key_b = "b" if "b" in regions else "a"  # one region serves both sides
    region_b = region(key_b, regions.get(key_b, {}))
    maps = section("maps", spec.get("maps", {}))

    def point_map(key: str) -> Callable[[Point, CElement], Point]:
        m = dict(section(f"maps.{key}", maps.get(key, {"name": "identity"})))
        if "name" not in m:
            raise InvalidInputError(f"{path}: field 'maps.{key}.name' is missing")
        name = m.pop("name")
        if not isinstance(name, str) or name not in _JSON_MAPS:
            raise InvalidInputError(f"{path}: field 'maps.{key}.name': unknown map name {name!r}")
        params, build = _JSON_MAPS[name]
        for param in m:
            if param not in params:
                raise InvalidInputError(
                    f"{path}: field 'maps.{key}.{param}' is not a parameter of map {name!r}"
                )
        return build(**{
            param: number(f"maps.{key}.{param}", m.get(param, default))
            for param, default in params.items()
        })

    ta, tb = point_map("t_a"), point_map("t_b")
    lam = number("lambda", spec.get("lambda"))
    dist = number("dist", spec.get("dist", 0.0))
    infima = section("infima", spec.get("infima", {"a": 0.0, "b": 0.0}))
    try:
        pair = SetPair(space, region_a, region_b, dist_ab=dist)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: field 'dist': {exc}") from exc
    name = spec.get("name", "json-instance")
    inf_a = number("infima.a", infima.get("a", 0.0))
    inf_b = number("infima.b", infima.get("b", 0.0))
    try:
        system = _single_atom_system(name, pair, ta, tb, lam, inf_a, inf_b)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: field 'lambda': {exc}") from exc

    def start(field: str, home: Region, seed: int) -> Point:
        if field not in spec:
            return sample_region(home, 1, seed)[0]
        try:
            point = as_point(spec[field])
        except (TypeError, ValueError):
            point = ()
        if len(point) != 1:  # the space is the real line
            raise InvalidInputError(
                f"{path}: field {field!r} must be a number or a list of one number, "
                f"got {spec[field]!r}"
            )
        return point

    x0, y0 = start("x0", region_a, 0), start("y0", region_b, 1)
    return SystemInstance(
        name,
        f"JSON instance from {path}",
        lambda: system,
        x0,
        y0,
        _atom_quadruple,
    )
