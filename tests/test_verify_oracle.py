"""The certification campaign kernel against its plain-formula reference.

``reference_verify_contraction`` and ``reference_one_step_sides`` are the
straight transcriptions that the campaign kernel replaced: the quadruple is
wrapped again for every sample, and each side of the contraction inequality
goes through ``distance()``.  On generated systems with injected faults the
package must give the same report (compared through ``repr``, so ``-0.0``
and NaN count), the same exception type and message where the reference
raises, and the same sequence of relation, region, map, penalty and metric
calls.
"""

from __future__ import annotations

import math
import random
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxiter import (
    CUniverse,
    ExternalFactor,
    ExternalFactorSystem,
    Quadruple,
    RelationP,
    SetPair,
    compose_spaces,
    real_line,
    vector_space,
)
from proxiter.errors import (
    DomainViolationError,
    EstimationFailureError,
    InvalidInputError,
)
from proxiter.spaces import MetricSpace, Region, distance
from proxiter.systems import (
    INVARIANCE_PROBES,
    RESIDUAL_TOL,
    CertificationReport,
    check_p_invariance,
    contraction_residual,
    verify_contraction,
)


def reference_one_step_sides(system, q, ta_out, tb_out):
    """Both sides of the inequality at q, each metric value through distance()."""
    space = system.pair.space
    f_a, f_b = system.f_a.fn, system.f_b.fn
    before = distance(space, q.x, q.y) + f_a(q.u) + f_b(q.v)
    after = distance(space, ta_out, tb_out)
    after += f_a(ta_out if system.h_a is system.t_a else system.h_a(q.x, q.u))
    after += f_b(tb_out if system.h_b is system.t_b else system.h_b(q.y, q.v))
    return before, after


def reference_s(system):
    """S: the system's set distance plus both penalty infima."""
    return system.pair.dist_ab + system.f_a.inf_value + system.f_b.inf_value


def reference_verify_contraction(system, samples, seed, *, depth):
    """verify_contraction as a plain transcription: one sides call per sample."""
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    quads = system.p.draw(random.Random(seed), samples)
    if not quads:
        raise EstimationFailureError("relation sampler produced no quadruples")

    infima_finite = math.isfinite(system.f_a.inf_value) and math.isfinite(system.f_b.inf_value)

    region_a, region_b = system.pair.a, system.pair.b
    lam = system.lam
    floor = (1.0 - lam) * reference_s(system)
    min_res = math.inf
    arg_min: Optional[Quadruple] = None
    non_finite: Optional[Quadruple] = None
    for raw in quads:
        q = Quadruple(*raw)
        if not system.p.contains(q.x, q.y, q.u, q.v):
            raise InvalidInputError(f"relation sampler produced a non-member quadruple: {q}")
        ta_out = system.t_a(q.x, q.u)
        tb_out = system.t_b(q.y, q.v)
        if not region_a.contains(ta_out):
            raise DomainViolationError(f"T_A output {ta_out} left region {region_a.name}")
        if not region_b.contains(tb_out):
            raise DomainViolationError(f"T_B output {tb_out} left region {region_b.name}")
        before, after = reference_one_step_sides(system, q, ta_out, tb_out)
        res = lam * before + floor - after
        if res < min_res:
            min_res, arg_min = res, q
        if non_finite is None and not math.isfinite(res):
            non_finite = q

    p_ok = True
    p_witness: Optional[Quadruple] = None
    for q in quads[:INVARIANCE_PROBES]:
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
        s=reference_s(system),
        infima_finite=infima_finite,
        p_invariant=p_ok,
        p_depth=depth,
        reason=reason,
        witness=witness,
    )


def reference_contraction_residual(system, q):
    q = Quadruple(*q)
    if not system.in_p(q):
        raise InvalidInputError(f"quadruple not in P: {q}")
    before, after = reference_one_step_sides(
        system, q, system.t_a(q.x, q.u), system.t_b(q.y, q.v)
    )
    return system.lam * before + (1.0 - system.lam) * reference_s(system) - after


def _outcome(fn, *args, **kwargs):
    """('ok', repr of the result) or ('raised', type, message).

    Object addresses are cut from the repr: each run builds its own system.
    """
    try:
        return ("ok", re.sub(r" at 0x[0-9a-f]+", "", repr(fn(*args, **kwargs))))
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return ("raised", type(exc), str(exc))


SPACES = {
    "R": real_line(),
    "R2-sum": compose_spaces(real_line(), real_line()),
    "R2-euclidean": vector_space(2),
}

#: half-width of the box both regions are
BOX = 1e6

# First coordinates that make a map, penalty or the relation misbehave.
# Drawn coordinates stay in [-10, 10] and affine images in [-65, 65].
EXIT, WIDE, SHORT, EMPTY, NEG_ZERO, NON_MEMBER = 101.0, 102.0, 103.0, 104.0, 105.0, 106.0
#: a penalty at one of these is NaN, +inf or -inf; a map keeps them
PENALTY_FAULTS = {201.0: math.nan, 202.0: math.inf, 203.0: -math.inf}


def _bad_image(key, dim):
    """The point a map returns at a marker first coordinate, or None."""
    if key == EXIT:
        return (5.0 * BOX,) * dim
    if key == WIDE:
        return (1.0,) * (dim + 1)
    if key == SHORT:
        return (1.0,) * (dim - 1)
    if key == EMPTY:
        return ()
    if key == NEG_ZERO:
        return (-0.0,) * dim
    if key in PENALTY_FAULTS:
        return (key,) * dim
    return None


def _system(space_key, maps, shared, pens, lam, quads, plain, log, consts=(0.0, 0.0, 0.0)):
    """A generated system on a box pair; every callable logs its call.

    ``maps`` is ((slope, offset), (slope, offset)) for the two point maps,
    ``shared`` says per side whether H is T, and the sampler hands out
    ``quads`` as given (plain tuples when ``plain``).  The maps and the
    penalties stay pure: they misbehave at marker inputs only.  ``consts``
    is the set distance and the infima of f_A and f_B.
    """
    base = SPACES[space_key]
    dim = base.dim

    def metric(x, y):
        log.append(("metric", x, y))
        return base.metric(x, y)

    def box(name):
        def contains(p):
            log.append((name, p))
            return all(-BOX <= c <= BOX for c in p)

        def draw(rng, n):
            raise AssertionError("never sampled")

        return Region(name, contains, draw)

    def point_map(side, slope, offset):
        def t(x, u):
            log.append(("t_" + side, x, u))
            bad = _bad_image(x[0] if x else None, dim)
            return bad if bad is not None else tuple(slope * c + offset for c in x)

        return t

    def external_map(side):
        def h(x, u):
            log.append(("h_" + side, x, u))
            key = x[0] if x else None
            return (key,) * dim if key in PENALTY_FAULTS else tuple(0.5 * c for c in u)

        return h

    def penalty(side, weight):
        def f(c):
            log.append(("f_" + side, c))
            return PENALTY_FAULTS.get(c[0], weight * c[0]) if c else weight

        return f

    def p_contains(x, y, u, v):
        log.append(("p", x, y, u, v))
        return not (x and x[0] == NON_MEMBER)

    def p_draw(rng, n):
        return [tuple(q) for q in quads] if plain else list(quads)

    t_a, t_b = point_map("a", *maps[0]), point_map("b", *maps[1])
    return ExternalFactorSystem(
        name="generated",
        pair=SetPair(MetricSpace(base.name, dim, metric), box("box-a"), box("box-b"), consts[0]),
        c_universe=CUniverse("points", lambda rng, n: []),
        t_a=t_a,
        h_a=t_a if shared[0] else external_map("a"),
        t_b=t_b,
        h_b=t_b if shared[1] else external_map("b"),
        f_a=ExternalFactor(penalty("a", pens[0]), consts[1]),
        f_b=ExternalFactor(penalty("b", pens[1]), consts[2]),
        p=RelationP(p_contains, p_draw),
        lam=lam,
    )


#: fault -> (field of the quadruple, marker or point maker)
FAULTS = {
    "exit-a": ("x", EXIT),
    "exit-b": ("y", EXIT),
    "wide-ta": ("x", WIDE),
    "short-tb": ("y", SHORT),
    "empty-ta": ("x", EMPTY),
    "wide-x": ("x", lambda dim: (1.0,) * (dim + 1)),
    "short-y": ("y", lambda dim: (1.0,) * (dim - 1)),
    "neg-zero-a": ("x", NEG_ZERO),
    "neg-zero-b": ("y", NEG_ZERO),
    "non-member": ("x", NON_MEMBER),
    "nan-u": ("u", 201.0),
    "inf-v": ("v", 202.0),
    "-inf-u": ("u", 203.0),
    "nan-after-a": ("x", 201.0),
    "inf-after-b": ("y", 202.0),
    "-inf-after-a": ("x", 203.0),
}

#: sevenths round in most sums, so a reassociated sum shows in the bits
coordinate = st.one_of(
    st.floats(-10.0, 10.0),
    st.integers(-70, 70).map(lambda k: k / 7.0),
    st.just(-0.0),
    st.just(0.0),
)


def _tie(q):
    """A copy of q with the same residual and a different repr.

    Penalties read an element's first coordinate only, so the copy moves
    the others; in one dimension it flips the sign of each zero instead.
    """
    flipped = Quadruple(*(tuple(-c if c == 0.0 else c for c in p) for p in q))
    return flipped._replace(u=q.u[:1] + tuple(c + 1.0 for c in q.u[1:]))


@st.composite
def campaigns(draw, faults):
    """(space, sampled quadruples) with up to two faults placed in them.

    A quadruple may be followed by a tied copy (``_tie``), and only the
    first of the two may be the witness.
    """
    space_key = draw(st.sampled_from(sorted(SPACES)))
    dim = SPACES[space_key].dim
    point = st.tuples(*[coordinate] * dim)
    n = draw(st.integers(0, 12))
    quads = [
        Quadruple(draw(point), draw(point), draw(point), draw(point)) for _ in range(n)
    ]
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        quads.insert(i + 1, _tie(quads[i]))
    for _ in range(draw(st.integers(0, 2)) if quads else 0):
        field, marker = FAULTS[draw(st.sampled_from(faults))]
        i = draw(st.integers(0, len(quads) - 1))
        value = marker(dim) if callable(marker) else (marker,) * dim
        quads[i] = quads[i]._replace(**{field: value})
    return space_key, quads


affine = st.tuples(
    st.one_of(st.floats(-0.99, 0.99), st.just(0.0), st.just(-0.0), st.just(1.5)),
    st.one_of(st.floats(-5.0, 5.0), st.just(0.0)),
)
lams = st.one_of(st.floats(0.0, 0.999), st.just(0.0))


@st.composite
def constants(draw):
    """(distance, inf f_A, inf f_B); in one draw of four, an infimum is infinite or NaN.

    Only an infimum: a set pair refuses a distance that is not finite.
    """
    values = [draw(st.one_of(st.floats(0.0, 3.0), st.just(-0.0))) for _ in range(3)]
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(1, 2))] = draw(st.sampled_from((math.inf, math.nan)))
    return tuple(values)


def _both(reference, new, make_system, call, keep=None):
    """Run both on fresh copies of one generated system; outcomes and logs must agree.

    ``keep`` filters the call log before comparing, when the two are meant
    to differ in calls outside it.  Returns the common outcome.
    """
    runs = []
    for fn in (reference, new):
        log: list = []
        outcome = _outcome(call, fn, make_system(log))
        if keep is not None:
            log = [entry for entry in log if entry[0] in keep]
        runs.append((outcome, repr(log)))
    assert runs[1] == runs[0]
    return runs[0][0]


@settings(max_examples=200, deadline=None)
@given(
    case=campaigns(tuple(FAULTS)),
    maps=st.tuples(affine, affine),
    shared=st.tuples(st.booleans(), st.booleans()),
    pens=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    lam=lams,
    plain=st.booleans(),
    consts=constants(),
)
def test_verify_contraction_matches_the_reference(case, maps, shared, pens, lam, plain, consts):
    space_key, quads = case
    _both(
        reference_verify_contraction,
        verify_contraction,
        lambda log: _system(space_key, maps, shared, pens, lam, quads, plain, log, consts),
        lambda fn, system: fn(system, 7, 3, depth=2),
    )


#: the calls both residual paths make: the package also tests the T outputs' regions,
#: which the reference residual never did
CORE_CALLS = {"t_a", "h_a", "t_b", "h_b", "f_a", "f_b", "metric", "p"}


@settings(max_examples=50, deadline=None)
@given(
    case=campaigns(("neg-zero-a", "neg-zero-b", "non-member", "nan-u", "inf-after-b")),
    maps=st.tuples(affine, affine),
    shared=st.tuples(st.booleans(), st.booleans()),
    pens=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    lam=lams,
    consts=constants(),
)
def test_contraction_residual_matches_the_reference(case, maps, shared, pens, lam, consts):
    space_key, quads = case
    for q in quads:
        _both(
            reference_contraction_residual,
            contraction_residual,
            lambda log: _system(space_key, maps, shared, pens, lam, quads, False, log, consts),
            lambda fn, system: fn(system, q),
            keep=CORE_CALLS,
        )


def _run(fault_quads, space_key="R", shared=(True, False), plain=False, consts=(0.0, 0.0, 0.0)):
    return _both(
        reference_verify_contraction,
        verify_contraction,
        lambda log: _system(
            space_key, ((0.5, 1.0), (0.5, -1.0)), shared, (1.0, 1.0), 0.5,
            fault_quads, plain, log, consts,
        ),
        lambda fn, system: fn(system, 7, 3, depth=2),
    )


@pytest.mark.parametrize(
    "fault, expected",
    [
        ("exit-a", (DomainViolationError, "T_A output (500000")),
        ("exit-b", (DomainViolationError, "T_B output (500000")),
        ("wide-ta", (InvalidInputError, "dimension mismatch in R: got 2/1, want 1")),
        ("short-tb", (InvalidInputError, "dimension mismatch in R: got 1/0, want 1")),
        ("wide-x", (InvalidInputError, "dimension mismatch in R: got 2/1, want 1")),
        ("non-member", (InvalidInputError, "relation sampler produced a non-member")),
        ("nan-u", "reason='non-finite-residual'"),
        ("-inf-after-a", "reason='non-finite-residual'"),
        ("neg-zero-a", "verdict="),
    ],
)
def test_the_generated_faults_reach_their_paths(fault, expected):
    field, marker = FAULTS[fault]
    value = marker(1) if callable(marker) else (marker,)
    good = Quadruple((1.0,), (2.0,), (0.5,), (0.25,))
    outcome = _run([good, good._replace(**{field: value}), good])
    if isinstance(expected, str):
        assert outcome[0] == "ok" and expected in outcome[1]
    else:
        assert outcome[:2] == ("raised", expected[0]) and outcome[2].startswith(expected[1])


def test_plain_tuples_give_a_quadruple_witness():
    bad = ((1.0,), (2.0,), (0.5,), (201.0,))
    outcome = _run([((1.0,), (2.0,), (0.5,), (0.25,)), bad], plain=True)
    assert "witness=Quadruple(x=(1.0,), y=(2.0,), u=(0.5,), v=(201.0,))" in outcome[1]
    assert "infimum-not-finite" in _run([bad], consts=(0.0, math.inf, 0.0))[1]


def test_a_tie_keeps_the_first_witness():
    q = Quadruple((1.0, 1.0), (2.0, 2.0), (3.0, 0.0), (0.25, 0.0))
    outcome = _run([q, _tie(q)], space_key="R2-sum")
    assert "reason='negative-residual'" in outcome[1]
    assert "witness=Quadruple(x=(1.0, 1.0), y=(2.0, 2.0), u=(3.0, 0.0)" in outcome[1]
