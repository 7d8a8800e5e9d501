"""One campaign per cyclic verify: the summed inequality and the reduction
from one draw of triples, against the two campaigns it replaced.

The reference runs ``certify_cyclic`` and, when the triple passes,
``verify_contraction(cyclic3_reduce(ct))`` on the same seed, each drawing
its own samples.  ``verify_cyclic`` must give the same minimum, triple and
reduction report bit for bit (compared through ``repr``, which tells -0.0
from 0.0), or raise the same error.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

import proxiter as px
from proxiter.instances import (
    CYCLIC,
    certify_cyclic,
    cyclic3_reduce,
    cyclic_refuted,
    verify_cyclic,
)
from proxiter.systems import verify_contraction


def two_campaigns(ct, samples, seed, depth):
    """The summed inequality, then the reduction when the triple passes."""
    worst, arg = certify_cyclic(ct, samples, seed)
    if cyclic_refuted(worst):
        return worst, arg, None
    return worst, arg, verify_contraction(cyclic3_reduce(ct), samples, seed, depth=depth)


def outcome(fn, *args):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except px.ProxiterError as exc:
        return type(exc).__name__, str(exc)


def off_the_draw(ct, samples, seed):
    """ct whose map is NaN at every point but the triples drawn at seed.

    The summed inequality maps drawn points only, so it sees ct's own map;
    the reduction's T^3 leaves the regions at its second step.
    """
    draw = px.draw_columns([region.draw for region in ct.regions], lambda *xs: xs)
    drawn = {p for triple in draw(random.Random(seed), samples) for p in triple}
    nan = (math.nan,) * ct.space.dim

    def t(p):
        return ct.t(p) if p in drawn else nan

    return dataclasses.replace(ct, t=t)


@pytest.mark.parametrize("name", list(CYCLIC))
@pytest.mark.parametrize("samples", [1, 7, 2000])
def test_one_campaign_equals_the_two_campaigns(name, samples):
    ct = CYCLIC[name].build()
    for seed in range(12):
        got = verify_cyclic(ct, samples, seed, 8)
        assert got[2] is not None and got[2].certified
        assert repr(got) == repr(two_campaigns(ct, samples, seed, 8)), (seed, samples)


@pytest.mark.parametrize("name", list(CYCLIC))
def test_each_single_sample_residual_has_the_generic_bits(name):
    # a one-sample campaign's minimum is that sample's residual, so every
    # sum of the fused reduction is checked against _one_step's
    ct = CYCLIC[name].build()
    for seed in range(200):
        got = verify_cyclic(ct, 1, seed, 0)
        want = two_campaigns(ct, 1, seed, 0)
        assert got[2].min_residual.hex() == want[2].min_residual.hex(), seed
        assert repr(got) == repr(want), seed


@pytest.mark.parametrize("depth", [0, 3])
def test_a_map_returning_nan_refutes_as_the_two_campaigns_do(depth):
    ct = px.affine_cyclic_example()
    bad = dataclasses.replace(ct, t=lambda p: (math.nan, math.nan))
    for seed in range(10):
        for samples in (1, 7, 2000):
            got = verify_cyclic(bad, samples, seed, depth)
            assert repr(got[0]) == "nan" and got[2] is None
            assert repr(got) == repr(two_campaigns(bad, samples, seed, depth))


def test_a_refuted_triple_is_reported_before_the_reductions_error():
    ct = px.affine_cyclic_example()
    samples, seed = 300, 4
    # k = 0.05 refutes the summed inequality; off the draw, T^3 leaves the spokes
    broken = off_the_draw(dataclasses.replace(ct, k=0.05), samples, seed)
    with pytest.raises(px.DomainViolationError):
        verify_contraction(cyclic3_reduce(broken), samples, seed)
    for depth in (8, -1):
        worst, arg, report = verify_cyclic(broken, samples, seed, depth)
        assert cyclic_refuted(worst) and report is None
        assert repr((worst, arg)) == repr(certify_cyclic(broken, samples, seed))


def test_a_passing_triple_raises_the_reductions_first_error():
    ct = px.affine_cyclic_example()
    samples, seed = 300, 4
    bad = off_the_draw(ct, samples, seed)
    assert not cyclic_refuted(certify_cyclic(bad, samples, seed)[0])
    want = outcome(two_campaigns, bad, samples, seed, 8)
    assert want[0] == "DomainViolationError"
    assert want[1].startswith("T_A output (nan, nan, nan, nan) left region")
    assert outcome(verify_cyclic, bad, samples, seed, 8) == want
    # verify_contraction checks the depth before it samples
    assert outcome(verify_cyclic, bad, samples, seed, -1) == (
        "InvalidInputError", "depth must be >= 0, got -1"
    )


@pytest.mark.parametrize(
    "dists, refuted", [((-1.0, 45.0, -1.0), False), ((-1.0, 10.0, -1.0), True)]
)
def test_a_reduction_that_cannot_be_built_waits_for_the_triple(dists, refuted):
    # d12 + d31 < 0 is no set distance; the summed inequality still judges
    ct = dataclasses.replace(px.singleton_cyclic_example(), dists=dists)
    with pytest.raises(px.InvalidInputError, match="set distance cannot be negative"):
        cyclic3_reduce(ct)
    assert cyclic_refuted(certify_cyclic(ct, 50, 1)[0]) is refuted
    want = outcome(two_campaigns, ct, 50, 1, 8)
    assert outcome(verify_cyclic, ct, 50, 1, 8) == want
    assert isinstance(want, str) is refuted


def test_no_sample_is_refused_before_any_draw():
    def never(*args, **kwargs):
        raise AssertionError("the campaign drew before refusing --samples 0")

    ct = px.affine_cyclic_example()
    ct = dataclasses.replace(ct, regions=tuple(
        dataclasses.replace(region, draw=never) for region in ct.regions
    ))
    with pytest.raises(px.InvalidInputError, match="samples must be >= 1"):
        verify_cyclic(ct, 0, 1, 8)


def test_certify_cyclic_alone_maps_each_point_once():
    # the run path certifies with the campaign's loop and no reduction:
    # 3 map calls per triple (a cyclic verify makes 9; see test_cli.py)
    ct = px.affine_cyclic_example()
    calls = []

    def counted(p):
        calls.append(p)
        return ct.t(p)

    samples = 400
    certify_cyclic(dataclasses.replace(ct, t=counted), samples, 2)
    assert len(calls) == 3 * samples


def test_the_singleton_map_keeps_the_loop_it_replaced():
    # the loop over the three points, as it was written before the lookup table
    pts = [(10.0,), (20.0,), (30.0,)]

    def loop(p):
        for j in range(3):
            if p == pts[j]:
                return pts[(j + 1) % 3]
        raise px.InvalidInputError(f"point {p} is not one of the three singletons")

    t = px.singleton_cyclic_example().t
    others = [(10,), (20.000000000000004,), (-0.0,), (math.nan,), (math.inf,), (10.0, 0.0), ()]
    for p in pts + others:
        assert outcome(t, p) == outcome(loop, p), p
