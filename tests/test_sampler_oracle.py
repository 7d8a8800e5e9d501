"""Sampler stream oracle: every multi-part sampler keeps the column draw order.

Each reference below is a transcription of a hand-written sampler body that
``spaces.draw_columns`` replaced: it draws each part whole, in order, from
the one rng, then joins the rows.  Every built-in multi-part sampler must
give the same values bit for bit (compared through ``repr``, which tells
-0.0 from 0.0) and leave the rng in the same state, so that a sampler which
draws the columns in blocks can be checked against the same stream.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from proxiter import instances
from proxiter.instances import (
    CYCLIC,
    ONE_ATOM,
    SYSTEMS,
    certify_cyclic,
    cyclic3_reduce,
    cyclic_residual,
    example1_system,
    load_instance_json,
)
from proxiter.errors import InvalidInputError
from proxiter.systems import Atom, CPair, Quadruple

Random = random.Random
SIZES = (0, 1, 7, 4099)
SEEDS = (0, 1, 29)


# ---------------------------------------------------------------------------
# transcriptions of the hand-written bodies


def ref_product_region(r1, r2):
    def draw(rng, n):
        left = r1.draw(rng, n)
        right = r2.draw(rng, n)
        return [a + b for a, b in zip(left, right)]

    return draw


def ref_single_atom_p(region_a, region_b):
    atom = Atom("unit")

    def p_draw(rng, n):
        xs = region_a.draw(rng, n)
        ys = region_b.draw(rng, n)
        return [Quadruple(x, y, atom, atom) for x, y in zip(xs, ys)]

    return p_draw


def ref_product_p(s1, s2):
    def p_draw(rng, n):
        q1s = s1.p.draw(rng, n)
        q2s = s2.p.draw(rng, n)
        return [
            Quadruple(q1.x + q2.x, q1.y + q2.y, CPair(q1.u, q2.u), CPair(q1.v, q2.v))
            for q1, q2 in zip(q1s, q2s)
        ]

    return p_draw


def ref_product_c(s1, s2):
    def c_draw(rng, n):
        left = s1.c_universe.draw(rng, n)
        right = s2.c_universe.draw(rng, n)
        return [CPair(a, b) for a, b in zip(left, right)]

    return c_draw


def ref_reduction_p(a1, a2, a3):
    def p_draw(rng, n):
        gs = a1.draw(rng, n)
        bs = a2.draw(rng, n)
        cs = a3.draw(rng, n)
        return [Quadruple(g + g, b + c, ONE_ATOM, b + c) for g, b, c in zip(gs, bs, cs)]

    return p_draw


def ref_reduction_c(a2, a3):
    def c_draw(rng, n):
        out = []
        bs = a2.draw(rng, n)
        cs = a3.draw(rng, n)
        for b, c in zip(bs, cs):
            out.append(ONE_ATOM if rng.random() < 0.25 else b + c)
        return out

    return c_draw


def ref_certify_cyclic(ct, samples, seed):
    """The reference result and the rng it drew from."""
    rng = Random(seed)
    xs1 = ct.regions[0].draw(rng, samples)
    xs2 = ct.regions[1].draw(rng, samples)
    xs3 = ct.regions[2].draw(rng, samples)
    worst = math.inf
    arg = None
    for x1, x2, x3 in zip(xs1, xs2, xs3):
        r = cyclic_residual(ct, x1, x2, x3)
        if r < worst:
            worst, arg = r, (x1, x2, x3)
    return (worst, arg), rng


# ---------------------------------------------------------------------------
# the built-in samplers, each paired with its reference

JSON_SPEC = {
    "regions": {
        "a": {"lo": 0.0, "hi": 10.0},
        "b": {"lo": 20.0, "hi": math.inf, "closed_lo": False, "sample_hi": 25.0},
    },
    "maps": {"t_a": {"name": "affine", "slope": 0.5}, "t_b": {"name": "identity"}},
    "lambda": 0.5,
    "dist": 10.0,
}


def _cases(json_path):
    e1 = example1_system()
    cases = {}
    for name in ("banach-half", "banach-affine"):
        system = SYSTEMS[name].build()
        cases[f"{name}.p"] = (system.p.draw, ref_single_atom_p(system.pair.a, system.pair.b))
    system = load_instance_json(json_path).build()
    cases["json.p"] = (system.p.draw, ref_single_atom_p(system.pair.a, system.pair.b))
    product = SYSTEMS["e1-product"].build()
    cases["e1-product.p"] = (product.p.draw, ref_product_p(e1, e1))
    cases["e1-product.c"] = (product.c_universe.draw, ref_product_c(e1, e1))
    cases["e1-product.a"] = (product.pair.a.draw, ref_product_region(e1.pair.a, e1.pair.a))
    cases["e1-product.b"] = (product.pair.b.draw, ref_product_region(e1.pair.b, e1.pair.b))
    for name, entry in CYCLIC.items():
        ct = entry.build()
        a1, a2, a3 = ct.regions
        system = cyclic3_reduce(ct)
        cases[f"{name}.p"] = (system.p.draw, ref_reduction_p(a1, a2, a3))
        cases[f"{name}.c"] = (system.c_universe.draw, ref_reduction_c(a2, a3))
        cases[f"{name}.a"] = (system.pair.a.draw, ref_product_region(a1, a1))
        cases[f"{name}.b"] = (system.pair.b.draw, ref_product_region(a2, a3))
    return cases


CASE_NAMES = [
    "banach-half.p", "banach-affine.p", "json.p",
    "e1-product.p", "e1-product.c", "e1-product.a", "e1-product.b",
    *(f"{name}.{part}" for name in CYCLIC for part in "pcab"),
]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    path = tmp_path_factory.mktemp("sampler-oracle") / "instance.json"
    path.write_text(json.dumps(JSON_SPEC))
    built = _cases(str(path))
    assert sorted(built) == sorted(CASE_NAMES)
    return built


@pytest.mark.parametrize("name", CASE_NAMES)
def test_sampler_matches_the_hand_written_body(cases, name):
    draw, reference = cases[name]
    for seed in SEEDS:
        for n in SIZES:
            rng, ref_rng = Random(seed), Random(seed)
            got, want = draw(rng, n), reference(ref_rng, n)
            assert len(got) == n
            assert repr(got) == repr(want), (name, seed, n)
            assert rng.getstate() == ref_rng.getstate(), (name, seed, n)


@pytest.mark.parametrize("name", list(CYCLIC))
def test_certify_cyclic_matches_the_hand_written_body(monkeypatch, name):
    made = []

    class Recording(Random):
        """A Random that records each instance, so its final state can be read."""

        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    ct = CYCLIC[name].build()
    monkeypatch.setattr(instances.random, "Random", Recording)
    for seed in SEEDS:
        for n in SIZES:
            made.clear()
            if n == 0:  # no sample certifies nothing: refused before any draw
                with pytest.raises(InvalidInputError, match="samples must be >= 1"):
                    certify_cyclic(ct, n, seed)
                assert made == []
                continue
            got = certify_cyclic(ct, n, seed)
            (rng,) = made
            want, ref_rng = ref_certify_cyclic(ct, n, seed)
            assert repr(got) == repr(want), (name, seed, n)
            assert rng.getstate() == ref_rng.getstate(), (name, seed, n)
