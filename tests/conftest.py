"""Shared fixtures: systems with a permissive relation for sequence-level tests."""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Optional

import pytest
from hypothesis import settings

from proxiter import (
    Atom,
    ExternalFactor,
    ExternalFactorSystem,
    Quadruple,
    RelationP,
    SetPair,
    distance,
    interval,
    real_line,
    run_paired,
)

# CI selects this profile (--hypothesis-profile=ci): every run draws the same
# examples, so a failure there replays the same way anywhere
settings.register_profile("ci", derandomize=True)


def make_permissive_system(lam: float = 0.5) -> ExternalFactorSystem:
    """Half-line system whose relation only checks memberships.

    T_A mixes the external value into the step, so external sequences matter,
    and the penalty is the raw value with infimum 0.
    """
    region_a = interval(0.0, math.inf, sample_hi=100.0, name="[0,inf)")
    region_b = interval(-math.inf, -1.0, sample_lo=-100.0, name="(-inf,-1]")
    pair = SetPair(real_line(), region_a, region_b, dist_ab=1.0)

    def in_c(c) -> bool:
        return isinstance(c, tuple) and len(c) == 1 and c[0] >= 0.0

    def p_contains(x, y, u, v):
        return region_a.contains(x) and region_b.contains(y) and in_c(u) and in_c(v)

    def p_draw(rng: random.Random, n: int):
        out = []
        for _ in range(n):
            x = (rng.uniform(0.0, 100.0),)
            y = (rng.uniform(-100.0, -1.0),)
            out.append(Quadruple(x, y, (rng.uniform(0.0, 10.0),), (rng.uniform(0.0, 10.0),)))
        return out

    return ExternalFactorSystem(
        name="permissive",
        pair=pair,
        t_a=lambda x, c: (x[0] / 2.0 + c[0] / 4.0,),
        h_a=lambda x, c: (c[0] / 2.0,),
        t_b=lambda y, c: ((y[0] - 1.0) / 2.0,),
        h_b=lambda y, c: (c[0] / 2.0,),
        f_a=ExternalFactor(lambda c: c[0], 0.0),
        f_b=ExternalFactor(lambda c: c[0], 0.0),
        p=RelationP(p_contains, p_draw),
        lam=lam,
    )


def make_two_fixed_point_system() -> ExternalFactorSystem:
    """Broken control: squaring on [0,1] has fixed points at both ends.

    The declared constant is not certified; the system exists to show that
    the uniqueness scan flags a second weakly fixed point.
    """
    region = interval(0.0, 1.0, name="[0,1]")
    pair = SetPair(real_line(), region, region, dist_ab=0.0)
    atom = Atom("unit")

    def p_contains(x, y, u, v):
        return region.contains(x) and region.contains(y)

    def p_draw(rng, n):
        return [
            Quadruple((rng.random(),), (rng.random(),), atom, atom) for _ in range(n)
        ]

    return ExternalFactorSystem(
        name="two-fixed-points",
        pair=pair,
        t_a=lambda x, c: (x[0] ** 2,),
        h_a=lambda x, c: atom,
        t_b=lambda y, c: (y[0] ** 2,),
        h_b=lambda y, c: atom,
        f_a=ExternalFactor(lambda c: 0.0, 0.0),
        f_b=ExternalFactor(lambda c: 0.0, 0.0),
        p=RelationP(p_contains, p_draw),
        lam=0.9,
    )


def logged_maps(system: ExternalFactorSystem, log: list) -> ExternalFactorSystem:
    """The system with each of t_a, h_a, t_b, h_b appending its name to log."""

    def logged(name, fn):
        def call(p, c):
            log.append(name)
            return fn(p, c)

        return call

    names = ("t_a", "h_a", "t_b", "h_b")
    return dataclasses.replace(
        system, **{name: logged(name, getattr(system, name)) for name in names}
    )


def shared_start_limits_agree(
    system: ExternalFactorSystem, q1: Quadruple, q2: Quadruple, max_steps: int, tol: float
) -> Optional[bool]:
    """Whether two starts sharing (y0, v0) reach limits within 10*tol of each other.

    None (undecided) when either paired run stops without a limit.
    """
    assert (q1.y, q1.v) == (q2.y, q2.v), "the two starts must share (y0, v0)"
    limits = [run_paired(system, q, max_steps, tol)[1].limit for q in (q1, q2)]
    if None in limits:
        return None
    return distance(system.pair.space, *limits) <= 10.0 * tol


@pytest.fixture
def permissive_system():
    return make_permissive_system()


@pytest.fixture
def two_fixed_point_system():
    return make_two_fixed_point_system()
