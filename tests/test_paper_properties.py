"""Two conclusions of the construction as properties on generated inputs.

- Determinism: the same command and ``--seed`` give byte-identical output,
  however many other commands ran in the same process before it.
- Products: the sum-metric product of two systems that certify on samples
  certifies at the larger of their two constants.
- Bounds: the one-sided (L1) and two-sided (L2) trace bounds hold along
  paired runs from sampled starts on the built-in systems.
- Uniqueness: two e1 starts that share (y0, v0) never settle on different
  limits, and the cyclic reduction finds best-proximity points whose gap and
  cycle residuals are under the tolerance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import proxiter as px
from conftest import shared_start_limits_agree
from proxiter.cli import main

#: commands cheap enough to repeat per example; each reads --seed
COMMANDS = (
    ("verify", "--instance", "e1", "--samples", "300"),
    ("verify", "--instance", "e1", "--lambda", "0.5", "--samples", "300"),
    ("verify", "--instance", "e1-product", "--samples", "150"),
    ("verify", "--instance", "banach-affine", "--samples", "300"),
    ("verify", "--instance", "cyclic3-affine", "--samples", "60"),
    ("run", "--instance", "e1"),
    ("run", "--instance", "e1", "--format", "csv"),
    ("run", "--instance", "cyclic3-singleton"),
    ("run", "--instance", "cyclic3-affine", "--format", "csv"),
)


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=25, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    seed=seeds,
    other=st.sampled_from(COMMANDS),
    other_seed=seeds,
)
def test_the_same_seed_gives_the_same_bytes(command, seed, other, other_seed):
    argv = (*command, "--seed", str(seed))
    first = _cli(argv)
    assert first[0] in (0, 2, 3) and first[1] and first[2] == ""
    _cli((*other, "--seed", str(other_seed)))
    assert _cli(argv) == first


def _affine_system(slope: float, offset: float, lam: float) -> px.ExternalFactorSystem:
    """x -> slope*x + offset on the sampled line; certifies when lam >= |slope|."""
    region = px.interval(-1e9, 1e9, sample_lo=-10.0, sample_hi=10.0, name="R")
    return px.banach_system(
        lambda x: (slope * x[0] + offset,), px.real_line(), region, lam, name="affine"
    )


@st.composite
def certified_systems(draw):
    """e1 at its constant or above, or an affine line map at a constant >= its slope."""
    if draw(st.booleans()):
        lam = draw(st.sampled_from((5.0 / 8.0, 0.75, 0.95)))
        return dataclasses.replace(px.example1_system(), lam=lam)
    lam = draw(st.floats(0.0, 0.95))
    slope = draw(st.floats(-lam, lam))
    return _affine_system(slope, draw(st.floats(-5.0, 5.0)), lam)


@settings(max_examples=30, deadline=None)
@given(s1=certified_systems(), s2=certified_systems(), seed=seeds)
def test_a_product_of_certified_systems_certifies_at_the_larger_constant(s1, s2, seed):
    for factor in (s1, s2):
        assert px.verify_contraction(factor, 200, seed).certified
    product = px.product_system(s1, s2)
    assert product.lam == max(s1.lam, s2.lam)
    report = px.verify_contraction(product, 200, seed)
    assert report.certified and report.lam == max(s1.lam, s2.lam)


#: the built-in systems the bound checks run on, built once
BOUND_SYSTEMS = {
    "e1": px.example1_system(),
    "e1-product": px.example1_product_system(),
    "banach-half": px.banach_half_system(),
    "banach-affine": px.banach_affine_system(),
}


@settings(max_examples=40, deadline=1000)
@given(name=st.sampled_from(sorted(BOUND_SYSTEMS)), seed=seeds, steps=st.integers(2, 60))
def test_the_trace_bounds_hold_from_sampled_starts(name, seed, steps):
    system = BOUND_SYSTEMS[name]
    q0 = system.p.draw(random.Random(seed), 1)[0]
    paired, report = px.run_paired(system, q0, steps, 1e-9)
    assert report.stop_reason != "divergence-guard"
    assert px.check_l1_bound(paired, system)
    assert px.check_l2_bound(paired, system).ok


@settings(max_examples=40, deadline=1000)
@given(seed=seeds)
def test_e1_starts_sharing_the_second_side_never_split(seed):
    system = BOUND_SYSTEMS["e1"]
    q1, q2 = system.p.draw(random.Random(seed), 2)
    q2 = px.Quadruple(q2.x, q1.y, q2.u, q1.v)
    assert shared_start_limits_agree(system, q1, q2, 400, 1e-9) in (True, None)


def test_cyclic3_affine_residuals_are_under_the_tolerance():
    triple, tol = px.affine_cyclic_example(), 1e-9
    for seed in range(20):
        result, _ = px.cyclic3_solve(triple, tol=tol, seed=seed)
        assert result is not None, seed
        assert max(result.gap_residuals + result.cycle_residuals) < tol, seed
