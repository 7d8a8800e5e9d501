"""check_l2_bound's envelope screen against the cell-by-cell reference.

On the line, the sum-metric plane and the Euclidean plane as their factories
build them, ``check_l2_bound`` bounds each row and column part of the grid
with one metric call to the far corner of a suffix box, and leaves the check
to the cell-by-cell sweep wherever a bound fails.  The certificate must be
the reference's bit for bit (compared through ``repr``), and the number of
metric calls must stay linear in the horizon.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_oracles import reference_check_l2_bound, with_s

import proxiter.spaces as spaces
from proxiter import (
    SYSTEMS,
    MetricSpace,
    banach_half_system,
    compose_spaces,
    load_instance_json,
    real_line,
    run_paired,
    vector_space,
)
from proxiter.iteration import IterationTrace, PairedTrace
from proxiter.validators import check_l2_bound

FACTORIES = {
    "R": real_line,
    "R2-sum": lambda: compose_spaces(real_line(), real_line()),
    "R2-euclidean": lambda: vector_space(2),
}
SPACES = {key: build() for key, build in FACTORIES.items()}

#: ways to break a trace entry; each sends the screen back to the sweep
BREAKS = ("bump-a", "bump-b", "nan", "inf", "-inf", "-0.0", "nan-penalty", "inf-penalty",
          "wide", "short")
coordinate = st.one_of(st.floats(-10.0, 10.0), st.just(-0.0), st.just(0.0))


def _paired(space, xs, ys, fa, fb) -> PairedTrace:
    steps = len(xs)
    return PairedTrace(
        IterationTrace(space, tuple(xs), ((0,),) * steps, tuple(fa)),
        IterationTrace(space, tuple(ys), ((0,),) * steps, tuple(fb)),
        (0.0,) * steps,
    )


def _system(space, lam):
    system = banach_half_system()
    return dataclasses.replace(system, pair=dataclasses.replace(system.pair, space=space), lam=lam)


def _outcome(fn, paired, system):
    try:
        return repr(fn(paired, system))
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return (type(exc), str(exc))


@st.composite
def converging_traces(draw):
    """A contracting orbit per side with decaying penalties, maybe broken in places."""
    key = draw(st.sampled_from(sorted(SPACES)))
    dim = SPACES[key].dim
    horizon = draw(st.integers(0, 10))
    slope = draw(st.floats(0.0, 0.9))
    x0 = draw(st.tuples(*[coordinate] * dim))
    y0 = draw(st.tuples(*[coordinate] * dim))
    wa, wb = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    xs = [tuple(c * slope**n for c in x0) for n in range(horizon + 1)]
    ys = [tuple(c * slope**n for c in y0) for n in range(horizon + 1)]
    fa = [wa * slope**n for n in range(horizon + 1)]
    fb = [wb * 0.5**n for n in range(horizon + 1)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(BREAKS))
        i = draw(st.integers(0, horizon))
        side = draw(st.sampled_from((xs, ys)))
        if kind == "bump-a":
            fa[i] += draw(st.floats(0.0, 20.0))
        elif kind == "bump-b":
            fb[i] += draw(st.floats(0.0, 20.0))
        elif kind in ("nan", "inf", "-inf", "-0.0"):
            side[i] = (float(kind),) * dim
        elif kind == "nan-penalty":
            fa[i] = math.nan
        elif kind == "inf-penalty":
            fb[i] = math.inf
        else:
            side[i] = (1.0,) * (dim + 1 if kind == "wide" else dim - 1)
    lam = draw(st.one_of(st.just(slope), st.floats(0.0, 0.999)))
    s = draw(st.one_of(st.floats(0.0, 5.0), st.just(math.nan)))
    return key, _paired(SPACES[key], xs, ys, fa, fb), lam, s


@settings(max_examples=100, deadline=None)
@given(case=converging_traces())
def test_the_screen_gives_the_reference_certificate(case):
    key, paired, lam, s = case
    system = with_s(_system(SPACES[key], lam), s)
    assert _outcome(check_l2_bound, paired, system) == _outcome(
        reference_check_l2_bound, paired, system
    )


def _counting_abs(monkeypatch) -> list:
    """Rebind the line metric to one that counts its calls; returns the count cell."""
    calls = [0]
    plain = spaces._abs_metric

    def counting(x, y):
        calls[0] += 1
        return plain(x, y)

    monkeypatch.setattr(spaces, "_abs_metric", counting)
    return calls


def test_a_part_whose_bound_fails_without_a_violating_cell_passes():
    # row 2's bound pairs y_3's distance with y_2's penalty: 1 + 1 > 1.5,
    # while each of its cells is 1, so the sweep decides and finds nothing
    space = real_line()
    paired = _paired(
        space,
        [(0.0,)] * 4,
        [(0.0,), (0.0,), (0.0,), (1.0,)],
        [0.0] * 4,
        [0.0, 0.0, 1.0, 0.0],
    )
    system = with_s(_system(space, 0.0), 1.5)
    cert = check_l2_bound(paired, system)
    assert cert.ok
    assert repr(cert) == repr(reference_check_l2_bound(paired, system))


@dataclasses.dataclass
class _Weighted:
    """A callable metric whose ``__hash__`` is None, as for any plain dataclass."""

    weight: float

    def __call__(self, x, y):
        return self.weight * abs(x[0] - y[0])


def test_an_unhashable_or_unregistered_metric_takes_the_sweep():
    weighted = MetricSpace("w", 1, _Weighted(2.0))
    for space in (compose_spaces(weighted, real_line()), weighted):
        assert not spaces._coordinatewise_monotone(space.metric), space.name
        paired = _contracting_trace(space, 6)
        system = _system(space, 0.9)
        assert repr(check_l2_bound(paired, system)) == repr(
            reference_check_l2_bound(paired, system)
        )


def test_the_full_sweep_names_a_violation_the_screen_meets_later():
    # the screen meets (5, 2), in column 2, before row 3; row-major order
    # puts (3, 4) first, and only the full sweep may name it
    space = vector_space(2)
    xs = [(8.0 * 0.5**n, -1.0 * 0.5**n) for n in range(9)]
    ys = [(-2.0 * 0.5**n, 3.0 * 0.5**n) for n in range(9)]
    fa = [0.5**n for n in range(9)]
    fb = list(fa)
    fa[5] += 40.0
    fb[4] += 16.0
    paired = _paired(space, xs, ys, fa, fb)
    system = _system(space, 0.5)
    cert = check_l2_bound(paired, system)
    assert cert.first_violation == (3, 4)
    assert repr(cert) == repr(reference_check_l2_bound(paired, system))


def _contracting_trace(space, horizon):
    dim = space.dim
    xs = [tuple(c * 0.9**n for c in (4.0, -3.0, 1.0)[:dim]) for n in range(horizon + 1)]
    ys = [tuple(c * 0.9**n for c in (-2.0, 5.0, 0.5)[:dim]) for n in range(horizon + 1)]
    fa = [2.0 * 0.9**n for n in range(horizon + 1)]
    fb = [0.5 * 0.8**n for n in range(horizon + 1)]
    return _paired(space, xs, ys, fa, fb)


@pytest.mark.parametrize("key", ["R", "R2-sum"])
def test_a_long_converging_trace_takes_linearly_many_metric_calls(monkeypatch, key):
    calls = _counting_abs(monkeypatch)
    space = FACTORIES[key]()
    horizon = 300
    paired = _contracting_trace(space, horizon)
    system = _system(space, 0.9)
    cert = check_l2_bound(paired, system)
    # each metric call takes dim line-metric calls; the sweep would take h^2
    assert cert.ok and calls[0] <= 8 * horizon * space.dim


def _builtin_and_json_entries(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(
        '{"name": "affine", "space": {"kind": "real"},'
        ' "regions": {"a": {"lo": -1e12, "hi": 1e12, "sample_lo": -10.0, "sample_hi": 10.0}},'
        ' "maps": {"t_a": {"name": "affine", "slope": 0.97, "offset": 0.03},'
        ' "t_b": {"name": "affine", "slope": 0.97, "offset": 0.03}},'
        ' "lambda": 0.97, "dist": 0.0, "x0": 7.0, "y0": -4.0}'
    )
    entries = [SYSTEMS[key] for key in ("e1", "e1-product", "banach-half", "banach-affine")]
    return entries + [load_instance_json(str(path))]


def test_every_bounds_trace_of_verify_takes_linearly_many_metric_calls(monkeypatch, tmp_path):
    calls = _counting_abs(monkeypatch)
    for entry in _builtin_and_json_entries(tmp_path):
        system = entry.build()
        q0 = entry.quadruple(entry.default_x0, entry.default_y0)
        paired, _ = run_paired(system, q0, 300, 1e-9)
        calls[0] = 0
        cert = check_l2_bound(paired, system)
        assert cert.ok, system.name
        assert calls[0] <= 8 * paired.steps * system.pair.space.dim, system.name
