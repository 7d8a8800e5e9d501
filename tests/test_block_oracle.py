"""Block kernels against the scalar campaign they stand in for.

A system's block kernel checks a certification campaign's samples in numpy
arrays.  The scalar campaign (``_one_step`` per sample, itself pinned by
``test_verify_oracle.py``) is the reference: on the block path the report
must be the same (compared through ``repr``, so ``-0.0`` and NaN count),
the kernel must leave the rng where ``p.draw`` leaves it, and its rows and
terms must be ``p.draw``'s rows and the system's own callables' values.
Where the kernel cannot stand in, the scalar path must run, and its error
is the one reported.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxiter import (
    Block,
    CUniverse,
    ExternalFactor,
    ExternalFactorSystem,
    Quadruple,
    RelationP,
    SetPair,
    banach_affine_system,
    banach_half_system,
    banach_system,
    declare_block,
    example1_T,
    example1_system,
    interval,
    live_block,
    product_system,
    real_line,
    systems,
    verify_contraction,
)
from proxiter.errors import DomainViolationError, InvalidInputError
from proxiter.instances import _parity, _uniforms

np = pytest.importorskip("numpy")

SIZES = (1, 2, 7, 4099)
#: each system with a block kernel, and rng.random() draws per sample
DRAWS_PER_SAMPLE = {
    "e1": 2,
    "e1-product": 4,
    "banach-half": 2,
    "banach-affine": 2,
    "e1 x banach-affine": 4,
    "banach-half x banach-affine": 4,
}
SYSTEM_NAMES = tuple(DRAWS_PER_SAMPLE)
#: the system's own constant and 0.75 certify on every system's samples
#: (the banach maps halve every distance); 0.5 refutes e1 on most, 0.4 and
#: 0.0 refute every system on most
LAMBDAS = (None, 0.75, 0.5, 0.4, 0.0)
BUILDERS = {"e1": example1_system, "banach-half": banach_half_system,
            "banach-affine": banach_affine_system}


def _build(name):
    if name == "e1-product":
        return product_system(example1_system(), example1_system())
    factors = [BUILDERS[part]() for part in name.split(" x ")]
    return factors[0] if len(factors) == 1 else product_system(*factors)


def _scalar(system):
    return dataclasses.replace(system, block=None)


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the error is the compared outcome
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# every system with a block: the same report, rows, terms and rng state


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(SYSTEM_NAMES),
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(SIZES),
    lam=st.sampled_from(LAMBDAS),
    depth=st.sampled_from((0, 8)),
)
def test_block_report_is_the_scalar_report(name, seed, n, lam, depth):
    _assert_same_report(name, seed, n, lam, depth)


@pytest.mark.parametrize("name", ("banach-half", "banach-affine"))
@pytest.mark.parametrize("lam", (None, 0.75, 0.4, 0.0))
def test_banach_block_report_is_the_scalar_report_at_every_lambda(name, lam):
    for n in SIZES:
        _assert_same_report(name, 17, n, lam, 8)


def _assert_same_report(name, seed, n, lam, depth):
    system = _build(name)
    if lam is not None:
        system = dataclasses.replace(system, lam=lam)
    want = verify_contraction(_scalar(system), n, seed, depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_scalar_campaign", None)  # the block path must not need it
        got = verify_contraction(system, n, seed, depth=depth)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_both_verdicts_are_reached_on_the_block_path(name, monkeypatch):
    monkeypatch.setattr(systems, "_scalar_campaign", None)  # the block path must not need it
    system = _build(name)
    assert verify_contraction(system, 4099, 1).certified
    refuted = verify_contraction(dataclasses.replace(system, lam=0.4), 4099, 1)
    assert refuted.reason == "negative-residual" and refuted.witness is not None


def _assert_block_is_the_scalar_campaign(system, make_rng, n):
    """Rows, rng state and all six terms of the block against p.draw and the callables."""
    rng_draw, rng_block = make_rng(), make_rng()
    rows = system.p.draw(rng_draw, n)
    block = live_block(system)(rng_block, n)
    assert rng_block.getstate() == rng_draw.getstate()
    assert block.ok
    assert repr([block.row(i) for i in range(n)]) == repr(rows)
    assert all(t.dtype == np.float64 and t.shape == (n,) for t in block.terms)
    metric = system.pair.space.metric
    f_a, f_b = system.f_a.fn, system.f_b.fn
    for i, q in enumerate(rows):
        ta, tb = system.t_a(q.x, q.u), system.t_b(q.y, q.v)
        want = (
            metric(q.x, q.y), f_a(q.u), f_b(q.v),
            metric(ta, tb), f_a(system.h_a(q.x, q.u)), f_b(system.h_b(q.y, q.v)),
        )
        got = tuple(float(t[i]) for t in block.terms)
        assert repr(got) == repr(want), (i, q)


class Scripted:
    """An rng whose random() returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self):
        self.used += 1
        return self.values[self.used - 1]

    def getstate(self):
        return self.used


@pytest.mark.parametrize("name", SYSTEM_NAMES)
@pytest.mark.parametrize("n", (0,) + SIZES)
@pytest.mark.parametrize("seed", (0, 29))
def test_block_rows_terms_and_rng_state_match_the_scalar_callables(name, n, seed):
    _assert_block_is_the_scalar_campaign(_build(name), lambda: random.Random(seed), n)


#: in e1, x = 0 and y = -1 exactly (where alpha_parity is 0 by convention;
#: 1.0 is no draw of random(), but p_draw maps it all the same), the band
#: edges x = 1, 2, 4, the largest and the least nonzero draw; on the whole
#: line, both ends of the sampling box and 0
EDGE_DRAWS = [0.0, 1.0, 0.01, 0.0, 0.02, 1.0 - 2.0**-53, 0.04, 0.5, 2.0**-53, 1.0 / 99.0,
              0.5, 0.5]


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_block_matches_at_the_parity_edges(name):
    n = len(EDGE_DRAWS) // DRAWS_PER_SAMPLE[name]
    _assert_block_is_the_scalar_campaign(_build(name), lambda: Scripted(EDGE_DRAWS), n)


# ---------------------------------------------------------------------------
# the block draws: rng.random() values from numpy's MT19937, state written back

#: around the Mersenne Twister's 624-word twist and well past it
DRAW_SIZES = (0, 1, 2, 311, 312, 313, 623, 624, 625, 1001, 4099, 40000)


def _prepared(seed, before):
    rng = random.Random(seed)
    if before == "random":
        rng.random()
    elif before == "gauss":
        rng.gauss(0.0, 1.0)  # leaves gauss_next set
    return rng


@pytest.mark.parametrize("seed", (0, 1, 29, -5, "abc", 2**31 - 1, 10**30))
@pytest.mark.parametrize("before", (None, "random", "gauss"))
def test_uniforms_are_the_rngs_own_random_calls(seed, before):
    for m in DRAW_SIZES:
        calls, block = _prepared(seed, before), _prepared(seed, before)
        want = np.array([calls.random() for _ in range(m)], dtype=np.float64)
        got = _uniforms(block, m)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), m
        assert block.getstate() == calls.getstate(), m
        assert block.random() == calls.random(), m


def test_uniforms_call_an_overridden_random_once_per_draw():
    class Counting(random.Random):
        def random(self):
            self.calls += 1
            return super().random()

    for m in (0, 1, 625, 4099):
        rng, plain = Counting(7), random.Random(7)
        rng.calls = 0
        got = _uniforms(rng, m)
        assert rng.calls == m
        assert got.tobytes() == np.array([plain.random() for _ in range(m)]).tobytes()
        assert rng.getstate() == plain.getstate()


def test_uniforms_build_one_generator_per_thread(monkeypatch):
    built = []
    mt19937 = np.random.MT19937

    def counting(*args, **kwargs):
        built.append(args)
        return mt19937(*args, **kwargs)

    monkeypatch.setattr(np.random, "MT19937", counting)
    rng, calls = random.Random(3), random.Random(3)

    def draw_three():  # in a new thread, which has no generator yet
        return [_uniforms(rng, m).tobytes() for m in (0, 5, 700)]

    with ThreadPoolExecutor(max_workers=1) as thread:
        got = thread.submit(draw_three).result(timeout=60)
    assert len(built) == 1
    assert got == [np.array([calls.random() for _ in range(m)]).tobytes() for m in (0, 5, 700)]


def test_uniforms_in_two_threads_are_each_rngs_own_random_calls():
    sizes = [DRAW_SIZES[i % len(DRAW_SIZES)] for i in range(200)]
    start = threading.Barrier(2)

    def draws(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        got = [_uniforms(rng, m).tobytes() for m in sizes]
        return got, rng.getstate(), rng.random()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' loads and draws finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(draws, (11, 12), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for seed, (got, state, after) in zip((11, 12), results):
        calls = random.Random(seed)
        want = [np.array([calls.random() for _ in range(m)]).tobytes() for m in sizes]
        assert got == want, seed
        assert state == calls.getstate() and after == calls.random(), seed


def test_parity_is_alpha_parity_without_its_zero_case():
    values = [0.0, -0.0, 5e-324, sys.float_info.min]
    for k in range(-1074, 1024):
        p = math.ldexp(1.0, k)
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    values += [-v for v in values]
    want = np.array([(math.frexp(v)[1] - 1) % 2 for v in values], dtype=np.float64)
    got = _parity(np.frexp(np.array(values))[1])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# when the block must not stand in


def test_replacing_lambda_keeps_the_block_and_replacing_a_callable_retires_it():
    e1 = example1_system()
    assert live_block(dataclasses.replace(e1, lam=0.5)) is live_block(e1) is not None
    replaced = {
        "t_a": dataclasses.replace(e1, t_a=lambda x, c: (example1_T(x[0]),)),
        "h_b": dataclasses.replace(e1, h_b=lambda y, c: e1.t_b(y, c)),
        "f_a": dataclasses.replace(e1, f_a=ExternalFactor(lambda c: e1.f_a.fn(c), 0.0)),
        "p.draw": dataclasses.replace(e1, p=RelationP(e1.p.contains, lambda r, n: e1.p.draw(r, n))),
        "pair": dataclasses.replace(e1, pair=dataclasses.replace(e1.pair)),
    }
    for what, system in replaced.items():
        assert live_block(system) is None, what
    # a product has a block only when both factors have a live one
    assert live_block(product_system(e1, e1)) is not None
    assert live_block(product_system(e1, replaced["t_a"])) is None
    assert live_block(product_system(replaced["f_a"], e1)) is None


@pytest.mark.parametrize("build", (banach_half_system, banach_affine_system))
def test_the_banach_blocks_retire_with_their_map(build):
    system = build()
    assert live_block(dataclasses.replace(system, lam=0.4)) is live_block(system) is not None
    assert live_block(dataclasses.replace(system, t_a=lambda x, c: system.t_a(x, c))) is None
    assert live_block(product_system(example1_system(), system)) is not None


def test_banach_system_with_a_plain_map_stays_scalar():
    system = banach_system(lambda x: (x[0] / 2.0,), real_line(), interval(-1.0, 1.0), 0.5)
    assert live_block(system) is None


def test_a_stand_in_point_map_leaves_e1_scalar(monkeypatch):
    from proxiter import instances

    monkeypatch.setattr(instances, "example1_T", lambda x: example1_T(x))
    assert live_block(example1_system()) is None


def test_a_replaced_map_runs_the_scalar_campaign():
    e1 = example1_system()
    calls = []

    def t_a(x, c):
        calls.append(x)
        return e1.t_a(x, c)

    system = dataclasses.replace(e1, t_a=t_a, h_a=t_a)
    report = verify_contraction(system, 300, 5, depth=0)
    assert len(calls) == 300
    assert repr(report) == repr(verify_contraction(e1, 300, 5, depth=0))


def _flagging(run):
    def block(rng, n):
        b = run(rng, n)
        return Block(b.terms, False, b.row)

    return block


def test_a_flagged_block_replays_the_scalar_campaign_from_a_fresh_rng():
    e1 = example1_system()
    flagged = declare_block(e1, _flagging(live_block(e1)))
    for lam in (None, 0.5):
        system = flagged if lam is None else dataclasses.replace(flagged, lam=lam)
        assert repr(verify_contraction(system, 500, 11)) == repr(
            verify_contraction(_scalar(system), 500, 11)
        )


@pytest.mark.parametrize("fault", ["not-in-p", "t-b-escapes"])
def test_a_flagged_row_gives_the_scalar_error(fault):
    e1 = example1_system()
    if fault == "not-in-p":
        def draw(rng, n):
            rows = e1.p.draw(rng, n)
            rows[n // 2] = Quadruple((-1.0,), rows[0].y, (-1.0,), rows[0].y)
            return rows

        system = dataclasses.replace(e1, p=RelationP(e1.p.contains, draw))
        error = InvalidInputError
    else:
        t_b = lambda y, c: (y[0] + 50.0,)  # noqa: E731
        system = dataclasses.replace(e1, t_b=t_b, h_b=t_b)
        error = DomainViolationError
    system = declare_block(system, _flagging(live_block(e1)))
    want = _outcome(verify_contraction, _scalar(system), 200, 4)
    assert want.startswith(error.__name__)
    assert _outcome(verify_contraction, system, 200, 4) == want


# ---------------------------------------------------------------------------
# the array reduction on a table-driven system: NaN, infinities, ties, -0.0

TABLE = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1e16, 1.0, 0.1, 0.2, 0.3]),
    ),
    min_size=4,
    max_size=4,
)
OFFSET = 1000.0


def table_system(fa, fa_next, fb, fb_next, lam):
    """Each sample draws two indices k, j: x = k, y = -1 - j; each T moves a point OFFSET out.

    f_A reads fa at x and fa_next at T_A's output, f_B likewise, so every
    term of the contraction inequality is a value the strategy chose.
    """
    a = interval(0.0, float("inf"), sample_hi=1.0, name="[0,inf)")
    b = interval(float("-inf"), -1.0, sample_lo=-2.0, name="(-inf,-1]")
    pair = SetPair(real_line(), a, b, dist_ab=1.0)
    m = len(fa)

    def pick(c, near, far):
        i = int(abs(c))
        return far[i - int(OFFSET)] if i >= OFFSET else near[i]

    def p_contains(x, y, u, v):
        return a.contains(x) and b.contains(y) and u == x and v == y

    def p_draw(rng, n):
        out = []
        for _ in range(n):
            x, y = (float(rng.randrange(m)),), (-1.0 - rng.randrange(m),)
            out.append(Quadruple(x, y, x, y))
        return out

    t_a = lambda x, c: (x[0] + OFFSET,)  # noqa: E731
    t_b = lambda y, c: (y[0] - OFFSET,)  # noqa: E731
    system = ExternalFactorSystem(
        name="table",
        pair=pair,
        c_universe=CUniverse("table", lambda rng, n: []),
        t_a=t_a,
        h_a=t_a,
        t_b=t_b,
        h_b=t_b,
        f_a=ExternalFactor(lambda c: pick(c[0], fa, fa_next), 0.0),
        f_b=ExternalFactor(lambda c: pick(c[0] + 1.0, fb, fb_next), 0.0),
        p=RelationP(p_contains, p_draw),
        lam=lam,
    )

    def block(rng, n):
        k = np.empty(n)
        j = np.empty(n)
        for i in range(n):
            k[i], j[i] = rng.randrange(m), rng.randrange(m)
        xs, ys = k, -1.0 - j
        ta, tb = xs + OFFSET, ys - OFFSET
        ki, ji = k.astype(int), j.astype(int)
        terms = (
            np.abs(xs - ys), np.array(fa)[ki], np.array(fb)[ji],
            np.abs(ta - tb), np.array(fa_next)[ki], np.array(fb_next)[ji],
        )

        def row(i):
            x, y = (float(xs[i]),), (float(ys[i]),)
            return Quadruple(x, y, x, y)

        return Block(terms, True, row)

    return declare_block(system, block)


@settings(max_examples=150, deadline=None)
@given(
    fa=TABLE, fa_next=TABLE, fb=TABLE, fb_next=TABLE,
    lam=st.sampled_from((0.0, 0.5, 0.9)),
    n=st.sampled_from((1, 2, 7, 40)),
    seed=st.integers(0, 2**16),
)
# (rho + 0.1) + 1e16 and rho + (0.1 + 1e16) round apart on both sides
@example(fa=[0.1] * 4, fa_next=[0.1] * 4, fb=[1e16] * 4, fb_next=[1e16] * 4, lam=0.5, n=7, seed=0)
def test_block_reduction_matches_the_scalar_loop(fa, fa_next, fb, fb_next, lam, n, seed):
    system = table_system(fa, fa_next, fb, fb_next, lam)
    want = _outcome(verify_contraction, _scalar(system), n, seed, depth=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_scalar_campaign", None)
        got = _outcome(verify_contraction, system, n, seed, depth=1)
    assert got == want


# ---------------------------------------------------------------------------
# numpy stays optional and out of import and build time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: a JSON instance (read with load_instance_json) on the whole line
JSON_SPEC = {
    "name": "halving",
    "space": {"kind": "real"},
    "regions": {"a": {"sample_lo": -10.0, "sample_hi": 10.0}},
    "maps": {
        "t_a": {"name": "affine", "slope": 0.5, "offset": 1.0},
        "t_b": {"name": "affine", "slope": 0.5, "offset": 1.0},
    },
    "lambda": 0.5,
    "dist": 0.0,
    "x0": 3.0,
    "y0": -2.0,
}
#: commands that have no block kernel to run; they must never load numpy
SCALAR_COMMANDS = [
    ["verify", "--instance", "{json}", "--samples", "500", "--seed", "2"],
    ["run", "--instance", "cyclic3-affine"],
    ["verify", "--instance", "cyclic3-affine", "--samples", "500", "--seed", "2"],
]
BLOCK_COMMANDS = [
    ["verify", "--instance", "e1", "--samples", "3000", "--seed", "5"],
    ["verify", "--instance", "e1", "--samples", "3000", "--seed", "5", "--lambda", "0.5"],
    ["verify", "--instance", "e1-product", "--samples", "2000", "--seed", "3", "--depth", "0"],
    ["verify", "--instance", "banach-affine", "--samples", "3000", "--seed", "5"],
    ["verify", "--instance", "banach-affine", "--samples", "3000", "--seed", "5", "--lambda", "0.4"],
]
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "hidden":
    sys.modules["numpy"] = None  # import numpy now raises ImportError
from proxiter import SYSTEMS
from proxiter.cli import main
def loaded():
    return "numpy" in sys.modules and sys.modules["numpy"] is not None
for entry in SYSTEMS.values():
    entry.build()
built = loaded()
outs = []
for argv in json.loads(sys.argv[3]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    outs.append([code, buf.getvalue(), loaded()])
print(json.dumps({"numpy_after_build": built, "outs": outs}))
"""


def _probe(mode, commands):
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, SRC, mode, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_reports_are_the_same_with_numpy_hidden(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(JSON_SPEC))
    scalar = [[str(path) if a == "{json}" else a for a in argv] for argv in SCALAR_COMMANDS]
    # the scalar commands run first, so numpy is loaded after one only if it loads it
    commands = scalar + BLOCK_COMMANDS
    hidden, present = _probe("hidden", commands), _probe("present", commands)
    # building the registry never loads numpy; the first block campaign does
    assert not hidden["numpy_after_build"] and not present["numpy_after_build"]
    assert [out[:2] for out in hidden["outs"]] == [out[:2] for out in present["outs"]]
    assert [code for code, _, _ in present["outs"]] == [0, 0, 0, 0, 3, 0, 0, 3]
    assert [numpy for _, _, numpy in present["outs"]] == [False] * len(scalar) + [True] * len(
        BLOCK_COMMANDS
    )
