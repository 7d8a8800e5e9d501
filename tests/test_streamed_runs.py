"""`run` streams its rows: the same bytes as the collected trace, flat memory, all or nothing.

``reference_run`` is the collected path that `run` took before it streamed:
``run_paired`` holds the whole trace, then the report is emitted from it or
``write_trace_csv`` writes it.  The command line must give the same exit
code and the same JSON and CSV bytes on every stop reason, including runs
that end next to a CSV chunk edge.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_oracles import reference_run_paired

import proxiter as px
from proxiter import cli
from proxiter.instances import load_instance_json
from proxiter.iteration import CSV_CHUNK_ROWS, PairedRun, run_paired, write_trace_csv

#: step budgets on both sides of the first CSV chunk edge and past the second
BUDGETS = (CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1)


def _spec(slope: float, offset: float, x0: float, y0: float, region: dict) -> dict:
    """x -> slope*x + offset on both sides of one region, with dist(A,B) = 0."""
    return {
        "name": "streamed-affine",
        "regions": {"a": {"sample_lo": -10.0, "sample_hi": 10.0, **region}},
        "maps": {
            "t_a": {"name": "affine", "slope": slope, "offset": offset},
            "t_b": {"name": "affine", "slope": slope, "offset": offset},
        },
        "lambda": 0.99,
        "dist": 0.0,
        "x0": x0,
        "y0": y0,
    }


def _write_spec(tmp_path, spec) -> str:
    path = os.path.join(tmp_path, "instance.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stop reason) of the collected run a `run` command names."""
    args = cli.build_parser().parse_args(argv)
    entry = load_instance_json(args.instance)
    system = entry.build()
    q0 = entry.quadruple(entry.default_x0, entry.default_y0)
    paired, report = run_paired(system, q0, args.steps, args.tol)
    out = io.StringIO()
    if args.format == "csv":
        write_trace_csv(paired, out)
    else:
        with contextlib.redirect_stdout(out):
            cli._emit(cli._report("run", args, report=report.to_dict()), None)
    code = cli.EXIT_OK if report.stop_reason == "tolerance-met" else cli.EXIT_UNDECIDED
    return code, out.getvalue(), report.stop_reason


def assert_streamed_as_collected(path: str, budget: int, tol: float) -> str:
    """Both formats of `run` against the collected run; returns the stop reason."""
    reasons = set()
    for fmt in ("json", "csv"):
        argv = ["run", "--instance", path, "--steps", str(budget), "--tol", repr(tol),
                "--seed", "5", "--format", fmt]
        code, out, err = _main(argv)
        want_code, want_out, reason = reference_run(argv)
        assert (code, err) == (want_code, "")
        assert code in (cli.EXIT_OK, cli.EXIT_UNDECIDED)
        assert out == want_out
        reasons.add(reason)
    (reason,) = reasons
    return reason


@pytest.mark.parametrize(
    "slope, offset, x0, budget, reason, steps",
    [
        (0.96, 1.0, 3.0, BUDGETS[3], "tolerance-met", 520),
        (0.965, 1.0, 3.0, BUDGETS[3], "tolerance-met", 594),
        (0.965, 1.0, 3.0, BUDGETS[2], "max-steps", BUDGETS[2]),
        (-1.0, 1.0, 3.0, BUDGETS[0], "max-steps", BUDGETS[0]),
        (-1.0, 1.0, 3.0, BUDGETS[1], "max-steps", BUDGETS[1]),
        (1.06, 0.0, 3.0, BUDGETS[3], "divergence-guard", 566),
        (1.07, 0.0, 3.0, BUDGETS[3], "divergence-guard", 487),
    ],
)
def test_run_streams_each_stop_reason_as_collected(tmp_path, slope, offset, x0, budget, reason,
                                                    steps):
    path = _write_spec(tmp_path, _spec(slope, offset, x0, -2.0, {}))
    assert assert_streamed_as_collected(path, budget, 1e-9) == reason
    code, out, _ = _main(["run", "--instance", path, "--steps", str(budget)])
    assert json.loads(out)["report"]["steps"] == steps


@st.composite
def affine_runs(draw):
    """A JSON instance that settles, flips forever or diverges, and a budget."""
    regime = draw(st.sampled_from(("settles", "flips", "diverges")))
    slope = {
        "settles": st.floats(0.9, 0.98),
        "flips": st.just(-1.0),
        "diverges": st.floats(1.03, 1.12),
    }[regime]
    spec = _spec(draw(slope), draw(st.floats(-5.0, 5.0)), draw(st.floats(-10.0, 10.0)),
                 draw(st.floats(-10.0, 10.0)), {})
    return spec, draw(st.sampled_from(BUDGETS)), draw(st.sampled_from((1e-9, 1e-6)))


@settings(max_examples=20, deadline=None)
@given(drawn=affine_runs())
def test_run_streams_what_run_paired_collects(tmp_path_factory, drawn):
    spec, budget, tol = drawn
    path = _write_spec(tmp_path_factory.mktemp("run"), spec)
    assert_streamed_as_collected(path, budget, tol)


def test_stop_reason_is_known_only_once_the_rows_run_out(tmp_path):
    entry = load_instance_json(_write_spec(tmp_path, _spec(-1.0, 1.0, 3.0, -2.0, {})))
    run = PairedRun(entry.build(), entry.quadruple(entry.default_x0, entry.default_y0), 8, 1e-9)
    assert run.stop_reason is None
    assert len(list(islice(run, 4))) == 4 and run.stop_reason is None
    assert len(list(run)) == 9 and run.stop_reason == "max-steps"
    # a second pass starts unknown again
    assert len(list(islice(run, 4))) == 4 and run.stop_reason is None


#: x -> 1.005x on [-10, 10] from +-0.75 leaves the region at step 520, in the second CSV chunk
LEAVES = _spec(1.005, 0.0, 0.75, -0.75, {"lo": -10.0, "hi": 10.0})


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_run_that_leaves_its_region_writes_nothing(tmp_path, fmt):
    path = _write_spec(tmp_path, LEAVES)
    argv = ["run", "--instance", path, "--steps", "2000", "--format", fmt]
    code, out, err = _main(argv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert "left region [-10.0;10.0] at step 520" in err
    entry = load_instance_json(path)
    run = PairedRun(entry.build(), entry.quadruple(entry.default_x0, entry.default_y0), 2000, 1e-9)
    with pytest.raises(px.DomainViolationError):
        list(run)
    assert run.stop_reason is None

    new = os.path.join(tmp_path, "new.out")
    assert _main(argv + ["--out", new])[0] == cli.EXIT_ERROR
    assert not os.path.exists(new)

    old = os.path.join(tmp_path, "old.out")
    with open(old, "w") as fh:
        fh.write("an earlier report\n")
    assert _main(argv + ["--out", old])[0] == cli.EXIT_ERROR
    with open(old) as fh:
        assert fh.read() == "an earlier report\n"


def _run_peak(argv) -> int:
    """The tracemalloc peak of one main(argv) call above the memory traced before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    code, _, _ = _main(argv)
    assert code == cli.EXIT_UNDECIDED
    return tracemalloc.get_traced_memory()[1] - before


def test_a_json_run_holds_one_window_whatever_its_length(tmp_path):
    # x -> 1 - x from 3 never settles, so every budget is run to its end
    path = _write_spec(tmp_path, _spec(-1.0, 1.0, 3.0, -2.0, {}))
    argv = ["run", "--instance", path, "--format", "json", "--steps"]
    tracemalloc.start()
    try:
        _run_peak(argv + ["200"])  # warm caches before measuring
        short = _run_peak(argv + ["2000"])
        long = _run_peak(argv + ["20000"])
    finally:
        tracemalloc.stop()
    assert long - short <= 64 * 1024, (short, long)


def _counting_penalties(system: px.ExternalFactorSystem, calls: dict) -> px.ExternalFactorSystem:
    """The system with each penalty counting its calls in calls["f_a"] and calls["f_b"]."""

    def counted(name, factor):
        def f(c):
            calls[name] += 1
            return factor.fn(c)

        return dataclasses.replace(factor, fn=f)

    return dataclasses.replace(
        system, f_a=counted("f_a", system.f_a), f_b=counted("f_b", system.f_b)
    )


def _rows_and_penalty_calls(system, q0, max_steps) -> tuple:
    calls = {"f_a": 0, "f_b": 0}
    rows = list(PairedRun(_counting_penalties(system, calls), q0, max_steps, 1e-9))
    return rows, calls


def _reference_rows(system, q0, max_steps) -> list:
    paired, _ = reference_run_paired(system, q0, max_steps, 1e-9)
    a, b = paired.a, paired.b
    return list(zip(range(len(a.points)), a.points, a.celements, b.points, b.celements,
                    paired.rho_xy, a.f_values, b.f_values))


def test_a_single_atom_run_calls_each_penalty_once(tmp_path):
    # x -> 1 - x never settles, so all 1 000 steps run; H returns the start's atom throughout
    entry = load_instance_json(_write_spec(tmp_path, _spec(-1.0, 1.0, 3.0, -2.0, {})))
    system = entry.build()
    q0 = entry.quadruple(entry.default_x0, entry.default_y0)
    rows, calls = _rows_and_penalty_calls(system, q0, 1000)
    assert len(rows) == 1001
    assert calls == {"f_a": 1, "f_b": 1}
    assert repr(rows) == repr(_reference_rows(system, q0, 1000))


def test_a_mirror_run_calls_each_penalty_once_per_step():
    # e1's H is its T: every step makes a new external element
    system = px.example1_system()
    q0 = px.Quadruple((3.0,), (-2.0,), (3.0,), (-2.0,))
    rows, calls = _rows_and_penalty_calls(system, q0, 40)
    assert calls == {"f_a": len(rows), "f_b": len(rows)}
    assert repr(rows) == repr(_reference_rows(system, q0, 40))
