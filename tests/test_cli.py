"""Command line contract: exit codes, report shapes, CSV output."""

import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

import proxiter as px
from proxiter import cli, instances, iteration, systems
from proxiter.cli import _emit, main
from proxiter.instances import ONE_ATOM
from test_cyclic_campaign import two_campaigns


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_e1_converges(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--instance", "e1", "--x0", "3", "--y0", "-2",
        "--steps", "500", "--tol", "1e-9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["limit"] == "0"
    assert payload["report"]["stop_reason"] == "tolerance-met"
    assert payload["version"] and payload["seed"] == 0
    assert payload["config"]["instance"] == "e1"


def test_run_e1_from_the_floor(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance", "e1", "--x0", "0", "--y0", "-1")
    assert code == 0
    assert json.loads(out)["report"]["steps"] == 10


@pytest.mark.parametrize("flags", [("--x0", "5,5"), ("--y0", "5,5"), ("--x0", "1,2", "--y0", "3,4")])
def test_run_cyclic_refuses_start_flags(capsys, flags):
    # a cyclic solve picks its own starts, so a start flag would be ignored
    code, out, err = run_cli(capsys, "run", "--instance", "cyclic3-affine", *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: --x0 and --y0 apply to system instances")


def test_run_cyclic_affine_reports_residuals(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance", "cyclic3-affine")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "converged"
    assert max(payload["result"]["gap_residuals"]) <= 1e-8
    assert max(payload["result"]["cycle_residuals"]) <= 1e-8


def test_run_csv_trace(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--instance", "e1", "--x0", "3", "--y0", "-2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x_n,u_n,y_n,v_n,rho_xy,f_a_u,f_b_v"
    first = lines[1].split(",")
    assert first[1] == "3" and first[3] == "-2"
    assert float(lines[2].split(",")[1]) == 6.0


@pytest.mark.parametrize("name", ["cyclic3-affine", "cyclic3-singleton"])
def test_cyclic_csv_is_the_solved_first_rotation(capsys, name):
    # the CSV replays rotation 0 of cyclic3_solve from the very same start
    ct = px.CYCLIC[name].build()
    for seed in (0, 5):
        code, out, _ = run_cli(
            capsys, "run", "--instance", name, "--seed", str(seed), "--format", "csv"
        )
        assert code == 0
        rng = random.Random(seed)  # cyclic3_solve draws rotation i from seed + 17 * i
        g, b, c = (region.draw(rng, 1)[0] for region in ct.regions)
        system = px.cyclic3_reduce(ct)
        paired, _ = px.run_paired(system, px.Quadruple(g + g, b + c, ONE_ATOM, b + c), 500, 1e-9)
        expected = io.StringIO()
        px.write_trace_csv(paired, expected)
        assert out == expected.getvalue()


def test_run_undecided_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--instance", "e1", "--x0", "3", "--y0", "-2",
        "--steps", "5", "--tol", "1e-12",
    )
    assert code == 2


def test_run_reports_no_limit_when_one_side_never_settles(capsys, tmp_path):
    # side A halves toward 0 and settles; side B flips sign forever
    spec = {
        "name": "settle-and-flip",
        "space": {"kind": "real"},
        "regions": {"a": {"lo": -1e9, "hi": 1e9, "sample_lo": -50, "sample_hi": 50}},
        "maps": {
            "t_a": {"name": "affine", "slope": 0.5},
            "t_b": {"name": "affine", "slope": -1.0},
        },
        "lambda": 0.5,
        "x0": 1.0,
        "y0": 1.0,
    }
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--steps", "200")
    report = json.loads(out)["report"]
    assert code == 2
    assert report["stop_reason"] == "max-steps"
    assert report["limit"] is None and report["proximity_residual"] is None


def test_run_with_no_steps_reports_no_limit(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance", "banach-half", "--steps", "0")
    report = json.loads(out)["report"]
    assert code == 2
    assert report["stop_reason"] == "max-steps" and report["steps"] == 0
    assert report["limit"] is None


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_emit_writes_strict_json(capsys):
    _emit({"min_residual": math.inf, "values": [math.nan, -math.inf, 0.5], "n": 3}, None)
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload == {"min_residual": "Infinity", "values": ["NaN", "-Infinity", 0.5], "n": 3}


def test_emit_keeps_finite_report_bytes(capsys, tmp_path):
    payload = {"b": [1.0, 0.1, None], "a": {"x": -2.5e-300, "s": "text"}}
    expected = json.dumps(payload, indent=2, sort_keys=True)
    _emit(payload, None)
    assert capsys.readouterr().out == expected + "\n"
    out = tmp_path / "report.json"
    _emit(payload, str(out))
    assert out.read_text() == expected + "\n"


def test_run_rejects_point_outside_region(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "e1", "--x0", "-5", "--y0", "-2")
    assert code == 1
    assert "error" in err


def test_run_unknown_instance(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "nope")
    assert code == 1 and "unknown instance" in err


def test_verify_e1(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--instance", "e1", "--samples", "10000",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "certified-on-samples"
    assert payload["certification"]["min_residual"] >= -1e-10
    assert payload["bounds"]["l1_ok"] and payload["bounds"]["l2_ok"]


def test_verify_e1_lowered_lambda_refuted(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--instance", "e1", "--lambda", "0.5",
        "--samples", "10000", "--seed", "1",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "refuted"
    assert "witness" in payload["certification"]


def test_verify_banach_half_and_alias(capsys):
    for name in ("banach-half", "banach"):
        code, out, _ = run_cli(capsys, "verify", "--instance", name, "--samples", "2000")
        assert code == 0
        assert json.loads(out)["verdict"] == "certified-on-samples"


def test_run_rejects_nonpositive_tolerance(capsys):
    code, _, err = run_cli(
        capsys, "run", "--instance", "e1", "--x0", "3", "--y0", "-2", "--tol", "-1"
    )
    assert code == 1 and "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--kind", "cd", "--instance", "e1-pair", "--budget", "3", "--tol", "nan"),
        ("scan", "--kind", "cd", "--instance", "e1-pair", "--budget", "3", "--tol", "0"),
        ("scan", "--kind", "uc", "--instance", "circle-origin-pair", "--tol", "nan"),
        ("scan", "--kind", "uc", "--instance", "circle-origin-pair", "--tol", "inf"),
        ("run", "--instance", "e1", "--tol", "nan"),
        ("run", "--instance", "e1", "--tol", "inf"),
        ("scan", "--kind", "uniqueness", "--instance", "e1", "--grid", "0:5:1", "--tol", "nan"),
    ],
)
def test_non_finite_or_zero_tolerance_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "tol must be positive" in err


@pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "nan:1:1", "0:nan:1", "0:1:nan", "0:1:inf"])
def test_non_finite_grid_is_an_error(capsys, grid):
    code, out, err = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", "e1", f"--grid={grid}"
    )
    assert (code, out) == (1, "") and "bad grid spec" in err


@pytest.mark.parametrize("grid, budget", [("0:2000:1", "1000"), ("0:4:1", "4")])
def test_grid_over_the_budget_is_an_error(capsys, monkeypatch, grid, budget):
    checked = _count_calls(monkeypatch, "make_infimum_sequence", [cli])
    code, out, err = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", "e1", f"--grid={grid}",
        "--budget", budget,
    )
    assert (code, out) == (1, "") and f"has more than --budget {budget} points" in err
    assert checked == []


@pytest.mark.parametrize("grid", ["abc", "0:1:nan", "0:2000:1"])
def test_bad_grid_is_refused_before_the_run(capsys, monkeypatch, grid):
    runs = _count_calls(monkeypatch, "run_paired", [cli])
    streamed = _count_calls(monkeypatch, "PairedRun", [cli])
    code, out, err = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", "e1", f"--grid={grid}"
    )
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert runs == streamed == []


def test_huge_grid_stops_at_the_budget():
    # the parse stops once the grid passes the budget, before building the rest
    with pytest.raises(px.ProxiterError, match="more than --budget 1000 points"):
        cli._parse_grid("0:1e12:1", 1000)


def test_grid_of_exactly_the_budget_is_scanned(capsys):
    assert cli._parse_grid("0:4:1", 5) == [0.0, 1.0, 2.0, 3.0, 4.0]
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", "e1", "--grid", "0:4:1",
        "--budget", "5",
    )
    payload = json.loads(out)
    assert code == 0 and payload["candidates"] + payload["skipped"] == 5


def test_verify_cyclic_affine(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--instance", "cyclic3-affine", "--samples", "3000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summed_residual_min"] >= -1e-10
    assert payload["reduction"]["verdict"] == "certified-on-samples"


def _counted_cyclic(monkeypatch, name, in_probe):
    """CYCLIC[name] rebuilt so that its draws and its map calls are recorded.

    Map calls made inside ``check_p_invariance`` (the invariance probes) are
    not recorded: in_probe is non-empty while one runs.  Returns the built
    triple, the (region, n) draws and the mapped points.
    """
    draws, map_calls = [], []
    entry = instances.CYCLIC[name]
    ct = entry.build()

    def counted_draw(region):
        def draw(rng, n):
            draws.append((region.name, n))
            return region.draw(rng, n)

        return dataclasses.replace(region, draw=draw)

    def counted_t(p):
        if not in_probe:
            map_calls.append(p)
        return ct.t(p)

    probe = systems.check_p_invariance

    def flagged_probe(*args, **kwargs):
        in_probe.append(True)
        try:
            return probe(*args, **kwargs)
        finally:
            in_probe.pop()

    counted = dataclasses.replace(
        ct, regions=tuple(counted_draw(r) for r in ct.regions), t=counted_t
    )
    monkeypatch.setitem(
        instances.CYCLIC, name, dataclasses.replace(entry, build=lambda: counted)
    )
    monkeypatch.setattr(systems, "check_p_invariance", flagged_probe)
    return ct, draws, map_calls


def test_verify_cyclic_draws_once_and_maps_nine_times_per_sample(capsys, monkeypatch):
    # one campaign: each region's column is drawn once, and each sample maps
    # g, b and c once for the summed residual and twice more for the
    # reduction's T^3 (the two-campaign verify drew twice and made 12 calls).
    # A sample tests a segment 15 times: once in each of its 9 map calls,
    # once for the diagonal g||g and once for its output ga||ga, whose halves
    # share one region, and twice each for b||c and its output.  It makes 9
    # 2-D metric calls: the triple's 3 sides and its images' 3, which the
    # reduction's before reuses, and the 3 sides of the T^3 outputs; the
    # composed product metric and the second penalty are not called.
    in_probe = []
    segment_tests, metric_calls, composed_calls = [], [], []

    def counted_region(region, calls):
        def contains(p):
            if not in_probe:
                calls.append(p)
            return region.contains(p)

        return dataclasses.replace(region, contains=contains)

    def counted_space(space, calls):
        def metric(x, y):
            if not in_probe:
                calls.append((x, y))
            return space.metric(x, y)

        return dataclasses.replace(space, metric=metric)

    segment_region, vector_space, compose_spaces = (
        instances.segment_region, instances.vector_space, instances.compose_spaces
    )
    monkeypatch.setattr(
        instances, "segment_region",
        lambda *args, **kwargs: counted_region(segment_region(*args, **kwargs), segment_tests),
    )
    monkeypatch.setattr(
        instances, "vector_space", lambda dim: counted_space(vector_space(dim), metric_calls)
    )
    monkeypatch.setattr(
        instances, "compose_spaces",
        lambda s1, s2: counted_space(compose_spaces(s1, s2), composed_calls),
    )
    ct, draws, loop_calls = _counted_cyclic(monkeypatch, "cyclic3-affine", in_probe)
    samples = 500
    code, out, _ = run_cli(
        capsys, "verify", "--instance", "cyclic3-affine", "--samples", str(samples)
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "certified-on-samples"
    assert sorted(draws) == [(r.name, samples) for r in ct.regions]
    assert len(loop_calls) == 9 * samples
    assert len(segment_tests) == 15 * samples
    assert len(metric_calls) == 9 * samples
    assert composed_calls == []


def test_verify_cyclic_singleton_maps_its_one_triple_once(capsys, monkeypatch):
    # every singleton triple holds the same three point objects, so the
    # campaign maps the first one 9 times and repeats it for the rest;
    # evaluating every triple would make 9 * 2000 = 18 000 calls
    ct, draws, map_calls = _counted_cyclic(monkeypatch, "cyclic3-singleton", [])
    samples = 2000
    argv = ("verify", "--instance", "cyclic3-singleton", "--samples", str(samples))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "certified-on-samples"
    assert sorted(draws) == [(r.name, samples) for r in ct.regions]
    assert len(map_calls) == 9
    assert repr(instances.verify_cyclic(ct, samples, 0, 8)) == repr(
        two_campaigns(ct, samples, 0, 8)
    )
    # the report's bytes are those of the two campaigns it fuses
    monkeypatch.setattr(cli, "verify_cyclic", two_campaigns)
    assert run_cli(capsys, *argv) == (code, out, "")


def test_run_cyclic_certifies_once(capsys, monkeypatch):
    # the summed inequality is rotation invariant: one certification, not one per rotation
    calls = _count_calls(monkeypatch, "certify_cyclic", (cli, instances))
    code, out, _ = run_cli(capsys, "run", "--instance", "cyclic3-affine")
    assert code == 0 and json.loads(out)["outcome"] == "converged"
    assert len(calls) == 1


def test_verify_cyclic_without_samples_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--instance", "cyclic3-affine", "--samples", "0"
    )
    assert (code, out, err) == (1, "", "error: samples must be >= 1\n")


def test_scan_uniqueness_grid(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", "e1",
        "--grid", "0:100:0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["alpha"] == "0"
    assert payload["candidates"] > 50


def test_scan_uniqueness_needs_grid(capsys):
    code, _, err = run_cli(capsys, "scan", "--kind", "uniqueness", "--instance", "e1")
    assert code == 1 and "grid" in err


def test_scan_uc_half_line_pair(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "uc", "--instance", "e1-pair", "--budget", "1000"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "no-counterexample"


def test_scan_cd_open_pair_finds_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "cd", "--instance", "open-interval-pair",
        "--budget", "1000",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "counterexample"
    assert payload["witness"]["reason"] == "limit-escapes-region"
    assert payload["witness"]["limit_estimate"] == "1"


def test_scan_uc_circle_pair_finds_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "uc", "--instance", "circle-origin-pair",
        "--budget", "10",
    )
    assert code == 3
    assert json.loads(out)["witness"]["tail_separation"] == pytest.approx(2.0)


def test_scan_wrong_instance_kind(capsys):
    code, _, err = run_cli(capsys, "scan", "--kind", "cd", "--instance", "e1")
    assert code == 1 and "pair instance" in err


def test_list_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0 and "cyclic3-affine" in out
    code, out, _ = run_cli(capsys, "list", "--format", "json")
    payload = json.loads(out)
    names = {row["name"] for row in payload["instances"]}
    assert "e1" in names and "circle-origin-pair" in names
    # list draws nothing, so it takes and reports no seed
    assert payload["seed"] is None and "seed" not in payload["config"]


def test_list_table_by_name_is_the_default(capsys):
    # the table is list's default output, so it can also be asked for by name
    code, out, err = run_cli(capsys, "list", "--format", "table")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "list") == (0, out, "")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_list_out_writes_what_list_prints(capsys, tmp_path, fmt):
    # --format alone chooses the shape; --out only where it goes
    path = tmp_path / f"instances.{fmt}"
    code, printed, _ = run_cli(capsys, "list", "--format", fmt)
    assert run_cli(capsys, "list", "--format", fmt, "--out", str(path)) == (0, "", "")
    written = path.read_text()
    if fmt == "json":
        # the config echoes --out, and nothing else differs
        written, printed = json.loads(written), json.loads(printed)
        assert (written["config"].pop("out"), printed["config"].pop("out")) == (str(path), None)
    assert code == 0 and written == printed
    if fmt == "table":
        assert run_cli(capsys, "list", "--out", str(path)) == (0, "", "")
        assert path.read_text() == printed


def test_json_instance_file_via_cli(capsys, tmp_path):
    spec = {
        "name": "half-move",
        "space": {"kind": "real"},
        "regions": {"a": {"lo": -1e9, "hi": 1e9, "sample_lo": -50, "sample_hi": 50}},
        "maps": {
            "t_a": {"name": "affine", "slope": 0.5, "offset": 2.0},
            "t_b": {"name": "affine", "slope": 0.5, "offset": 2.0},
        },
        "lambda": 0.5,
        "dist": 0.0,
        "x0": 10.0,
        "y0": 0.0,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "run", "--instance", str(path))
    assert code == 0
    assert float(json.loads(out)["report"]["limit"]) == pytest.approx(4.0, abs=1e-8)


GOOD_SPEC = {
    "regions": {"a": {"lo": -10.0, "hi": 10.0}},
    "maps": {"t_a": {"name": "affine", "slope": 0.5}, "t_b": {"name": "affine", "slope": 0.5}},
    "lambda": 0.5,
}


def _good_spec_with(**changes):
    """GOOD_SPEC with each ``a__b=value`` change set at spec["a"]["b"]."""
    spec = json.loads(json.dumps(GOOD_SPEC))
    for dotted, value in changes.items():
        *parents, leaf = dotted.split("__")
        node = spec
        for key in parents:
            node = node[key]
        node[leaf] = value
    return spec


BAD_SPECS = {
    "no-lambda": {k: v for k, v in GOOD_SPEC.items() if k != "lambda"},
    "lambda-abc": _good_spec_with(**{"lambda": "abc"}),
    "top-level-array": [1],
    "bound-abc": _good_spec_with(regions__a__lo="abc"),
    "map-without-name": _good_spec_with(maps__t_a={"slope": 0.5}),
    "unknown-map-parameter": _good_spec_with(maps__t_a={"name": "affine", "slop": 1}),
    "map-parameter-abc": _good_spec_with(maps__t_a={"name": "affine", "slope": "abc"}),
    "regions-not-an-object": _good_spec_with(regions=5),
    "start-abc": _good_spec_with(x0="abc"),
    "unknown-map-name": _good_spec_with(maps__t_b={"name": "cubic"}),
    "unknown-region-kind": _good_spec_with(regions__a__kind="disc"),
    "unknown-space-kind": _good_spec_with(space={"kind": "plane"}),
    # bool("false") is True; only JSON true and false are flags
    "closed-lo-string": _good_spec_with(regions__a__closed_lo="false"),
    "closed-hi-number": _good_spec_with(regions__a__closed_hi=0),
    "complete-string": _good_spec_with(regions__a__complete="no"),
    # an empty interval: every sample would be a non-member
    "interval-reversed": _good_spec_with(regions__a={"lo": 5.0, "hi": 1.0}),
    "interval-lo-nan": _good_spec_with(regions__a__lo=math.nan),
    "interval-hi-nan": _good_spec_with(regions__a__hi=math.nan),
    "interval-point-open-lo": _good_spec_with(regions__a={"lo": 1.0, "hi": 1.0, "closed_lo": False}),
    "interval-point-open-hi": _good_spec_with(regions__a={"lo": 1.0, "hi": 1.0, "closed_hi": False}),
    # json.load accepts NaN and Infinity; a bad distance or constant is a field error
    "dist-nan": _good_spec_with(dist=math.nan),
    "dist-inf": _good_spec_with(dist=math.inf),
    "dist-negative": _good_spec_with(dist=-1.0),
    "lambda-one": _good_spec_with(**{"lambda": 1.0}),
    "lambda-negative": _good_spec_with(**{"lambda": -0.5}),
    "lambda-nan": _good_spec_with(**{"lambda": math.nan}),
}


@pytest.mark.parametrize(
    "case, needle",
    [
        ("no-lambda", "'lambda'"),
        ("lambda-abc", "'lambda'"),
        ("invalid-json", "cannot read"),
        ("missing-file", "No such file"),
        ("top-level-array", "'(top level)'"),
        ("bound-abc", "'regions.a.lo'"),
        ("map-without-name", "'maps.t_a.name'"),
        ("unknown-map-parameter", "'maps.t_a.slop'"),
        ("map-parameter-abc", "'maps.t_a.slope'"),
        ("regions-not-an-object", "'regions'"),
        ("start-abc", "'x0'"),
        ("unknown-map-name", "'maps.t_b.name'"),
        ("unknown-region-kind", "'regions.a.kind'"),
        ("unknown-space-kind", "'space.kind'"),
        ("closed-lo-string", "field 'regions.a.closed_lo': must be true or false, got 'false'"),
        ("closed-hi-number", "field 'regions.a.closed_hi': must be true or false, got 0"),
        ("complete-string", "field 'regions.a.complete': must be true or false, got 'no'"),
        ("interval-reversed", "field 'regions.a.lo': the interval from 5.0 to 1.0 is empty"),
        ("interval-lo-nan", "field 'regions.a.lo': the interval from nan to 10.0 is empty"),
        ("interval-hi-nan", "field 'regions.a.hi': the interval from -10.0 to nan is empty"),
        ("interval-point-open-lo", "field 'regions.a.lo': the interval from 1.0 to 1.0 is empty"),
        ("interval-point-open-hi", "field 'regions.a.lo': the interval from 1.0 to 1.0 is empty"),
        ("dist-nan", "field 'dist': set distance must be finite"),
        ("dist-inf", "field 'dist': set distance must be finite"),
        ("dist-negative", "field 'dist': set distance cannot be negative"),
        ("lambda-one", "field 'lambda': contraction constant must be in [0,1)"),
        ("lambda-negative", "field 'lambda': contraction constant must be in [0,1)"),
        ("lambda-nan", "field 'lambda': contraction constant must be in [0,1)"),
    ],
)
def test_bad_instance_file_is_an_error_not_a_traceback(capsys, tmp_path, case, needle):
    path = tmp_path / f"{case}.json"
    if case == "invalid-json":
        path.write_text("{not json")
    elif case in BAD_SPECS:
        path.write_text(json.dumps(BAD_SPECS[case]))
    code, out, err = run_cli(capsys, "run", "--instance", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(path) in err and needle in err


def _count_calls(monkeypatch, name, modules):
    """Wrap every module binding of one function; returns the list of calls."""
    calls = []
    original = getattr(px, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted, raising=False)
    return calls


def test_constants_are_the_systems_own_whatever_the_seed(capsys):
    def never(rng, n):
        raise AssertionError("a constant was sampled")

    e1 = px.example1_system()
    unsampled = dataclasses.replace(
        e1,
        pair=dataclasses.replace(
            e1.pair,
            a=dataclasses.replace(e1.pair.a, draw=never),
            b=dataclasses.replace(e1.pair.b, draw=never),
        ),
        p=dataclasses.replace(e1.p, draw=never),
        f_a=px.ExternalFactor(e1.f_a.fn, 0.25),
        f_b=px.ExternalFactor(e1.f_b.fn, 0.5),
    )
    assert px.resolve_constants(unsampled) == px.SystemConstants(1.0, 0.25, 0.5)
    s_values = set()
    for seed in ("3", "7"):
        code, out, _ = run_cli(
            capsys, "verify", "--instance", "e1", "--samples", "300", "--seed", seed
        )
        assert code == 0
        s_values.add(json.loads(out)["certification"]["s_value"])
    assert s_values == {1.0}


def test_cyclic_csv_reuses_the_solve_run(capsys, monkeypatch):
    reduce_calls = _count_calls(monkeypatch, "cyclic3_reduce", (cli, instances))
    run_calls = _count_calls(monkeypatch, "run_paired", (cli, instances, iteration))
    code, _, _ = run_cli(capsys, "run", "--instance", "cyclic3-singleton", "--format", "csv")
    assert code == 0
    assert len(reduce_calls) == len(run_calls) == 3  # one per rotation


def test_verify_e1_calls_the_point_map_once_per_sample(capsys, monkeypatch):
    # H_A is T_A and H_B is T_B in e1, so the sample loop evaluates example1_T
    # once per sample; the invariance probes are not part of the loop
    inside = {"verify": False, "probe": False}
    loop_calls = []

    def flagging(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            inside[key] = True
            try:
                return original(*args, **kwargs)
            finally:
                inside[key] = False

        monkeypatch.setattr(module, name, wrapper)

    example1_T = instances.example1_T

    def counted_T(x):
        if inside["verify"] and not inside["probe"]:
            loop_calls.append(x)
        return example1_T(x)

    flagging(cli, "verify_contraction", "verify")
    flagging(systems, "check_p_invariance", "probe")
    monkeypatch.setattr(instances, "example1_T", counted_T)
    samples = 500
    code, _, _ = run_cli(capsys, "verify", "--instance", "e1", "--samples", str(samples))
    assert code == 0
    assert len(loop_calls) == samples


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["run"], "the following arguments are required: --instance"),
        (["run", "--instance", "e1", "--steps", "abc"], "invalid int value: 'abc'"),
        (["scan", "--kind", "bogus", "--instance", "e1"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        # CSV is a run output only
        (["verify", "--instance", "e1", "--format", "csv"], "invalid choice: 'csv'"),
        (["scan", "--kind", "uc", "--instance", "e1-pair", "--format", "csv"], "invalid choice: 'csv'"),
        (["list", "--format", "csv"], "invalid choice: 'csv'"),
        (["list", "--seed", "7"], "unrecognized arguments: --seed 7"),
    ],
)
def test_usage_error_exits_one(capsys, argv, needle):
    # 2 is reserved for "undecided"; a usage error is an error
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: proxiter") and needle in err


def test_help_and_version_still_exit_zero(capsys):
    for argv in (["--help"], ["run", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage: proxiter" in capsys.readouterr().out


def test_usage_error_exits_one_in_a_real_process(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "proxiter.cli", "run", "--instance", "e1", "--steps", "abc"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "usage: proxiter run" in proc.stderr and "invalid int value" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_is_an_error_not_a_traceback(capsys, tmp_path, fmt):
    path = tmp_path / "missing-dir" / f"report.{fmt}"
    code, out, err = run_cli(
        capsys, "run", "--instance", "e1", "--format", fmt, "--out", str(path)
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "No such file" in err
    assert not path.parent.exists()


def test_unwritable_verify_out_is_an_error(capsys, tmp_path):
    # the report path is a directory: open() fails with IsADirectoryError
    code, out, err = run_cli(
        capsys, "verify", "--instance", "e1", "--samples", "50", "--out", str(tmp_path)
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize(
    "flag, value",
    [("--x0", "abc"), ("--x0", ""), ("--x0", "1,,2"), ("--y0", "-2;x"), ("--y0", "")],
)
def test_bad_start_point_is_an_error_not_a_traceback(capsys, flag, value):
    code, out, err = run_cli(capsys, "run", "--instance", "e1", f"{flag}={value}")
    assert code == 1 and out == ""
    assert err.startswith(f"error: bad point {value!r}: could not convert string to float")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--instance", "e1", "--samples", "100000"],
        ["verify", "--instance", "cyclic3-affine"],
        ["run", "--instance", "e1", "--steps", "40000"],
        ["run", "--instance", "e1", "--format", "csv"],
    ],
)
def test_unwritable_out_fails_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def never(*args, **kwargs):
        raise AssertionError("the command worked before checking --out")

    for name in ("verify_contraction", "run_paired", "PairedRun", "verify_cyclic", "cyclic3_solve"):
        monkeypatch.setattr(cli, name, never)
    path = tmp_path / "missing-dir" / "report"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and "No such file" in err
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"error: cannot write {tmp_path}: ")


def test_out_check_leaves_an_existing_file_alone(capsys, monkeypatch, tmp_path):
    # the check opens nothing for writing: a command that fails after it
    # leaves the old file's bytes in place, and creates no new file
    path, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    path.write_text("old\n")

    def failing(*args, **kwargs):
        raise px.InvalidInputError("stop")

    monkeypatch.setattr(cli, "verify_contraction", failing)
    for target in (path, fresh):
        code, _, err = run_cli(capsys, "verify", "--instance", "e1", "--out", str(target))
        assert code == 1 and err == "error: stop\n"
    assert path.read_text() == "old\n" and not fresh.exists()


@pytest.mark.parametrize("instance", ["e1", "banach-affine", "e1-product", "cyclic3-affine"])
def test_a_negative_depth_is_refused(capsys, instance):
    # range(depth + 1) is empty below 0: the P probe would test nothing and pass
    code, out, err = run_cli(
        capsys, "verify", "--instance", instance, "--samples", "50", "--depth", "-1"
    )
    assert (code, out, err) == (1, "", "error: depth must be >= 0, got -1\n")


def test_one_parser_serves_every_command_in_a_process(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--instance", "e1", "--samples", "50", "--lambda", "0.5")
    assert code == 3 and json.loads(out)["config"]["lam"] == 0.5
    # nothing the last command parsed carries over
    code, out, _ = run_cli(capsys, "verify", "--instance", "e1", "--samples", "50")
    assert code == 0 and json.loads(out)["config"]["lam"] is None
    code, out, err = run_cli(capsys, "verify", "--instance", "e1", "--samples", "abc")
    assert code == 1 and out == "" and "invalid int value: 'abc'" in err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out == f"proxiter {px.__version__}\n"
    assert cli._parser.cache_info().currsize == 1
    # a report made after other commands is the one a fresh process makes
    argv = ["verify", "--instance", "banach-affine", "--samples", "300", "--seed", "4"]
    code, out, err = run_cli(capsys, *argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "proxiter.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_verify_cyclic_refuses_lambda_before_any_sampling(capsys, monkeypatch):
    # a cyclic verify certifies its reduction's own constant (k**3), so an
    # override would be echoed in the config and never used
    def never(*args, **kwargs):
        raise AssertionError("the command sampled before refusing --lambda")

    for name in ("verify_cyclic", "verify_contraction"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run_cli(
        capsys, "verify", "--instance", "cyclic3-affine", "--lambda", "0.01", "--samples", "200"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: --lambda applies to system instances")


@pytest.mark.parametrize("kind", ["cd", "uc"])
def test_falsifier_scans_refuse_a_grid_before_any_work(capsys, monkeypatch, kind):
    def never(*args, **kwargs):
        raise AssertionError("the command scanned before refusing --grid")

    for name in ("pair_cd_generator", "pair_uc_generator", "cd_falsify", "uc_falsify"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run_cli(
        capsys, "scan", "--kind", kind, "--instance", "e1-pair", "--grid", "0:1:0.5"
    )
    assert (code, out) == (1, "")
    assert err == f"error: --grid applies to uniqueness scans, not {kind} scans\n"


def _run_into_a_closed_stdout(tmp_path, argv, unbuffered):
    """A child running the CLI whose stdout pipe has no reader left."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "proxiter.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
            timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_one_without_a_traceback(tmp_path, unbuffered):
    # the reader is gone before the child writes: block-buffered, the write
    # fails at the flush; unbuffered, inside the command
    proc = _run_into_a_closed_stdout(tmp_path, ["list", "--format", "json"], unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["--help"], ["--version"]])
def test_help_and_version_into_a_closed_stdout_exit_one(tmp_path, argv, unbuffered):
    # block-buffered, as a pipe is by default: argparse's SystemExit(0) must
    # not skip the flush; unbuffered, argparse's own write must not drop the
    # error it raises
    proc = _run_into_a_closed_stdout(tmp_path, argv, unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_verify_cyclic_refuted_reports_its_witness_triple(capsys, monkeypatch):
    entry = instances.CYCLIC["cyclic3-affine"]
    ct = entry.build()
    broken = px.CyclicTriple(ct.space, ct.regions, ct.t, 0.05, ct.dists)
    monkeypatch.setitem(
        instances.CYCLIC, "cyclic3-broken",
        dataclasses.replace(entry, name="cyclic3-broken", build=lambda: broken),
    )
    code, out, _ = run_cli(capsys, "verify", "--instance", "cyclic3-broken", "--samples", "200")
    payload = json.loads(out)
    assert code == 3 and payload["verdict"] == "refuted"
    assert payload["summed_residual_min"] < -1e-10 and "reduction" not in payload
    assert len(payload["witness"]) == 3
    assert all(len(p.split(";")) == 2 for p in payload["witness"])


def test_run_cyclic_undecided(capsys):
    code, out, _ = run_cli(capsys, "run", "--instance", "cyclic3-affine", "--steps", "3")
    assert code == 2
    assert json.loads(out)["outcome"] == "undecided"


def test_scan_uniqueness_undecided_when_the_run_does_not_settle(capsys, tmp_path):
    path = tmp_path / "slow.json"
    spec = _good_spec_with(maps__t_a__slope=0.99, maps__t_b__slope=0.99, **{"lambda": 0.99})
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "uniqueness", "--instance", str(path),
        "--grid", "0:1:0.5", "--tol", "1e-12",
    )
    assert code == 2
    assert json.loads(out)["outcome"] == "undecided"


def test_scan_uniqueness_counts_skipped_candidates(capsys):
    # -2 and -1 lie outside [0, inf); one grid point in it has no infimum sequence
    code, out, _ = run_cli(capsys, "scan", "--kind", "uniqueness", "--instance", "e1", "--grid=-2:2:1")
    payload = json.loads(out)
    assert code == 0
    assert (payload["candidates"], payload["skipped"]) == (2, 3)


def test_run_csv_out_holds_the_bytes_stdout_gets(capsys, tmp_path):
    argv = ("run", "--instance", "e1", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "trace.csv"
    code_out, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert (code, code_out, printed) == (0, 0, "")
    assert path.read_text() == out and out.startswith("n,x_n,")
