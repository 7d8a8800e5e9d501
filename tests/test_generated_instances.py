"""Generated JSON instances through the command line.

Each instance has one affine map x -> a*x + b on both sides of one region,
the whole real line or a closed interval that the map keeps invariant, with
dist(A,B) = 0.  Well-formed instances must get the verdict the
geometry dictates; malformed ones (a key dropped, or a value replaced by an
arbitrary JSON value) must fail cleanly.  Whatever the input, the exit code
is one of 0, 1, 2, 3 and nothing escapes as a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from proxiter.cli import main

#: verify samples per example; the refuting examples miss the constant by >= 1e-6
SAMPLES = "200"


def _spec(slope: float, offset: float, lam: float) -> dict:
    return {
        "name": "generated-affine",
        "space": {"kind": "real"},
        "regions": {"a": {"sample_lo": -10.0, "sample_hi": 10.0}},
        "maps": {
            "t_a": {"name": "affine", "slope": slope, "offset": offset},
            "t_b": {"name": "affine", "slope": slope, "offset": offset},
        },
        "lambda": lam,
        "dist": 0.0,
        "x0": 3.0,
        "y0": -2.0,
    }


def _cli(spec, *argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main on the spec written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--instance", path, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def _contract(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


offsets = st.floats(-10.0, 10.0)
signs = st.sampled_from((1.0, -1.0))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 0.999), fraction=st.floats(0.0, 1.0), sign=signs, offset=offsets)
def test_verify_certifies_a_contraction_within_its_constant(lam, fraction, sign, offset):
    slope = sign * lam * fraction  # |a| <= lambda
    code, out, err = _cli(_spec(slope, offset, lam), "verify", "--samples", SAMPLES)
    _contract(code, err)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "certified-on-samples"


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 0.999), excess=st.floats(2e-6, 1.5), sign=signs, offset=offsets)
def test_verify_refutes_a_map_steeper_than_its_constant(lam, excess, sign, offset):
    # RESIDUAL_TOL absorbs a smaller gap between |a| and lambda
    slope = sign * (lam + excess)
    code, out, err = _cli(_spec(slope, offset, lam), "verify", "--samples", SAMPLES)
    _contract(code, err)
    assert code == 3, err
    assert json.loads(out)["verdict"] == "refuted"


def _interval_spec(lo: float, width: float, slope: float, lam: float) -> dict:
    """x -> slope*x + mid*(1 - slope) on the closed [lo, lo + width], started at both ends.

    The map fixes the midpoint and moves every point toward it by |slope| <= 1,
    so the interval is invariant.
    """
    hi = lo + width
    mid = lo + width / 2.0
    affine = {"name": "affine", "slope": slope, "offset": mid * (1.0 - slope)}
    return {
        "name": "generated-interval",
        "space": {"kind": "real"},
        "regions": {"a": {"lo": lo, "hi": hi}},
        "maps": {"t_a": affine, "t_b": affine},
        "lambda": lam,
        "dist": 0.0,
        "x0": lo,
        "y0": hi,
    }


#: interval ends within +-2000: RESIDUAL_TOL is an absolute 1e-10, which float
#: rounding of the map at coordinates near 1e5 and beyond already exceeds
lows = st.floats(-1000.0, 1000.0)
widths = st.floats(1.0, 1000.0)
slopes = st.floats(-0.999, 0.999)


@settings(max_examples=40, deadline=1000)
@given(lo=lows, width=widths, slope=slopes, fraction=st.floats(0.0, 1.0))
def test_verify_certifies_an_interval_contraction_within_its_constant(lo, width, slope, fraction):
    lam = abs(slope) + fraction * (0.999 - abs(slope))  # |a| <= lambda < 1
    code, out, err = _cli(_interval_spec(lo, width, slope, lam), "verify", "--samples", SAMPLES)
    _contract(code, err)
    assert code == 0, out + err
    assert json.loads(out)["verdict"] == "certified-on-samples"


@settings(max_examples=40, deadline=1000)
@given(lo=lows, width=widths, slope=slopes.filter(lambda a: abs(a) >= 2e-6),
       fraction=st.floats(0.0, 1.0))
def test_verify_refutes_an_interval_map_steeper_than_its_constant(lo, width, slope, fraction):
    lam = fraction * (abs(slope) - 2e-6)  # lambda <= |a| - 2e-6
    code, out, err = _cli(_interval_spec(lo, width, slope, lam), "verify", "--samples", SAMPLES)
    _contract(code, err)
    assert code == 3, out + err
    assert json.loads(out)["verdict"] == "refuted"


#: the places a malformed variant breaks: a path into the spec
PATHS = (
    ("lambda",), ("dist",), ("x0",), ("y0",), ("name",), ("space",), ("space", "kind"),
    ("infima",), ("regions",), ("regions", "a"), ("regions", "a", "lo"),
    ("regions", "a", "sample_hi"), ("maps",), ("maps", "t_a"), ("maps", "t_a", "name"),
    ("maps", "t_a", "slope"), ("maps", "t_b", "offset"),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(-1.5, 1.5),
    offset=offsets,
    lam=st.floats(0.0, 0.999),
    path=st.sampled_from(PATHS),
    drop=st.booleans(),
    value=json_values,
    command=st.sampled_from(("run", "verify")),
)
def test_malformed_instances_fail_cleanly(slope, offset, lam, path, drop, value, command):
    spec = _spec(slope, offset, lam)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if drop:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    argv = ("verify", "--samples", SAMPLES) if command == "verify" else ("run",)
    code, out, err = _cli(spec, *argv)
    _contract(code, err)
    if code == 1:
        assert out == "" and err.startswith("error: ")


@settings(max_examples=20, deadline=None)
@given(slope=st.floats(-1.5, 1.5), offset=offsets, lam=st.floats(0.0, 0.999))
def test_run_on_a_generated_instance_keeps_the_exit_contract(slope, offset, lam):
    code, out, err = _cli(_spec(slope, offset, lam), "run", "--steps", "300")
    _contract(code, err)
    report = json.loads(out)["report"]
    assert code == (0 if report["stop_reason"] == "tolerance-met" else 2)
    if abs(slope) < 0.9:
        assert code == 0
