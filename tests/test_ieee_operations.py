"""IEEE-754 guards: the package squares by multiplying, and the cyclic
geometry is written as literals.

``+``, ``-``, ``*``, ``/`` and ``sqrt`` are correctly rounded on every
IEEE-754 platform; CPython's float ``x ** 2`` calls libm ``pow``, which is
not, so a square written that way ties report bits to the host's libm.  The
same holds for ``math.cos`` and ``math.sin``, so ``affine_cyclic_example``
takes its spokes from ``float.fromhex`` literals; the test below checks that
each literal is within one ulp of the formula in its comment.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

from proxiter import instances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxiter"


def _squares_by_pow(path: Path):
    """``path:line`` of every ``x ** 2`` and ``x **= 2``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.BinOp):
            op, exponent = node.op, node.right
        elif isinstance(node, ast.AugAssign):
            op, exponent = node.op, node.value
        else:
            continue
        if isinstance(op, ast.Pow) and isinstance(exponent, ast.Constant) and exponent.value == 2:
            yield f"{path.name}:{node.lineno}"


def test_no_module_squares_with_pow():
    found = [site for path in sorted(PACKAGE.glob("*.py")) for site in _squares_by_pow(path)]
    assert found == [], f"square as x * x, not x ** 2 (libm pow): {found}"


def test_the_affine_triple_calls_no_cos_or_sin():
    path = PACKAGE / "instances.py"
    tree = ast.parse(path.read_text(), str(path))
    (fn,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "affine_cyclic_example"
    ]
    called = {
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not called & {"cos", "sin"}


def test_the_spoke_literals_are_cos_and_sin_of_their_angles_to_one_ulp():
    r = 1.0 / math.sqrt(3.0)
    assert len(instances._SPOKE_INNER) == len(instances._SPOKE_UNIT) == 3
    for j, (inner, unit) in enumerate(zip(instances._SPOKE_INNER, instances._SPOKE_UNIT)):
        a = math.pi / 2.0 + j * 2.0 * math.pi / 3.0
        want = (r * math.cos(a), r * math.sin(a), math.cos(a), math.sin(a))
        for got, formula in zip(inner + unit, want):
            assert abs(got - formula) <= math.ulp(formula), (j, got, formula)
