"""Surface guard: every defaulted parameter of the package is set by some call.

A default that no call in src/, tests/ or perfbench/ ever overrides is a
setting nobody runs or tests; the value belongs in the function body.
Calls are matched by the called name (``f(...)`` or ``obj.f(...)``), so a
parameter counts as set when any same-named call passes it by keyword or
by position, or passes ``*args`` or ``**kwargs``.  Dunder methods are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proxiter"
CALLERS = ("src", "tests", "perfbench")


def _functions(tree: ast.AST):
    """(function, drops_first) for every def; methods drop self or cls."""
    for node in ast.walk(tree):
        body = getattr(node, "body", [])
        for child in body if isinstance(body, list) else []:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, isinstance(node, ast.ClassDef)


def _defaulted(path: Path):
    """(label, function name, positional index or None, parameter) per default."""
    for fn, method in _functions(ast.parse(path.read_text(), str(path))):
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        label = f"{path.name}:{fn.lineno} {fn.name}"
        positional = fn.args.posonlyargs + fn.args.args
        if method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for i, arg in enumerate(positional[len(positional) - len(fn.args.defaults):]):
            index = len(positional) - len(fn.args.defaults) + i
            yield label, fn.name, index, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, fn.name, None, arg.arg


def _calls() -> dict[str, list[tuple[float, set]]]:
    """Called name -> (positional count, keyword names) per call site."""
    out: dict[str, list[tuple[float, set]]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                keywords = {k.arg for k in node.keywords}
                out.setdefault(name, []).append((count, keywords))
    return out


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = _calls()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, name, index, param in _defaulted(path):
            sites = calls.get(name, [])
            if not any(
                param in kws or None in kws or (index is not None and count > index)
                for count, kws in sites
            ):
                unset.append(f"{label}({param})")
    assert not unset, "defaulted parameters no call sets: " + ", ".join(unset)
