"""Surface guards: every defaulted parameter is set by some call, and every
exported function is reached by the package or named as library-only.

A default that no call in src/ or perfbench/ ever overrides is a setting
no command or benchmark runs; the value belongs in the function body, and a
test that turns it tests a setting the package never takes.  Calls are
matched by the called name (``f(...)`` or ``obj.f(...)``), so a parameter
counts as set when any same-named call passes it by keyword or by
position, or passes ``*args`` or ``**kwargs``.  Dunder methods are exempt.

An exported function that no other code of the package loads is reached by
no command; it must state a checked property of its own (``LIBRARY_ONLY``)
or go.

Every parameter of a module-level function or method is read in its body: a
parameter the body ignores is a setting that changes nothing.  Nested defs
and lambdas are exempt, since they fill the map and sampler protocols, and
so is a method's self or cls.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proxiter"
CALLERS = ("src", "perfbench")


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


#: exported functions no package code calls, and the statement each checks
LIBRARY_ONLY = {
    "contraction_residual": "the contraction inequality at one quadruple "
    "(perfbench/tracing.py spans it by name)",
    "detect_limit": "the confirmation-window limit rule on a finished trace "
    "(perfbench/tracing.py spans it by name)",
    "split_limit_validate": "the split-limit step: a summed tail near the summed "
    "floor puts each tail near its own floor (acceptance criterion 8)",
    "example1_fa": "Example 1's penalty f_A, the reference for the e1 kernels",
    "example1_fb": "Example 1's penalty f_B, the reference for the e1 kernels",
    "pow2_floor": "Example 1's dyadic band 2^floor(log2 x), the reference for "
    "the e1 point map",
    "cyclic_residual": "the summed contraction inequality at one triple, the "
    "reference for the cyclic campaign (tests/test_sampler_oracle.py)",
}


def _exported_functions() -> dict[str, str]:
    """Name -> defining module for each module-level function __init__.py re-exports."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    out = {}
    for node in init.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = ast.parse((PACKAGE / f"{node.module}.py").read_text())
        defs = {d.name for d in module.body if isinstance(d, ast.FunctionDef)}
        out.update({a.name: node.module for a in node.names if a.name in defs})
    return out


def _loaders() -> dict[str, set]:
    """Name -> the (module, top-level def or None) places that load it, outside __init__.py."""
    out: dict[str, set] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.setdefault(node.id, set()).add((path.stem, owner))
    return out


def test_every_exported_function_is_called_or_library_only():
    loaders = _loaders()
    # a load inside the function's own body is recursion, which reaches nothing
    uncalled = {
        name
        for name, module in _exported_functions().items()
        if not loaders.get(name, set()) - {(module, name)}
    }
    unlisted = sorted(uncalled - LIBRARY_ONLY.keys())
    stale = sorted(LIBRARY_ONLY.keys() - uncalled)
    assert not unlisted, "exported functions no package code calls: " + ", ".join(unlisted)
    assert not stale, "LIBRARY_ONLY entries that are called or not exported: " + ", ".join(stale)


def test_readme_library_only_list_names_exactly_the_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library-only entry points\n", 1)[1].split("\n## ", 1)[0]
    # a bullet opens with its names, each in backticks, up to the first "`:"
    heads = re.findall(r"^- (.*?`):", section, flags=re.MULTILINE)
    named = [name for head in heads for name in re.findall(r"`(\w+)", head)]
    assert sorted(named) == sorted(LIBRARY_ONLY)


def _unread(tree: ast.Module, filename: str) -> list[str]:
    """'file:line name(param)' for each parameter its module-level def or method never reads."""
    unread = []
    methods = [
        (child, True)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for child in node.body
    ]
    for fn, method in [(node, False) for node in tree.body] + methods:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        if method and params and params[0].arg in ("self", "cls"):
            params = params[1:]
        read = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{filename}:{fn.lineno} {fn.name}({a.arg})" for a in params
                   if a.arg not in read]
    return unread


def test_every_parameter_is_read_in_its_body():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        unread += _unread(ast.parse(path.read_text(), str(path)), path.name)
    assert not unread, "parameters no body reads: " + ", ".join(unread)


def test_the_unread_parameter_guard_flags_a_leftover_seed():
    source = (
        "def resolve_constants(system, seed=0):\n"
        "    return system.pair.dist_ab\n"
        "class Run:\n"
        "    def report(self, constants, *rest, **extra):\n"
        "        return [lambda rng, n: rest for _ in extra]\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        def draw(rng, n):\n"
        "            return []\n"
        "        return draw\n"
    )
    assert _unread(ast.parse(source), "m.py") == [
        "m.py:1 resolve_constants(seed)", "m.py:4 report(constants)",
    ]
