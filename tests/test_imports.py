"""Import guard: the command line loads the standard library and proxiter only.

A third-party import on the command path (numpy alone adds about 11 MB of
resident memory) would raise every command's peak memory.  The check runs
in a fresh interpreter, so modules that pytest or other tests loaded do not
count, and it looks only at the modules that ``import proxiter.cli`` adds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import proxiter.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_the_cli_imports_only_the_standard_library_and_proxiter():
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "proxiter.cli" in loaded
    foreign = [
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "proxiter"
    ]
    assert not foreign, f"import proxiter.cli loads non-stdlib modules: {foreign}"
