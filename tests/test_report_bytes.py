"""Report-bytes guard: a fixed CLI matrix must keep its exact output.

Each command runs in process; its stdout, stderr and exit code are folded
into one SHA-256 digest and compared with the recorded value.  A refactor
that changes any byte of any report, CSV or error message fails here.  The
matrix avoids instances that call libm cos/sin, so that the digests do not
depend on the platform's math library, except for the last row: the 2-D
circle witness of ``scan --kind uc``, whose circle candidates take cos/sin.
Its digest was recorded with glibc's libm and can differ on a platform whose
cos/sin round those angles differently.  The 4-D `cyclic3-affine` trace row
reads its spoke geometry from ``float.fromhex`` literals.

To re-record after an intended report change, run this file as a script
from the repository root with ``PYTHONPATH=src`` and paste its output over
EXPECTED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from proxiter.cli import main

#: two regions a != b, two different maps, non-zero infima and distance
JSON_INSTANCE = {
    "name": "guard-pair",
    "space": {"kind": "real"},
    "regions": {
        "a": {"lo": 0.0, "hi": 10.0, "name": "[0,10]"},
        "b": {"lo": 20.0, "hi": 30.0, "name": "[20,30]"},
    },
    "maps": {
        "t_a": {"name": "affine", "slope": 0.5},
        "t_b": {"name": "affine", "slope": 0.5, "offset": 12.5},
    },
    "lambda": 0.5,
    "dist": 10.0,
    "infima": {"a": 0.25, "b": 0.5},
}
JSON_NAME = "guard-pair.json"

#: malformed instance files, each refused with an error naming the field
MALFORMED = {
    "top-array.json": [1],
    "bound-abc.json": {"regions": {"a": {"lo": "abc"}}, "lambda": 0.5},
    "map-no-name.json": {"maps": {"t_a": {"slope": 0.5}}, "lambda": 0.5},
    "map-slop.json": {"maps": {"t_a": {"name": "affine", "slop": 1}}, "lambda": 0.5},
}

MATRIX = [
    ("run", "--instance", "e1"),
    ("run", "--instance", "e1", "--x0", "3", "--y0", "-2", "--steps", "5"),
    ("run", "--instance", "e1", "--format", "csv"),
    ("run", "--instance", "e1-product"),
    ("run", "--instance", "banach-half"),
    ("run", "--instance", "banach-half", "--steps", "0"),
    ("run", "--instance", "banach-affine", "--format", "csv", "--steps", "40"),
    ("run", "--instance", "cyclic3-singleton"),
    ("run", "--instance", "cyclic3-singleton", "--format", "csv", "--steps", "30"),
    ("run", "--instance", "e1", "--x0", "-5", "--y0", "-2"),
    ("run", "--instance", "e1-pair"),
    ("run", "--instance", JSON_NAME),
    ("run", "--instance", JSON_NAME, "--format", "csv", "--steps", "60"),
    ("verify", "--instance", "e1", "--samples", "300", "--seed", "1"),
    ("verify", "--instance", "e1", "--samples", "200", "--depth", "-1"),
    ("verify", "--instance", "e1", "--samples", "300", "--lambda", "0.5"),
    ("verify", "--instance", "e1-product", "--samples", "200"),
    ("verify", "--instance", "e1-product", "--samples", "200", "--lambda", "0.5"),
    ("verify", "--instance", "banach-half", "--samples", "300"),
    ("verify", "--instance", "banach-affine", "--samples", "300", "--depth", "-1"),
    ("verify", "--instance", "banach-affine", "--samples", "300", "--lambda", "0.3"),
    ("verify", "--instance", "cyclic3-singleton", "--samples", "200"),
    ("verify", "--instance", JSON_NAME, "--samples", "200"),
    ("scan", "--kind", "uniqueness", "--instance", "e1", "--grid", "0:20:0.5"),
    ("scan", "--kind", "uniqueness", "--instance", "banach-affine", "--grid", "0:8:0.5"),
    ("scan", "--kind", "cd", "--instance", "e1-pair", "--budget", "40"),
    ("scan", "--kind", "uc", "--instance", "e1-pair", "--budget", "40"),
    ("scan", "--kind", "cd", "--instance", "open-interval-pair", "--budget", "40"),
    ("scan", "--kind", "uc", "--instance", "open-interval-pair", "--budget", "40"),
    ("scan", "--kind", "cd", "--instance", "circle-origin-pair", "--budget", "40"),
    *(("run", "--instance", name) for name in MALFORMED),
    ("run", "--instance", "cyclic3-affine", "--format", "csv"),
    ("run", "--instance", "e1-product", "--format", "csv"),
    ("scan", "--kind", "uc", "--instance", "circle-origin-pair", "--budget", "40"),
]

EXPECTED = {
    "run --instance e1": "45652c0ee1f25b69196bcd1c569c4bbd64227fdab1ccf3559236f4e3a808292f",
    "run --instance e1 --x0 3 --y0 -2 --steps 5": "838eaae70c441d6dbd64f01e6c6915378a0a89d21002dc9a05e6fbb67a97df05",
    "run --instance e1 --format csv": "c499bff8f4c5b0ac2559aa89c588709a38e459d41ee4c6a95cffc4ebb048642d",
    "run --instance e1-product": "bf29e7b42557135d49a343ac09996a7c5240cc56c489ffe44edaf46bdfe91392",
    "run --instance banach-half": "04ea7b842694ceecb8a2a31f73a75d13de16bfc19e126f3735fb5ec392f7beb8",
    "run --instance banach-half --steps 0": "419daf7468806f0ed11661cc91224d4c99bd68c2be3e9271d40d440e9235339f",
    "run --instance banach-affine --format csv --steps 40": "214023854bb48b818b6bf1f6beb1d0aa2782ccd74e5a56b1c46c6546565a2a9c",
    "run --instance cyclic3-singleton": "652a557eeab0524cef0ddb8198593cb14a1cd8899a0408aa14139c63803d686e",
    "run --instance cyclic3-singleton --format csv --steps 30": "4e5d78e56749afc32fa6b983fabbb690d5a6c4da8a2d0916195e5cb6890767e2",
    "run --instance e1 --x0 -5 --y0 -2": "3c309c7bc624e28d875e3d1038c3a226cecb3f215d0a87be9ec4e55e4a1290ea",
    "run --instance e1-pair": "60070f28deeaa094297387edf8f48afd61e15f5c08c4381f0e5a21bd0199b0fe",
    "run --instance guard-pair.json": "61e2ea629670cf854bedd132863515bcd66b73c1fcd51f9cf4e18da132b4337a",
    "run --instance guard-pair.json --format csv --steps 60": "b42323000a20d5901ef3fd00ad88b300c91843eaf863b5ba4564b0b00fb4dbcb",
    "verify --instance e1 --samples 300 --seed 1": "9cfd087781dadae46848a70cd0d96221004db8fbfe9c82a445aa1c857d80a042",
    "verify --instance e1 --samples 200 --depth -1": "58cf92633bb8b90d79f53d789bb3cf19a3e1b5f2fe5049f0f8141e61396278b0",
    "verify --instance e1 --samples 300 --lambda 0.5": "362e4005193315b926455ff6e71952f8b79c72982e195712859b2cb399915c6e",
    "verify --instance e1-product --samples 200": "da52b41151673c47b394e04d7413d2fab1687cd0863aa9a0dc74ffa12e75453c",
    "verify --instance e1-product --samples 200 --lambda 0.5": "c1e6a7be3e335d462deaeb5b4db19ca7da882feb459eaf314817b2c500f7bc1c",
    "verify --instance banach-half --samples 300": "2dc2b034e820bd01ffb0fb6b5c5585dc7dfd7a7377f5263368d2eaecdd224168",
    "verify --instance banach-affine --samples 300 --depth -1": "58cf92633bb8b90d79f53d789bb3cf19a3e1b5f2fe5049f0f8141e61396278b0",
    "verify --instance banach-affine --samples 300 --lambda 0.3": "928fc8ccc0b7aa8f51053f76ef5f7e2b1828fcab08865bdb97f04ec3e31e97f4",
    "verify --instance cyclic3-singleton --samples 200": "3bd87e306f13b9baabdf8bb4c4e58f1a65415d6fc2d61d1ab16990a3414876a3",
    "verify --instance guard-pair.json --samples 200": "42ebd1d0a941b37fd040c30af5091cad805d3c3b4ab0649ac63db9d57a8f2ab6",
    "scan --kind uniqueness --instance e1 --grid 0:20:0.5": "2c761b26bc5d90e029253fd364a0fe15363d457536a00b65db312fd453516d38",
    "scan --kind uniqueness --instance banach-affine --grid 0:8:0.5": "bbca72094fc27c481bb67f0b9ff131f78ec9ec315bc2c6878352f669ff5c0ca9",
    "scan --kind cd --instance e1-pair --budget 40": "7a84336184fb859afc615ed38a7a865f482116580557dbc9d6337ef3e21a8c7a",
    "scan --kind uc --instance e1-pair --budget 40": "acd337618e054da64aefb0e5cc6b7a760afce2227ef0dc37ae8bc235afc029b2",
    "scan --kind cd --instance open-interval-pair --budget 40": "a24b58c237fa82c9a582ba4f21e404012c2a3aa0f1e48721efefa38e0e594018",
    "scan --kind uc --instance open-interval-pair --budget 40": "9859c71b1ed8ddb346e37c033cf132dd4e30aa1f590fee24265400a7d412446e",
    "scan --kind cd --instance circle-origin-pair --budget 40": "69a5f849afd747712cf19fa07fab59c6ac4363247b95a369b3580d5ef6935bbb",
    "run --instance top-array.json": "08fa7e6416fb999c2f5c8dcbf373f1771f1cc32dbcf97397fee19a37075fc12e",
    "run --instance bound-abc.json": "fee18ba712bcc88d54934d5f3fe461925e7f591eff2665e89f6f4c0018cd9252",
    "run --instance map-no-name.json": "91b7d93dc50931978e215586581fca88bbe11198161982de5e01e19eabe1067a",
    "run --instance map-slop.json": "5989bbf06a1fb602144d5580aa0760511a2b892ac61d9dfa93d4dbab8085601c",
    "run --instance cyclic3-affine --format csv": "afc7479052b3dea3243deb932e86c90f67bfdd44d0a52adad850998609ed3348",
    "run --instance e1-product --format csv": "168860138f40a333650064ebd1ef666d56837c0fc72d508b604f30b3b15790d8",
    "scan --kind uc --instance circle-origin-pair --budget 40": "9094cdfe3f3fdb3486902f94eb8802f68284f4861658edab539436c18612a921",
}


def digest(argv) -> str:
    """SHA-256 over the exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def record(directory) -> dict:
    """Digest of every matrix command, run with the JSON instance in directory."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, spec in {JSON_NAME: JSON_INSTANCE, **MALFORMED}.items():
            with open(name, "w") as fh:
                json.dump(spec, fh)
        return {" ".join(argv): digest(argv) for argv in MATRIX}
    finally:
        os.chdir(cwd)


def test_report_bytes_match_the_record(tmp_path):
    assert record(tmp_path) == EXPECTED


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in record(tmp).items():
            print(f'    "{key}": "{value}",')
