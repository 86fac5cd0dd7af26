"""Byte-identity of the cheap CLI reports against the recorded golden digests.

bench/golden.json maps a case id (the argv joined by spaces) to the sha256 of
the stdout that case printed when the digests were recorded.  The cases here
are the ones that take well under a second each; the benchmark checks the
rest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onsagerkit
from onsagerkit import cli

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())

REPORT_PRESETS = ["A2", "G2", "C3", "A1~", "A2~", "C2~", "G2~", "C3~", "B3~"]
CASES = (
    ["%s --json --preset %s" % (cmd, name) for cmd in ("structconst", "chars") for name in REPORT_PRESETS]
    + ["structconst --json --preset F4", "structconst --json --preset E6"]
    + [
        "verify --preset A2 --jmax 2 --height 2",
        "verify --preset G2 --jmax 5 --height 5",
        "verify --preset C3 --jmax 5 --height 5",
        "verify --preset A1~ --jmax 3 --height 3",
        "verify --preset C2~ --jmax 5 --height 5",
        "verify --preset G2~ --jmax 7 --height 7",
        "verify --preset B3~ --jmax 7 --height 7",
        "verify --preset C3~ --jmax 7 --height 7",
    ]
)


@pytest.mark.parametrize("case", CASES)
def test_stdout_matches_golden_digest(case, capsys):
    assert cli.main(case.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]


def test_golden_digests_under_optimize():
    # every case in one python -O interpreter: checks that are explicit
    # raises, not asserts, and outputs that do not depend on asserts
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "from onsagerkit import cli\n"
        "digests = {}\n"
        "for case in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(case.split())\n"
        "    digests[case] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]\n"
        "print(json.dumps(digests))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(CASES)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {case: [0, GOLDEN[case]] for case in CASES}
