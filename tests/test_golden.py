"""Byte-identity of the cheap CLI reports against the recorded golden digests.

bench/golden.json maps a case id (the argv joined by spaces) to the sha256 of
the stdout that case printed when the digests were recorded.  The cases here
are the ones that take well under a second each; the benchmark checks the
rest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from onsagerkit import cli

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())

REPORT_PRESETS = ["A2", "G2", "C3", "A1~", "A2~", "C2~", "G2~", "C3~", "B3~"]
CASES = (
    ["%s --json --preset %s" % (cmd, name) for cmd in ("structconst", "chars") for name in REPORT_PRESETS]
    + [
        "verify --preset A2 --jmax 2 --height 2",
        "verify --preset G2 --jmax 5 --height 5",
        "verify --preset C3 --jmax 5 --height 5",
        "verify --preset A1~ --jmax 3 --height 3",
    ]
)


@pytest.mark.parametrize("case", CASES)
def test_stdout_matches_golden_digest(case, capsys):
    assert cli.main(case.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]
