"""Byte-identity of the CLI outputs that bench/golden.json does not cover.

tests/cli_digests.json maps a case id (the argv joined by spaces, with a
`--matrix-file` path replaced by the input's name in angle brackets) to the
sha256 of the JSON list [exit code, stdout, stderr] that the case gave when
the digests were recorded.  Every case runs in-process.

Re-record, after an intended output change, with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from onsagerkit import cli

DIGESTS = Path(__file__).resolve().with_name("cli_digests.json")

PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "C4", "D4", "G2", "F4", "E6",
           "A1~", "A2~", "A3~", "C2~", "G2~", "B3~", "C3~", "D4~", "F4~"]

# --matrix-file inputs by name: one row per line
MATRIX_FILES = {
    "hyperbolic": "2 -3\n-3 2\n",
    "A2^(2)": "2 -4\n-1 2\n",
    "C2~": "2 -1 0\n-2 2 -2\n0 -1 2\n",
    "positive entry": "2 1\n-1 2\n",
    "asymmetric zeros": "2 0\n-1 2\n",
    "non-integer": "2 x\n-1 2\n",
    "A3+C2": "2 -1 0 0 0\n-1 2 -1 0 0\n0 -1 2 0 0\n0 0 0 2 -2\n0 0 0 -1 2\n",
}


def _cases():
    cases = []
    for cmd in ("relations", "roots", "structconst", "verify", "chars"):
        for name in PRESETS:
            cases.append([cmd, "--preset", name])
            cases.append([cmd, "--preset", name, "--json"])
    for name, expr in (("A2", "[B1,[B1,B2]]"), ("A1~", "[B0,[B0,B1]]"),
                       ("G2~", "[B2,[B1,B0]]"), ("C2", "[B2,[B2,B1]]")):
        cases.append(["eval", "--preset", name, expr])
        cases.append(["eval", "--preset", name, expr, "--json"])
    cases += [["eval", "--preset", "A2", "[B1,B7]"], ["eval", "--preset", "A2", "[B1 B2]"]]
    cases += [["coeffs", "--a", str(a)] for a in range(-3, 1)]
    for name in MATRIX_FILES:
        source = ["--matrix-file", "<%s>" % name]
        for cmd in ("relations", "roots", "structconst", "verify", "chars"):
            cases.append([cmd] + source)
        cases.append(["eval"] + source + ["[B1,B2]"])
    cases += [
        ["chars", "--preset", "C2", "--height", "1"],
        ["chars", "--preset", "A1", "--height", "2"],
        ["chars", "--preset", "A1~", "--height", "1"],
        ["verify", "--preset", "A2~", "--jmax", "3", "--height", "5"],
        # the largest shared affine reports (2.2 and 6.1 MB)
        ["structconst", "--preset", "E6~", "--json"],
        ["structconst", "--preset", "E7~", "--json"],
    ]
    return cases


CASES = _cases()


def _digest(argv, folder):
    """sha256 of [exit code, stdout, stderr] of one in-process run."""
    argv = [str(folder / (a[1:-1] + ".txt")) if a.startswith("<") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _write_matrix_files(folder):
    for name, text in MATRIX_FILES.items():
        (folder / (name + ".txt")).write_text(text)


@pytest.fixture(scope="module")
def matrix_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("matrices")
    _write_matrix_files(folder)
    return folder


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_recorded_digest(argv, matrix_folder, recorded):
    assert _digest(argv, matrix_folder) == recorded[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        _write_matrix_files(folder)
        digests = {" ".join(argv): _digest(argv, folder) for argv in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("recorded %d digests to %s" % (len(digests), DIGESTS.name), file=sys.stderr)
