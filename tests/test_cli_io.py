"""The CLI's plain-argv reader and `--json` writer against the argparse and
json.dumps calls they stand in for, the argv left to argparse, and the exit
codes of a run whose stdout is closed early and of a label too long to read."""

import collections
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from onsagerkit import cli
from test_cli_digests import CASES

ROOT = Path(__file__).resolve().parents[1]


def _bench_argvs():
    spec = importlib.util.spec_from_file_location("bench_cases", ROOT / "bench" / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return [case["argv"] for w in cases.WORKLOADS for case in cases.workload_cases(w)
            if case["kind"] == "cli"]


BENCH_ARGVS = _bench_argvs()


def _typed(args):
    return sorted((k, type(v), v) for k, v in vars(args).items())


def _argparse(argv):
    """argparse's Namespace for argv, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def _read(argv):
    """The reader's Namespace, checked against argparse's where it gives one."""
    args = cli.read_plain_argv(argv)
    if args is not None:
        want = _argparse(argv)
        assert want is not None and _typed(args) == _typed(want), argv
    return args


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_reader_agrees_with_argparse_on_recorded_argvs(argv):
    _read(argv)


@pytest.mark.parametrize("argv", BENCH_ARGVS, ids=" ".join)
def test_reader_reads_every_benchmark_argv(argv):
    assert _read(argv) is not None


COMMAND_WORDS = list(cli.COMMANDS) + ["nope", "-h", "--help"]
FLAGS = ["--json", "--pre", "--js", "--h", "--matrix", "--preset=A2", "--height=3", "-h",
         "--help", "--", "-", "A2", "[B1,B2]"]
VALUED = ["--preset", "--matrix-file", "--height", "--jmax", "--rmax", "--a"]
VALUES = ["A2", "C2~", "3", "0", "-1", " 4", "1_0", "x", "", "[B1,B2]", "m.txt", "--json"]
PIECES = st.one_of(st.sampled_from(FLAGS).map(lambda t: [t]),
                   st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES)).map(list))


@st.composite
def argvs(draw):
    """A command with some of its own options, plus up to two stray pieces,
    in any order: about one in six is plain."""
    command = draw(st.sampled_from(COMMAND_WORDS))
    _, sourced, options = cli.COMMANDS.get(command, ("", False, []))
    pieces = []
    if sourced:
        source = draw(st.sampled_from(["--preset", "--matrix-file"]))
        pieces.append([source, draw(st.sampled_from(VALUES))])
    for name, kw in options:
        if draw(st.booleans()):
            if "action" in kw:
                pieces.append([name])
            elif name.startswith("-"):
                pieces.append([name, draw(st.sampled_from(VALUES))])
            else:
                pieces.append([draw(st.sampled_from(VALUES))])
    pieces += draw(st.lists(PIECES, max_size=2))
    return [command] + [tok for piece in draw(st.permutations(pieces)) for tok in piece]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_agrees_with_argparse_on_generated_argvs(argv):
    _read(argv)


@pytest.mark.parametrize("argv", [
    ["verify", "--pre", "A2"],                    # an abbreviation
    ["verify", "--preset=A2"],                    # --opt=value
    ["verify", "--preset", "A2", "--json", "--json"],  # a repeat
    ["coeffs", "--a", "-2"],                      # a value starting with "-"
    ["verify", "--preset", "A2", "--jmax", "x"],  # a bad int
    ["verify", "--preset", "A2", "--matrix-file", "m.txt"],  # two sources
    ["verify"],                                   # no source
    ["coeffs"],                                   # no required --a
    ["eval", "--preset", "A2"],                   # no positional
    ["verify", "--preset", "A2", "extra"],        # a stray positional
    ["verify", "-h"],
    [],
])
def test_reader_leaves_other_argv_to_argparse(argv):
    assert cli.read_plain_argv(argv) is None


# sha256 of [exit code, stdout, stderr] of argv that only argparse reads,
# recorded before the plain-argv reader existed, with COLUMNS=80 on CPython
# 3.11; argparse's help and error text differ between CPython versions
ARGPARSE_PATH = {
    ("--help",): (0, "71f806dcc897bfe4c934d1b121889c76e9294b7c0c7ad6201a46918255769867"),
    ("verify", "--help"): (0, "b8d090cefb51fd64ccdf79bb782be7fa26ef10ecdcb11124728f9b86496cab7b"),
    ("nope", "--preset", "A2"): (2, "2040352f6f138c1f83e4f6a3caa9a905f9e5f90e9d5aff0a9141ead5316babf2"),
    ("verify", "--preset", "A2", "--jmax", "x"):
        (2, "cbb7463dd1ca61ba0ede9dbef14ace2dc5cd0112982e6933c7b56edeb055c656"),
    ("verify", "--pre", "A2"): (0, "1d9c5b0164e85d62477b257987de9b374e5b1f22f3aee22b0e7b996c7b92613f"),
    ("verify", "--preset", "A2", "--matrix-file", "m.txt"):
        (2, "16676c88b3a6194127dd080445a1a7fb62aac49985d64f0c99b1c44d9a25ae01"),
}


@pytest.mark.parametrize("argv", sorted(ARGPARSE_PATH), ids=" ".join)
def test_argparse_path_output_unchanged(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    want_code, digest = ARGPARSE_PATH[argv]
    assert code == want_code
    if sys.version_info[:2] == (3, 11):
        got = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
        assert hashlib.sha256(got).hexdigest() == digest


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    buf = io.StringIO()
    cli.write_json(value, buf.write)
    assert buf.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


# more than BATCH chunks of distinct lists, so the writer flushes inside it
FILLER = [[i] for i in range(cli.BATCH)]


@st.composite
def shared_values(draw):
    """The same few lists and dicts at several positions and depths: each
    after the first holds an earlier one, and each is used under "a", before
    FILLER, and again under "z", after it, where FILLER may be used again."""
    pool = []
    for _ in range(draw(st.integers(2, 4))):
        parts = draw(st.lists(json_values, min_size=1, max_size=3))
        if pool:
            parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(pool)))
        pool.append(parts if draw(st.booleans()) else {"k%d" % i: v for i, v in enumerate(parts)})
    wraps = st.sampled_from([lambda x: x, lambda x: [x], lambda x: {"w": [0, x]}])

    def uses():
        extra = draw(st.lists(st.sampled_from(pool), max_size=3))
        return [draw(wraps)(x) for x in draw(st.permutations(pool)) + extra]

    # FILLER met again is kept whole, and the kept text is written at the
    # third meeting: no flush may fall inside it
    return {"a": uses(), "big": FILLER, "z": uses() + draw(st.sampled_from([[], [FILLER, FILLER]]))}


@settings(max_examples=60, deadline=None)
@given(shared_values())
def test_writer_matches_json_dumps_on_shared_objects(value):
    writes = []
    cli.write_json(value, writes.append)
    out = "".join(writes)
    assert out == json.dumps(value, indent=2, sort_keys=True) + "\n"
    # a write ends inside "big": a flush falls between the uses under "a" and "z"
    big, z = out.index('\n  "big": '), out.index('\n  "z": ')
    assert any(big < end < z for end in itertools.accumulate(map(len, writes)))


class CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def test_a_large_report_reaches_write_in_batches(monkeypatch):
    out = CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["structconst", "--json", "--preset", "C3~"]) == 0
    monkeypatch.undo()
    report = cli.structconst_report(cli.preset("C3~"), None)
    assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert out.calls > 1


def _one_object_per_value(objects):
    """True when equal objects in the list are one object, and some repeat."""
    ids = {}
    for x in objects:
        ids.setdefault(json.dumps(x, sort_keys=True), set()).add(id(x))
    return all(len(same) == 1 for same in ids.values()) and len(ids) < len(objects)


@pytest.mark.parametrize("name", ["C3~", "E6"])
def test_structconst_shares_key_forms_terms_and_root_lists(name):
    report = cli.structconst_report(cli.preset(name), None)
    rows, field = (report["brackets"], "idx") if "brackets" in report else (report["ybrackets"], "coords")
    terms = [t for row in rows for t in row["rhs"]]
    # one key form per basis number, one term per (number, coeff)
    assert _one_object_per_value([k for row in rows for k in row["lhs"]] + [t[field] for t in terms])
    assert _one_object_per_value(terms)
    if name == "E6":  # one ntable list per root
        assert _one_object_per_value([row[k] for row in report["ntable"] for k in ("alpha", "beta")])


def test_writing_c3_affine_renders_each_shared_object_once_per_indent():
    """The writer walks a container at its first meeting, once more at each
    indent it meets it at again, to keep that text, and never after."""
    report = cli.structconst_report(cli.preset("C3~"), None)
    met, indents = collections.Counter(), collections.defaultdict(set)

    def meet(x, depth):
        if isinstance(x, (dict, list)) and x:
            met[id(x)] += 1
            indents[id(x)].add(depth)
            for v in (x.values() if isinstance(x, dict) else x):
                meet(v, depth + 1)

    meet(report, 0)
    renders = collections.Counter()

    class Dict(dict):
        def __iter__(self):
            renders[self.of] += 1
            return super().__iter__()

    class List(list):
        def __iter__(self):
            renders[self.of] += 1
            return super().__iter__()

    copies = {}

    def counted(x):
        """x as counted containers that share as x's do."""
        if not isinstance(x, (dict, list)):
            return x
        if id(x) not in copies:
            copy = Dict({k: counted(v) for k, v in x.items()}) if isinstance(x, dict) else List(map(counted, x))
            copy.of, copies[id(x)] = id(x), copy
        return copies[id(x)]

    writes = []
    cli.write_json(counted(report), writes.append)
    assert "".join(writes) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert all(renders[i] <= min(n, 1 + len(indents[i])) for i, n in met.items())
    assert sum(renders.values()) < sum(met.values()) / 2


@pytest.mark.parametrize("argv", [["structconst", "--json", "--preset", "C3~"],
                                  ["roots", "--preset", "A1~", "--height", "4000"]], ids=" ".join)
def test_a_closed_stdout_exits_141_quietly(argv):
    # 160 and 210 kB of output, more than a pipe's buffer and both ends' read
    # and write buffers hold, so the child is still writing when the reader
    # closes its end, and its next write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "onsagerkit.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_a_label_too_long_to_read_is_bad_input():
    # int() refuses more digits than the interpreter's string-conversion
    # limit (4,300 by default); the label is bad input, reported at its offset
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONINTMAXSTRDIGITS="4300")
    for text, offset in (("B" + "1" * 5000, 1), ("[B2, B" + "1" * 5000 + "]", 6)):
        proc = subprocess.run([sys.executable, "-m", "onsagerkit.cli", "eval", "--preset", "A2", text],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: label of 5000 digits is too long (at offset %d)\n" % offset)
