"""Workloads, known answers and the correctness judge of the benchmark.

A case is one user-visible call, run in a fresh interpreter by child.py:

* ``{"kind": "cli", "argv": [...]}`` passes argv to ``onsagerkit.cli.main``;
* ``{"kind": "lib", "argv": [name, preset, n]}`` runs one library call
  defined in child.py (``all-words`` or ``serre-span``).

The case id is the argv joined by spaces; it keys the golden digests.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re

# Textbook values, written by hand and not computed by the program:
# |Phi+| (number of positive roots) and the Coxeter number h of each finite
# type.  The delta-height of the untwisted affine type X~ is h(X).
FINITE = {
    "A1": (1, 2),
    "A2": (3, 3),
    "A3": (6, 4),
    "C2": (4, 4),
    "G2": (6, 6),
    "B3": (9, 6),
    "C3": (9, 6),
    "D4": (12, 6),
    "B4": (16, 8),
    "C4": (16, 8),
    "F4": (24, 12),
    "E6": (36, 12),
    "E7": (63, 18),
    "E8": (120, 30),
}

FINITE_LADDER = ["A2", "C3", "G2", "F4", "E6", "E7", "E8"]
AFFINE_SWEEP = ["A1~", "A2~", "C2~", "G2~", "B3~", "C3~"]
WORD_SPAN_VERIFY = ["D4~", "B4~", "C4~", "F4~", "E6~"]
ALL_WORDS = [("G2", 6), ("A1~", 6), ("C2~", 5)]
SERRE_SPANS = [("A3", 3), ("A1~", 6), ("A2~", 4)]


def _finite_part(name):
    return name[:-1] if name.endswith("~") else name


def coxeter(name):
    """h of a finite type, or the delta-height of an affine one."""
    return FINITE[_finite_part(name)][1]


def positive_count(name):
    return FINITE[_finite_part(name)][0]


def rank(name):
    return int(_finite_part(name)[1:])


def total_dims(name, j):
    """Number of fixed-basis vectors of height <= j, from the known table.

    Finite X with j >= h-1: |Phi+|.  Affine X~: each run of h heights holds
    dim g = 2|Phi+| + r of them, and height q*h + 1 holds r + 1 (the r roots
    alpha_i + q delta and -theta + (q+1) delta).
    """
    p, h = FINITE[_finite_part(name)]
    if not name.endswith("~"):
        if j < h - 1:
            raise ValueError("window %d below the top root of %s" % (j, name))
        return p
    r = rank(name)
    q, s = divmod(j, h)
    if s > 1:
        raise ValueError("window %d of %s is not a multiple of h or one above" % (j, name))
    return q * (2 * p + r) + (r + 1) * s


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv)}


def _lib(name, preset, n):
    return {"kind": "lib", "argv": [name, preset, str(n)]}


def _verify(name, j):
    return _cli("verify", "--preset", name, "--jmax", str(j), "--height", str(j))


def workload_cases(workload):
    """The cases of one pass over a workload, in canonical order."""
    if workload == "finite-ladder":
        out = [_verify(x, coxeter(x) - 1) for x in FINITE_LADDER]
        for cmd in ("chars", "structconst"):
            out += [_cli(cmd, "--json", "--preset", x) for x in FINITE_LADDER[:-1]]
        return out
    if workload == "affine-sweep":
        out = [_verify(x, coxeter(x) + 1) for x in AFFINE_SWEEP]
        for cmd in ("chars", "structconst"):
            out += [_cli(cmd, "--json", "--preset", x) for x in AFFINE_SWEEP]
        return out
    if workload == "word-spans":
        out = [_verify(x, 2 * coxeter(x) + 1) for x in WORD_SPAN_VERIFY]
        out += [_lib("all-words", x, j) for x, j in ALL_WORDS]
        out += [_lib("serre-span", x, d) for x, d in SERRE_SPANS]
        return out
    raise ValueError("unknown workload %r" % (workload,))


WORKLOADS = ("finite-ladder", "affine-sweep", "word-spans")


def case_id(case):
    return " ".join(case["argv"])


def _preset_of(argv):
    return argv[argv.index("--preset") + 1]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def judge(case, rc, stdout, golden):
    """Reasons the case failed; empty when every check holds.

    rc is the child's exit code (None when it produced no report), stdout
    the bytes it printed, golden the case id -> sha256 table.
    """
    reasons = []
    if rc != 0:
        reasons.append("exit code %r" % (rc,))
    digest = hashlib.sha256(stdout).hexdigest()
    want = golden.get(case_id(case))
    if want is None:
        reasons.append("no golden digest")
    elif digest != want:
        reasons.append("stdout digest %s != golden %s" % (digest[:12], want[:12]))
    try:
        reasons += _known_answers(case, stdout.decode())
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        reasons.append("unreadable output: %s" % (exc,))
    return reasons


def _known_answers(case, text):
    argv = case["argv"]
    if case["kind"] == "lib":
        return _lib_answers(argv, json.loads(text))
    cmd, name = argv[0], _preset_of(argv)
    if cmd == "verify":
        return _verify_answers(name, int(argv[argv.index("--jmax") + 1]), text)
    report = json.loads(text)
    if cmd == "chars":
        return _chars_answers(name, report)
    if cmd == "structconst":
        return _structconst_answers(name, report)
    raise ValueError("no known answers for %r" % (cmd,))


def _verify_answers(name, j, text):
    out = []
    lines = text.splitlines()
    if not lines:
        return ["verify printed nothing"]
    want = total_dims(name, j)
    for line in lines:
        if not line.startswith("PASS  "):
            out.append("FAIL row: %s" % line)
        m = re.search(r"\(jmax=(\d+)\) \(dims (\[.*?\]) expected", line)
        if m:
            dims = ast.literal_eval(m.group(2))
            if int(m.group(1)) != j or sum(dims) != want:
                out.append("graded dims %s at jmax %s, known total %d at %d"
                           % (dims, m.group(1), want, j))
        m = re.search(r"up to height (\d+) \(rank (\d+) expected", line)
        if m and (int(m.group(1)) != j or int(m.group(2)) != want):
            out.append("generation rank %s at height %s, known %d at %d"
                       % (m.group(2), m.group(1), want, j))
        m = re.search(r"even-column count \(.*\(window (\d+)\)\)", line)
        if m and int(m.group(1)) != _chars_window(name):
            out.append("character window %s, known %d" % (m.group(1), _chars_window(name)))
    if not any("graded dimensions" in line for line in lines):
        out.append("no graded-dimension row")
    return out


def _chars_window(name):
    h = coxeter(name)
    return 2 * h + 2 if name.endswith("~") else h - 1


def _chars_answers(name, report):
    out = []
    if report["window"] != _chars_window(name):
        out.append("chars window %s, known %d" % (report["window"], _chars_window(name)))
    for row in report["values"]:
        if "closed_form" in row and row["value"] != row["closed_form"]:
            out.append("chi(%s) = %s, closed form %s" % (row["basis"], row["value"], row["closed_form"]))
    return out


def _structconst_answers(name, report):
    p = positive_count(name)
    if name == "A1~":
        key, n = "brackets", 25  # [A_k, A_l] for -2 <= k, l <= 2
    elif name.endswith("~"):
        m = 2 * p + 2 * rank(name) + 1  # indices of height <= h + 1
        key, n = "brackets", m * (m - 1) // 2
    else:
        key, n = "ybrackets", p * (p - 1) // 2
    got = len(report[key])
    return [] if got == n else ["%d %s rows, known %d" % (got, key, n)]


def _lib_answers(argv, report):
    what, name, n = argv[0], argv[1], int(argv[2])
    if what == "all-words":
        dims = report["dims"]
        out = [] if dims == report["expected"] else ["all-words dims %s != expected %s" % (dims, report["expected"])]
        if len(dims) != n or sum(dims) != total_dims(name, n):
            out.append("all-words dims %s, known total %d" % (dims, total_dims(name, n)))
        return out
    if what == "serre-span":
        ranks = report["ranks"]
        if len(ranks) != n + 1 or ranks != sorted(ranks):
            return ["serre-span ranks %s" % (ranks,)]
        return []
    raise ValueError("unknown library case %r" % (what,))
