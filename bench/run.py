"""End-to-end and per-layer benchmark of onsager-kit.

Usage (from the root of a checkout):

    python3 bench/run.py --workload finite-ladder --seed 1 --seconds 40 --trace 0

Each case (see cases.py) runs in a fresh interpreter, one child at a time,
with ``PYTHONPATH=src`` and without ``ONSAGER_KIT_THREADS``, so the
program's own defaults are what is measured.  A run makes passes over the
workload's cases, each pass in an order shuffled from the seed, while
another pass still fits in ``--seconds``.  Every case is checked: exit code,
FAIL rows, closed forms, the golden stdout digest and the hand-written known
answers.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes; the traced children wrap the package's public
functions (spans.py) and run under ``-X importtime``, and the run reports
the per-layer metrics and the tracing overhead.  Spans are written under
``.bench_build/trace``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUILD = ROOT / ".bench_build"
GOLDEN = BENCH / "golden.json"
MARK = "BENCH-CHILD "
TIME_LIMIT = 170.0  # seconds a whole run may take
# Time of child.reference on a quiet host.  Every timing a child reports is
# scaled by REF_S / (its own mean probe), i.e. to that host speed.
REF_S = 0.0013

BUSY = [
    "cartan.preset", "roots.RootSystem", "roots.form_value",
    "chevalley.build_chevalley", "chevalley.StructureTable.bracket",
    "loop.bracket_loop", "loop.k_bracket_expand", "loop.y_coordinates",
    "onsager.realization_for", "onsager.psi_eval", "onsager.filtration_dims",
    "onsager.generation_check", "onsager.filtration_dims_all_words",
    "exact_math.IncrementalSpan.add", "exact_math.nullspace_basis",
    "characters.character_space", "serre_coeffs.serre_relation",
    "freelie.lie_bracket", "freelie.to_lyndon",
    "verify.verification_suite", "verify.check_affine_structure_constants",
]
CALLS = [
    "roots.form_value", "chevalley.build_chevalley", "chevalley.StructureTable.bracket",
    "loop.bracket_loop", "loop.k_bracket_expand", "onsager.psi_eval",
    "exact_math.IncrementalSpan.add", "freelie.lie_bracket", "freelie.to_lyndon",
]
# per-layer metric name -> unit; every exact count is also a determinism check
COUNTS = {
    "chevalley.ntable_entries": "count",
    "exact_math.IncrementalSpan.add.useful_ratio": "ratio",
    "exact_math.nullspace_basis.cells": "count",
    "verify.checks": "count",
    "cli.stdout_bytes": "bytes",
}


def child_env():
    """A minimal environment: no ``ONSAGER_KIT_THREADS`` and no ``PYTHON*``
    setting of the caller, so the program's defaults are what is measured."""
    env = {k: os.environ[k] for k in ("PATH", "LANG", "LC_ALL") if k in os.environ}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def build(env):
    """Byte-compile the package and the benchmark, as an install would."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
        env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )


def _import_times(stderr_lines):
    """Self import time of the whole chain up to ``onsagerkit.cli``, and of
    the package's own modules, from ``-X importtime`` output (microseconds)."""
    total = own = 0
    for line in stderr_lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        total += int(fields[0])
        if name.startswith("onsagerkit"):
            own += int(fields[0])
        if name == "onsagerkit.cli":
            break
    return total / 1e6, own / 1e6


def run_case(case, env, golden, timeout, trace_file=None):
    """Run one case in a fresh interpreter; returns the parsed outcome."""
    spec = dict(case, id=cases.case_id(case), trace_file=trace_file)
    cmd = [sys.executable]
    if trace_file:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), json.dumps(spec)]
    start = time.monotonic()
    try:
        # run() kills and waits for the child on a timeout or any other exception
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return {"case": case, "rc": None, "stdout": exc.stdout or b"", "report": None,
                "reasons": ["timed out after %.0f s" % timeout]}
    out = proc.stdout
    lines = proc.stderr.decode(errors="replace").splitlines()
    report = None
    if lines and lines[-1].startswith(MARK):
        report = json.loads(lines[-1][len(MARK):])
        report["setup_s"] = report["ready"] - start
        if trace_file:
            report["import_total_s"], report["import_own_s"] = _import_times(lines)
    reasons = cases.judge(case, proc.returncode, out, golden)
    if report is None:
        reasons.append("no child report; stderr: %s" % " | ".join(lines[-3:]))
    return {"case": case, "rc": proc.returncode, "stdout": out, "report": report, "reasons": reasons}


def run_pass(order, env, golden, deadline, trace_dir=None):
    outcomes = []
    for k, case in enumerate(order):
        left = deadline - time.monotonic()
        if left <= 0:
            outcomes.append({"case": case, "rc": None, "stdout": b"", "report": None,
                             "reasons": ["not run: time limit reached"]})
            continue
        trace_file = str(trace_dir / ("case%02d.jsonl" % k)) if trace_dir else None
        outcomes.append(run_case(case, env, golden, left, trace_file))
    return outcomes


def failed_cases(outcomes):
    return [(cases.case_id(o["case"]), o["reasons"]) for o in outcomes if o["reasons"]]


def fail_ratio(outcomes):
    """Failed cases / cases attempted; must be 0."""
    return len(failed_cases(outcomes)) / len(outcomes)


def scale(report):
    """Factor that takes a child's timings to the host speed of REF_S.

    The shared host runs the same code at two speeds, about 1.7x apart, for
    seconds at a time.  The mean of the probes taken before, during and
    after a case is proportional to the mean slowdown it ran at."""
    return REF_S / statistics.mean(report["probe_s"])


def pass_figures(outcomes):
    """End-to-end figures of one pass (cases without a report are failures);
    ``raw_pass_s`` is the unscaled pass time."""
    reports = [o["report"] for o in outcomes if o["report"] is not None]
    if not reports:
        return None
    return {
        "pass_s": sum(r["seconds"] * scale(r) for r in reports),
        "max_case_s": max(r["seconds"] * scale(r) for r in reports),
        "setup": [r["setup_s"] * scale(r) for r in reports],
        "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024.0,
        "raw_pass_s": sum(r["seconds"] for r in reports),
        "probe": [p for r in reports for p in r["probe_s"]],
    }


def layer_figures(outcomes):
    """Per-layer totals of one traced pass, summed over cases and threads;
    times are scaled like the end-to-end ones."""
    layers, counts = {}, {}
    import_total = import_own = 0.0
    for o in outcomes:
        rep = o["report"]
        if rep is None:
            continue
        k = scale(rep)
        for label, row in rep["trace"]["layers"].items():
            acc = layers.setdefault(label, {"calls": 0, "busy_s": 0.0})
            acc["calls"] += row["calls"]
            acc["busy_s"] += row["busy_s"] * k
        for key, val in rep["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + val
        import_total += rep["import_total_s"] * k
        import_own += rep["import_own_s"] * k

    def row(label):
        return layers.get(label, {"calls": 0, "busy_s": 0.0})

    busy = {"%s.busy_s" % lab: row(lab)["busy_s"] for lab in BUSY}
    busy["cli.emit.busy_s"] = row("cli.main")["busy_s"]
    busy["import.total_s"] = import_total
    busy["import.onsagerkit.busy_s"] = import_own
    adds = row("exact_math.IncrementalSpan.add")["calls"]
    exact = {"%s.calls" % lab: row(lab)["calls"] for lab in CALLS}
    exact.update({
        "chevalley.ntable_entries": counts.get("ntable_entries", 0),
        "exact_math.IncrementalSpan.add.useful_ratio": counts.get("useful", 0) / adds if adds else 0.0,
        "exact_math.nullspace_basis.cells": counts.get("cells", 0),
        "verify.checks": counts.get("checks", 0),
        "cli.stdout_bytes": sum(len(o["stdout"]) for o in outcomes),
    })
    return busy, exact


def layer_units():
    """Every per-layer metric name with its unit."""
    units = {"%s.busy_s" % lab: "s" for lab in BUSY}
    units.update({"cli.emit.busy_s": "s", "import.total_s": "s", "import.onsagerkit.busy_s": "s"})
    units.update({"%s.calls" % lab: "count" for lab in CALLS})
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def case_seconds(passes):
    """Case id -> its time in each pass, for reading a run case by case."""
    out = {}
    for outcomes in passes:
        for o in outcomes:
            if o["report"] is not None:
                out.setdefault(cases.case_id(o["case"]), []).append(o["report"]["seconds"])
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload, seed, seconds, trace):
    """Run the workload; returns (result line dict, metadata dict)."""
    env = child_env()
    build(env)
    golden = json.loads(GOLDEN.read_text())
    base = cases.workload_cases(workload)
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    plain, traced = [], []  # outcome lists, one per pass
    while True:
        order = base[:]
        rng.shuffle(order)
        plain.append(run_pass(order, env, golden, deadline))
        if trace:
            trace_dir = BUILD / "trace" / ("%s-seed%d-pass%d" % (workload, seed, len(traced)))
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced.append(run_pass(order, env, golden, deadline, trace_dir))
        elapsed = time.monotonic() - start
        failed = any(o["reasons"] for p in plain + traced for o in p)
        if failed or elapsed + elapsed / len(plain) > seconds:
            break

    everything = [o for p in plain + traced for o in p]
    failures = failed_cases(everything)
    figures = [pass_figures(p) for p in plain]
    metrics = {}
    counts_repeat = None
    if not failures:
        pass_s = statistics.median(f["pass_s"] for f in figures)
        if trace:
            layer = [layer_figures(p) for p in traced]
            exact = [x for _, x in layer]
            counts_repeat = all(x == exact[0] for x in exact)
            units = layer_units()
            values = {name: statistics.median(b[name] for b, _ in layer) for name in layer[0][0]}
            values.update(exact[0])
            traced_s = statistics.median(pass_figures(p)["pass_s"] for p in traced)
            values["trace.overhead_s"] = traced_s - pass_s
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(s for f in figures for s in f["setup"]), "unit": "s"},
                "pass_s": {"value": pass_s, "unit": "s"},
                "max_case_s": {"value": statistics.median(f["max_case_s"] for f in figures), "unit": "s"},
                "peak_rss_mb": {"value": max(f["peak_rss_mb"] for f in figures), "unit": "MB"},
            }
    threads = sorted({o["report"]["threads"] for o in everything if o["report"]})
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "commit": git_commit(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s_each": [f["pass_s"] for f in figures if f],
        "raw_pass_s_each": [f["raw_pass_s"] for f in figures if f],
        "probe_s_median": statistics.median(p for f in figures if f for p in f["probe"]),
        "case_s": case_seconds(plain),
        "counts_repeat": counts_repeat,
        "fail_ratio": fail_ratio(everything),
        "failures": failures,
        "cases": [c["argv"] for c in base],
    }
    result = {
        "correct": not failures and counts_repeat is not False,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, meta


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "onsagerkit" / "cli.py").is_file():
        print("error: no onsagerkit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print("%-48s %.6g %s" % (name, m["value"], m["unit"]))
    print("fail_ratio %.6g (%d of %d cases)" % (meta["fail_ratio"], result["failed"], result["attempted"]))
    for cid, reasons in meta["failures"]:
        print("FAILED %s: %s" % (cid, "; ".join(reasons)))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
