"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import run  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())

# small cases that still cross every traced layer
SMALL = [
    {"kind": "cli", "argv": ["verify", "--preset", "A2", "--jmax", "2", "--height", "2"]},
    {"kind": "cli", "argv": ["verify", "--preset", "A1~", "--jmax", "3", "--height", "3"]},
    {"kind": "cli", "argv": ["chars", "--json", "--preset", "C3"]},
    {"kind": "cli", "argv": ["structconst", "--json", "--preset", "A2~"]},
    {"kind": "lib", "argv": ["all-words", "G2", "6"]},
    {"kind": "lib", "argv": ["serre-span", "A3", "3"]},
]


@pytest.fixture(scope="module")
def env():
    e = run.child_env()
    run.build(e)
    return e


def _traced_pass(env, tmp_path):
    tmp_path.mkdir()
    out = []
    for k, case in enumerate(SMALL):
        out.append(run.run_case(case, env, GOLDEN, 120, str(tmp_path / ("case%d.jsonl" % k))))
    return out


def test_small_cases_are_workload_cases():
    every = {cases.case_id(c) for w in cases.WORKLOADS for c in cases.workload_cases(w)}
    assert {cases.case_id(c) for c in SMALL} <= every
    assert set(GOLDEN) == every


def test_known_table_is_consistent():
    # |Phi+| = n h / 2 for every finite type
    for name, (positive, h) in cases.FINITE.items():
        assert 2 * positive == cases.rank(name) * h, name


def test_traced_counts_repeat_and_digests_match(env, tmp_path):
    first = _traced_pass(env, tmp_path / "a")
    second = _traced_pass(env, tmp_path / "b")
    assert run.fail_ratio(first + second) == 0, run.failed_cases(first + second)
    exact_a = run.layer_figures(first)[1]
    exact_b = run.layer_figures(second)[1]
    assert exact_a == exact_b
    for name in ("exact_math.IncrementalSpan.add.useful_ratio", "exact_math.nullspace_basis.cells",
                 "chevalley.ntable_entries", "loop.bracket_loop.calls", "freelie.lie_bracket.calls"):
        assert exact_a[name] > 0, name
    untraced = [run.run_case(c, env, GOLDEN, 120) for c in SMALL]
    assert [o["stdout"] for o in untraced] == [o["stdout"] for o in first]
    spans = [json.loads(line) for line in (tmp_path / "a" / "case0.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"cli.main", "verify.verification_suite"}
    assert all(s["case"] == cases.case_id(SMALL[0]) and s["end"] >= s["start"] for s in spans)


def test_corrupted_golden_digest_fails(env):
    outcome = run.run_case(SMALL[0], env, GOLDEN, 120)
    assert run.fail_ratio([outcome]) == 0
    bad = dict(GOLDEN, **{cases.case_id(SMALL[0]): "0" * 64})
    reasons = cases.judge(SMALL[0], outcome["rc"], outcome["stdout"], bad)
    assert any("digest" in r for r in reasons)
    outcome = run.run_case(SMALL[0], env, bad, 120)
    assert run.fail_ratio([outcome]) > 0


def test_timings_are_scaled_by_their_own_probes():
    def outcome(seconds, probe):
        report = {"seconds": seconds, "setup_s": 0.1, "maxrss_kb": 1024, "probe_s": [probe, probe]}
        return {"case": SMALL[0], "report": report}

    fig = run.pass_figures([outcome(1.0, run.REF_S), outcome(1.0, 2 * run.REF_S)])
    assert fig["pass_s"] == pytest.approx(1.5)
    assert fig["max_case_s"] == pytest.approx(1.0)
    assert fig["setup"] == pytest.approx([0.1, 0.05])
    assert fig["raw_pass_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("case, entry", [(SMALL[0], "A2"), (SMALL[2], "C3"), (SMALL[4], "G2")])
def test_corrupted_known_answer_fails(env, monkeypatch, case, entry):
    outcome = run.run_case(case, env, GOLDEN, 120)
    assert run.fail_ratio([outcome]) == 0
    positive, h = cases.FINITE[entry]
    monkeypatch.setitem(cases.FINITE, entry, (positive + 1, h + 1))
    outcome = run.run_case(case, env, GOLDEN, 120)
    assert run.fail_ratio([outcome]) > 0


def test_exit_1_counts_as_failed(tmp_path):
    pkg = tmp_path / "src" / "onsagerkit"
    pkg.mkdir(parents=True)
    for mod in ("__init__", "cartan", "freelie", "onsager", "serre_coeffs", "exact_math"):
        (pkg / (mod + ".py")).write_text("")
    (pkg / "verify.py").write_text("def thread_count():\n    return 1\n")
    (pkg / "cli.py").write_text("def main(argv=None):\n    print('FAIL  stub')\n    return 1\n")
    e = dict(run.child_env(), PYTHONPATH=str(tmp_path / "src"))
    outcome = run.run_case(SMALL[0], e, GOLDEN, 60)
    assert outcome["report"] is not None and outcome["rc"] == 1
    assert "exit code 1" in outcome["reasons"]
    assert run.fail_ratio([outcome]) == 1


def test_timeout_kills_the_case(env):
    outcome = run.run_case(SMALL[1], env, GOLDEN, 0.05)
    assert outcome["reasons"] == ["timed out after 0 s"]
    assert run.fail_ratio([outcome]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word-spans", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
