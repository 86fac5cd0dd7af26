"""Record the golden stdout digest of every benchmark case.

Usage: python3 bench/record_golden.py

Runs each case of every workload once, untraced, and writes the sha256 of
its stdout to bench/golden.json.  A case that fails any other check (exit
code, FAIL row, closed form, known answer) is reported and nothing is
written.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

import cases
import run


def main():
    env = run.child_env()
    run.build(env)
    digests, bad = {}, []
    for workload in cases.WORKLOADS:
        for case in cases.workload_cases(workload):
            cid = cases.case_id(case)
            out = run.run_case(case, env, {}, timeout=300)
            reasons = [r for r in out["reasons"] if r != "no golden digest"]
            if reasons:
                bad.append((cid, reasons))
            digests[cid] = hashlib.sha256(out["stdout"]).hexdigest()
            print("%-60s %s" % (cid, digests[cid][:16]))
    if bad:
        for cid, reasons in bad:
            print("FAILED %s: %s" % (cid, "; ".join(reasons)), file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
