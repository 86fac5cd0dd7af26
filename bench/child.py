"""Run one benchmark case in a fresh interpreter.

Usage: python3 bench/child.py '<case JSON>'

The case's output goes to stdout exactly as a user would see it.  The last
line on stderr is ``BENCH-CHILD {json}`` with the time the package import
finished (``time.monotonic``, comparable with the parent's clock), the time
of the call itself including the final flush, the host-speed probes taken
just before, during and just after the call, the peak RSS and, for a traced case,
the per-layer summary.  The exit code is the case's own.
"""

import time
import sys

import onsagerkit.cli  # noqa: E402  (timed: interpreter start plus package import)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from fractions import Fraction  # noqa: E402

from onsagerkit import cartan, freelie, onsager, serre_coeffs, exact_math, verify  # noqa: E402

MARK = "BENCH-CHILD "


def all_words(name, j):
    """Graded dimensions from every bracketing of every word up to length j."""
    rep = onsager.filtration_dims_all_words(onsager.realization_for(cartan.preset(name)), j)
    return {"dims": rep.dims, "expected": rep.expected}


def serre_span(name, depth):
    """Ranks of the spans of ad-words [B_i1,[...,[B_ik, R]]] with k <= depth
    over the Serre relations R, in the Lyndon basis.  Only words that grew
    the span are bracketed further: ad is linear, so the rest add nothing."""
    c = cartan.preset(name)
    gens = [freelie.FreeLieElement.generator(lab) for lab in c.labels]
    span = exact_math.IncrementalSpan()
    fresh = [r for r in (serre_coeffs.serre_relation(c, i, j)
                         for i in c.labels for j in c.labels if i != j)
             if span.add(r.terms)]
    ranks = [span.rank]
    for _ in range(depth):
        nxt = []
        for g in gens:
            for w in fresh:
                x = freelie.lie_bracket(g, w)
                if span.add(x.terms):
                    nxt.append(x)
        fresh = nxt
        ranks.append(span.rank)
    return {"ranks": ranks}


LIBRARY = {"all-words": all_words, "serre-span": serre_span}

PROBE_EVERY_S = 0.05  # sampling interval during the case
EDGE_PROBES = 5  # probes just before and just after it


def reference(n=500):
    """A fixed pure-Python job, Fraction sums and dict updates like the
    package's inner loops; about 1.3 ms of CPU on a quiet host (run.REF_S)."""
    acc = Fraction(0)
    d = {}
    for i in range(1, n):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        k = (i * 7919) % 97
        d[k] = d.get(k, 0) + i * i
    return acc, len(d)


def probe():
    """CPU time of one reference job: the host's speed at this moment.
    Thread CPU time leaves out waits for the GIL."""
    t = time.thread_time()
    reference()
    return time.thread_time() - t


class Sampler(threading.Thread):
    """Probes the host speed every PROBE_EVERY_S while the case runs."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.probes = []

    def run(self):
        while not self.stopped.wait(PROBE_EVERY_S):
            self.probes.append(probe())

    def stop(self):
        self.stopped.set()
        self.join()
        return self.probes


def run_case(case):
    """Make the call; returns its exit code."""
    if case["kind"] == "cli":
        try:
            return onsagerkit.cli.main(case["argv"])
        except SystemExit as exc:
            return exc.code
    what, name, n = case["argv"]
    print(json.dumps(LIBRARY[what](name, int(n)), sort_keys=True))
    return 0


def main():
    case = json.loads(sys.argv[1])
    probes = [probe() for _ in range(EDGE_PROBES)]
    recorder = None
    if case.get("trace_file"):
        import spans

        recorder = spans.Recorder(case["id"])
        recorder.install()
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    rc = run_case(case)
    sys.stdout.flush()
    seconds = time.perf_counter() - start
    probes += sampler.stop()
    probes += [probe() for _ in range(EDGE_PROBES)]
    report = {
        "ready": READY,
        "seconds": seconds,
        "probe_s": probes,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": verify.thread_count(),
    }
    if recorder is not None:
        report["trace"] = recorder.summary()
        recorder.write(case["trace_file"])
    sys.stderr.write("\n%s%s\n" % (MARK, json.dumps(report)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
