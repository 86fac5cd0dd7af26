"""Span recording for the traced benchmark run.

The wrappers are installed from outside the package: a module-level function
is rebound in every loaded ``onsagerkit`` module that holds it (so
``from .loop import bracket_loop`` aliases are traced too), and a method is
replaced on its class.  Each call opens a span with its name, start, end,
parent span, case id and thread.  Per thread, the recorder keeps a stack of
open spans, exact call counts and self time (span duration minus the time
covered by its child spans on the same thread).  Spans stay in memory and
are written out when the case ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# label, module, attribute; a "Class.method" attribute patches the class.
TARGETS = [
    ("cartan.preset", "cartan", "preset"),
    ("roots.RootSystem", "roots", "RootSystem.__init__"),
    ("roots.form_value", "roots", "RootSystem.form_value"),
    ("chevalley.build_chevalley", "chevalley", "build_chevalley"),
    ("chevalley.StructureTable.bracket", "chevalley", "StructureTable.bracket"),
    ("loop.bracket_loop", "loop", "bracket_loop"),
    ("loop.k_bracket_expand", "loop", "k_bracket_expand"),
    ("loop.y_coordinates", "loop", "y_coordinates"),
    ("onsager.realization_for", "onsager", "realization_for"),
    ("onsager.psi_eval", "onsager", "psi_eval"),
    ("onsager.filtration_dims", "onsager", "filtration_dims"),
    ("onsager.generation_check", "onsager", "generation_check"),
    ("onsager.filtration_dims_all_words", "onsager", "filtration_dims_all_words"),
    ("exact_math.IncrementalSpan.add", "exact_math", "IncrementalSpan.add"),
    ("exact_math.nullspace_basis", "exact_math", "nullspace_basis"),
    ("characters.character_space", "characters", "character_space"),
    ("serre_coeffs.serre_relation", "serre_coeffs", "serre_relation"),
    ("freelie.lie_bracket", "freelie", "lie_bracket"),
    ("freelie.to_lyndon", "freelie", "to_lyndon"),
    ("verify.verification_suite", "verify", "verification_suite"),
    ("verify.check_affine_structure_constants", "verify", "check_affine_structure_constants"),
    ("cli.main", "cli", "main"),
] + [
    ("cli.report", "cli", name)
    for name in ("coeffs_report", "relations_report", "roots_report", "structconst_report",
                 "verify_report", "chars_report", "eval_report")
]


def _count_useful(counts, args, result):
    counts["useful"] = counts.get("useful", 0) + bool(result)


def _count_cells(counts, args, result):
    m = args[0]
    counts["cells"] = counts.get("cells", 0) + m.rows * m.cols


def _count_ntable(counts, args, result):
    counts["ntable_entries"] = counts.get("ntable_entries", 0) + len(result.N)


def _count_checks(counts, args, result):
    counts["checks"] = counts.get("checks", 0) + len(result)


# exact counters taken at the same boundaries as the spans
COUNTERS = {
    "exact_math.IncrementalSpan.add": _count_useful,
    "exact_math.nullspace_basis": _count_cells,
    "chevalley.build_chevalley": _count_ntable,
    "verify.verification_suite": _count_checks,
}


class _Thread:
    """What one thread records; only that thread mutates it."""

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []   # open spans: [span id, time covered by children]
        self.agg = {}     # label -> [calls, self seconds]
        self.counts = {}
        self.spans = []   # (id, label, start, end, parent)


# full span records kept per label and thread; hot leaves run hundreds of
# thousands of times, and their counts and self time cover every call anyway
KEEP = 2000


class Recorder:
    """Spans of one case."""

    def __init__(self, case):
        self.case = case
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, label, fn):
        counter = COUNTERS.get(label)
        state = self._state
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            sid = next(ids)
            parent = st.stack[-1][0] if st.stack else 0
            frame = [sid, 0.0]
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                span = end - start
                if st.stack:
                    st.stack[-1][1] += span
                agg = st.agg.get(label)
                if agg is None:
                    agg = st.agg[label] = [0, 0.0]
                agg[0] += 1
                agg[1] += span - frame[1]
                if agg[0] <= KEEP:
                    st.spans.append((sid, label, start, end, parent))
            if counter is not None:
                counter(st.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; the package must already be imported."""
        mods = [m for name, m in sys.modules.items()
                if name == "onsagerkit" or name.startswith("onsagerkit.")]
        for label, modname, attr in TARGETS:
            owner = sys.modules["onsagerkit." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(label, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(label, orig)
            for m in mods:
                for name in [k for k, v in vars(m).items() if v is orig]:
                    setattr(m, name, traced)

    def summary(self):
        """Calls and self time per label, and the counters, over all threads."""
        layers = {}
        counts = {}
        for st in self._threads:
            for label, (calls, busy) in st.agg.items():
                row = layers.setdefault(label, {"calls": 0, "busy_s": 0.0})
                row["calls"] += calls
                row["busy_s"] += busy
            for key, val in st.counts.items():
                counts[key] = counts.get(key, 0) + val
        return {"layers": layers, "counts": counts}

    def write(self, path):
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for st in self._threads:
                for sid, label, start, end, parent in st.spans:
                    fh.write(json.dumps({
                        "id": sid, "name": label, "start": start, "end": end,
                        "parent": parent, "case": self.case, "thread": st.ident,
                    }) + "\n")
