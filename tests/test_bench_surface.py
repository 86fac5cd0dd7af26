"""The library names the benchmark harness depends on.

bench/spans.py wraps every entry of its TARGETS list, and bench/child.py
calls library functions by name.  The harness's own self-tests are not part
of this suite, so a rename that would break the benchmark fails here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from onsagerkit.onsager import FiltrationReport

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("label,modname,attr", _span_targets())
def test_span_target_resolves(label, modname, attr):
    owner = importlib.import_module("onsagerkit." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert inspect.isfunction(vars(getattr(owner, cls_name)).get(meth)), label
    else:
        assert callable(getattr(owner, attr, None)), label


def _library_names(path):
    """Dotted names in a script that start at an imported onsagerkit module,
    with the module each root name stands for."""
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "onsagerkit":
            roots.update({a.asname or a.name: "onsagerkit." + a.name for a in node.names})
        elif isinstance(node, ast.Import):
            roots.update({a.name.split(".")[0]: "onsagerkit"
                          for a in node.names if a.name.startswith("onsagerkit")})
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            names.add((roots[node.id], ".".join(reversed(parts))))
    return names


def test_child_calls_resolve():
    names = _library_names(BENCH / "child.py")
    short = {"%s.%s" % (mod.rsplit(".", 1)[-1], attr) for mod, attr in names}
    assert short >= {
        "verify.thread_count",
        "onsager.filtration_dims_all_words",
        "onsager.realization_for",
        "freelie.FreeLieElement.generator",
        "freelie.lie_bracket",
        "serre_coeffs.serre_relation",
        "exact_math.IncrementalSpan",
        "onsagerkit.cli.main",
    }
    for mod, attr in names:
        obj = importlib.import_module(mod)
        for part in attr.split("."):
            obj = getattr(obj, part)
    # child.py prints these fields of the all-words report
    assert {"dims", "expected"} <= set(FiltrationReport.__dataclass_fields__)
