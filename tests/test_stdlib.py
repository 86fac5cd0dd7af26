"""The package is pure stdlib: pyproject declares no dependencies, and every
module imports only the package itself and the standard library."""

import ast
import re
import sys
from pathlib import Path

import onsagerkit

PACKAGE = Path(onsagerkit.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def test_pyproject_declares_no_dependencies():
    text = PYPROJECT.read_text()
    # the [project] table runs to the next table header
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=\s*(.*)$", project, re.M) == ["[]"]


def test_every_import_is_the_package_or_the_stdlib():
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add("onsagerkit" if node.level else node.module.split(".")[0])
    assert "fractions" in names and "onsagerkit" in names
    assert names - {"onsagerkit"} - set(sys.stdlib_module_names) == set()


def test_no_floating_point_in_the_package():
    # no float literal, and no float(), complex() or round() call; the
    # scalar rule in exact_math rejects a float that arrives at run time
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                hits.append((path.name, node.lineno, repr(node.value)))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex", "round")):
                hits.append((path.name, node.lineno, node.func.id))
    assert hits == []
