"""Checks survive python -O: the package holds no assert statement, and an
internal invariant raises IdentityViolation under -O too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onsagerkit
from onsagerkit.exact_math import IdentityViolation
from onsagerkit.freelie import witt_dimension
from onsagerkit.serre_coeffs import CoeffRow

PACKAGE = Path(onsagerkit.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s: assert at lines %s is stripped by python -O" % (path.name, lines)


def test_invariants_raise():
    with pytest.raises(IdentityViolation, match="r=2 has 2 entries"):
        CoeffRow(-1, 2, (1, 0))
    with pytest.raises(ValueError):
        witt_dimension(0, 3)


def test_a_short_coefficient_row_raises_under_optimize():
    code = (
        "from onsagerkit.exact_math import IdentityViolation\n"
        "from onsagerkit.serre_coeffs import CoeffRow\n"
        "try:\n"
        "    CoeffRow(-1, 2, (1, 0))\n"
        "except IdentityViolation as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "coefficient row r=2 has 2 entries\n"
