"""Mutations on the relation side turn the Serre row of `verify` to FAIL.

Each case changes how the relations are built and leaves the realization
alone, then runs `verify` in-process: one FAIL row names the generator
pairs whose relation no longer evaluates to zero under psi.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onsagerkit
from onsagerkit import cli, serre_coeffs, verify
from onsagerkit.cartan import preset
from onsagerkit.serre_coeffs import CoeffRow

SERRE_FAIL = "FAIL  inhomogeneous Serre relations evaluate to zero (nonzero image for generator pairs %s)"

TRUE_ROW = serre_coeffs.coeff_row
TRUE_RELATION = verify.serre_relation


def bumped_row(a, r):
    """The coefficient row of the relation with 1 added to its c_0."""
    row = TRUE_ROW(a, r)
    return CoeffRow(row.a, row.r, (row.c[0] + 1,) + row.c[1:])


def swapped_pair(c):
    """c with its first asymmetric off-diagonal pair a_ij != a_ji swapped;
    only the relations read it, so it is not validated again."""
    a = [list(row) for row in c.a]
    i, j = next((i, j) for i in range(c.n) for j in range(i + 1, c.n) if a[i][j] != a[j][i])
    a[i][j], a[j][i] = a[j][i], a[i][j]
    return c._replace(a=tuple(map(tuple, a)))


@contextlib.contextmanager
def _replaced(module, attr, fake):
    true = getattr(module, attr)
    setattr(module, attr, fake)
    try:
        yield
    finally:
        setattr(module, attr, true)


def _verify(name):
    """[exit code, the rows that did not pass] of verify --preset name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--preset", name])
    return [code, [line for line in out.getvalue().splitlines() if not line.startswith("PASS  ")]]


def bumped_case(name):
    with _replaced(serre_coeffs, "coeff_row", bumped_row):
        return _verify(name)


def swapped_case(name):
    swapped = swapped_pair(preset(name))
    with _replaced(verify, "serre_relation", lambda c, i, j: TRUE_RELATION(swapped, i, j)):
        return _verify(name)


BUMPED = {
    "A2": [(1, 2), (2, 1)],
    "C2": [(1, 2), (2, 1)],
    "G2": [(1, 2), (2, 1)],
    "A1~": [(0, 1), (1, 0)],
    # a_02 = 0: the bumped row turns [B0, B2] = 0 into [B0, B2] + B2 = 0
    "C2~": [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)],
}

SWAPPED = {
    "C2": [(1, 2), (2, 1)],
    # the degree-3 relation [B2, [B2, B1]] + B1 that the swap gives the
    # pair (2, 1) holds in the image too; the degree-5 one for (1, 2) fails
    "G2": [(1, 2)],
    "B3": [(2, 3), (3, 2)],
    "C3~": [(0, 1), (1, 0)],
    "G2~": [(1, 2)],
}


@pytest.mark.parametrize("name", sorted(BUMPED))
def test_a_bumped_serre_coefficient_fails_the_serre_row(name):
    assert bumped_case(name) == [1, [SERRE_FAIL % BUMPED[name]]]


@pytest.mark.parametrize("name", sorted(SWAPPED))
def test_relations_of_a_swapped_cartan_pair_fail_the_serre_row(name):
    assert swapped_case(name) == [1, [SERRE_FAIL % SWAPPED[name]]]


def test_a_bumped_serre_coefficient_fails_under_optimize():
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_serre_mutations\n"
        "print(json.dumps(test_serre_mutations.bumped_case('C2~')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, [SERRE_FAIL % BUMPED["C2~"]]]
