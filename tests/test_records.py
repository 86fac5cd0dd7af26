"""The record classes are named tuples: they compare, hash and order as the
tuple of their fields, refuse assignment, keep their repr and defaults, and
importing the CLI loads no dataclasses, inspect or typing."""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import onsagerkit
from onsagerkit.cartan import FINITE, CartanMatrix, preset
from onsagerkit.characters import CharacterSpace
from onsagerkit.exact_math import IdentityViolation
from onsagerkit.freelie import BracketExpr, parse_bracket
from onsagerkit.loop import YIndex
from onsagerkit.onsager import FiltrationReport, GenerationReport
from onsagerkit.roots import AffineRoot
from onsagerkit.serre_coeffs import CoeffRow, coeff_row

ROOT = AffineRoot((1, 0), 0)
IMAG = AffineRoot((0, 0), 1)

# two records of each class, the first ordered before the second where
# the fields order at all (dict fields do not)
PAIRS = {
    "CartanMatrix": (preset("A2"), preset("A2~")),
    "AffineRoot": (IMAG, ROOT),
    "YIndex": (YIndex(IMAG, 1), YIndex(IMAG, 2)),
    "CoeffRow": (coeff_row(-1, 2), coeff_row(0, 2)),
    "FiltrationReport": (FiltrationReport(3, [2, 1, 1], [2, 1, 1]), FiltrationReport(3, [2, 1, 2], [2, 1, 1])),
    "GenerationReport": (GenerationReport(4, 9, 9), GenerationReport(5, 12, 13)),
    "CharacterSpace": (
        CharacterSpace(2, [YIndex(ROOT)], [{YIndex(ROOT): Fraction(1)}], {1: YIndex(ROOT)}),
        CharacterSpace(3, [YIndex(ROOT)], [], {1: YIndex(ROOT)}),
    ),
    "BracketExpr": (BracketExpr.leaf(1), BracketExpr.leaf(2)),
}
RECORDS = [rec for pair in PAIRS.values() for rec in pair]


def _fields(rec):
    return tuple(getattr(rec, f) for f in rec._fields)


def _outcome(fn, *args):
    """fn(*args), or TypeError if it raises one."""
    try:
        return fn(*args)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_compare_hash_and_order_as_the_field_tuple(name):
    x, y = PAIRS[name]
    assert type(x).__name__ == name
    tx, ty = _fields(x), _fields(y)
    assert x == tx and y == ty and x != y
    assert _outcome(hash, x) == _outcome(hash, tx)
    assert _outcome(hash, y) == _outcome(hash, ty)
    lt = _outcome(operator.lt, x, y)
    assert lt == _outcome(operator.lt, tx, ty)
    assert lt is True


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert not hasattr(rec, "__dict__")


# BracketExpr prints as the bracket it is, "[B1,B2]"
@pytest.mark.parametrize("rec", [rec for rec in RECORDS if type(rec) is not BracketExpr],
                         ids=lambda r: type(r).__name__)
def test_repr_names_every_field(rec):
    body = ", ".join("%s=%r" % (f, getattr(rec, f)) for f in rec._fields)
    assert repr(rec) == "%s(%s)" % (type(rec).__name__, body)


def test_repr_format():
    assert repr(ROOT) == "AffineRoot(finite=(1, 0), level=0)"
    assert repr(YIndex(IMAG, 2)) == "YIndex(gamma=AffineRoot(finite=(0, 0), level=1), i=2)"
    assert repr(coeff_row(-1, 2)) == "CoeffRow(a=-1, r=2, c=(1, 0, 1))"
    assert repr(parse_bracket("[B1, [B1,B2]]")) == "[B1,[B1,B2]]"


def test_defaults():
    assert YIndex(ROOT).i == 1
    assert YIndex(ROOT) == YIndex(ROOT, 1)
    c = CartanMatrix(((2,),), (1,), FINITE, (1,))
    assert c.typename is None and c.affine_node is None


def test_a_coefficient_row_of_the_wrong_length_raises():
    with pytest.raises(IdentityViolation, match="r=2 has 2 entries"):
        CoeffRow(-1, 2, (1, 0))
    with pytest.raises(IdentityViolation, match="r=3 has 3 entries"):
        coeff_row(-1, 2)._replace(r=3)
    assert coeff_row(-1, 2)._replace(a=0) == CoeffRow(0, 2, (1, 0, 1))


def test_a_bracket_expr_of_the_wrong_shape_raises():
    leaf, node = BracketExpr.leaf(1), parse_bracket("[B1,B2]")
    for bad in ({}, {"left": leaf}, {"label": 1, "left": leaf, "right": leaf}):
        with pytest.raises(ValueError, match="either a label or both children"):
            BracketExpr(**bad)
    for bad in ({"label": 2}, {"right": None}):
        with pytest.raises(ValueError, match="either a label or both children"):
            node._replace(**bad)
    with pytest.raises(ValueError, match="either a label or both children"):
        leaf._replace(label=None)
    assert leaf._replace(label=2) == BracketExpr.leaf(2) == (2, None, None)
    assert node._replace(right=leaf) == parse_bracket("[B1,B1]")
    assert node.labels() == {1, 2} and leaf.is_leaf and not node.is_leaf


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks (.pth files) from importing modules of their own
    code = ("import sys, onsagerkit.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
