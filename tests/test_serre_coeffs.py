import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from onsagerkit import serre_coeffs
from onsagerkit.cartan import preset, validate
from onsagerkit.exact_math import BadInput
from onsagerkit.freelie import parse_bracket, to_lyndon
from onsagerkit.serre_coeffs import (
    SameIndexError,
    c0_closed_form,
    coeff_row,
    coeff_table,
    serre_relation,
)

# the explicit low-order table as polynomials in the Cartan entry
TABLE = {
    0: lambda a: (1,),
    1: lambda a: (0, 1),
    2: lambda a: (-a, 0, 1),
    3: lambda a: (0, -3 * a - 2, 0, 1),
    4: lambda a: (3 * a * a + 6 * a, 0, -6 * a - 8, 0, 1),
    5: lambda a: (0, 15 * a * a + 50 * a + 24, 0, -10 * a - 20, 0, 1),
}


@pytest.mark.parametrize("a", range(0, -7, -1))
def test_low_order_table(a):
    for r, expect in TABLE.items():
        assert coeff_row(a, r).c == expect(a), (a, r)


@pytest.mark.parametrize("a, r", [(-1.5, 3), (-1, 3.0), (Fraction(-3, 2), 2), ("-1", 2), (-1, "2"),
                                  (-1, -1), (-1, -2), (0, Fraction(-1))])
def test_non_integer_a_or_r_is_bad_input(a, r):
    # the recursion ran on -1.5 and returned the floats (0.0, 2.5, 0.0, 1.0),
    # and the closed form returned -2.25 for (-1.5, 2); a negative r gave the
    # float -1.0 (closed form), [] (table) or an IndexError (row)
    with pytest.raises(BadInput, match="need integers a and r"):
        coeff_table(a, r)
    with pytest.raises(BadInput, match="need integers a and r"):
        coeff_row(a, r)
    with pytest.raises(BadInput, match="need integers a and r"):
        c0_closed_form(a, r)


def test_integral_fraction_a_and_r_are_ints():
    (row,) = coeff_table(Fraction(-4, 2), Fraction(0))
    assert row == (-2, 0, (1,)) and type(row.a) is int
    assert coeff_table(Fraction(-1), Fraction(3))[3].c == (0, 1, 0, 1)
    c0 = c0_closed_form(Fraction(-4, 2), Fraction(2))
    assert c0 == coeff_row(-2, 4).c[0] and type(c0) is int


def test_base_rows():
    assert coeff_row(-5, 0).c == (1,)
    assert coeff_row(-5, 1).c == (0, 1)


@pytest.mark.parametrize("a", range(0, -9, -1))
def test_closed_form_matches_recursion(a):
    for ell in range(0, 11):
        assert coeff_row(a, 2 * ell).c[0] == c0_closed_form(a, ell)
        if ell:
            assert coeff_row(a, 2 * ell - 1).c[0] == 0


def test_closed_form_examples():
    # symbolic in a, checked pointwise
    for a in range(0, -9, -1):
        assert c0_closed_form(a, 0) == 1
        assert c0_closed_form(a, 1) == -a
        assert c0_closed_form(a, 2) == 3 * a * a + 6 * a


@pytest.mark.parametrize("a", range(0, -9, -1))
def test_parity_and_leading(a):
    rows = coeff_table(a, 12)
    for r, row in enumerate(rows):
        for s, c in enumerate(row.c):
            if (s - r) % 2 == 1:
                assert c == 0, (a, r, s)
        assert row.c[r] == 1
        if r >= 1:
            assert row.c[r - 1] == 0


def _pair_matrix(a):
    return validate([[2, a], [0 if a == 0 else -1, 2]])


def test_relation_displays():
    # the concrete list for a_ij in 0..-4, as Lyndon normal forms
    expected = {
        0: "[B1,B2]",
        -1: "[B1,[B1,B2]]",
        -2: "[B1,[B1,[B1,B2]]]",
        -3: "[B1,[B1,[B1,[B1,B2]]]]",
        -4: "[B1,[B1,[B1,[B1,[B1,B2]]]]]",
    }
    lower = {
        0: [],
        -1: [(1, "B2")],
        -2: [(4, "[B1,B2]")],
        -3: [(10, "[B1,[B1,B2]]"), (9, "B2")],
        -4: [(20, "[B1,[B1,[B1,B2]]]"), (64, "[B1,B2]")],
    }
    for a, top in expected.items():
        got = serre_relation(_pair_matrix(a), 1, 2)
        want = to_lyndon(parse_bracket(top))
        for coeff, text in lower[a]:
            want = want + coeff * to_lyndon(parse_bracket(text))
        assert got == want, a


def test_relation_both_orders():
    c = _pair_matrix(-2)
    # a_21 = -1 in this matrix, so the reversed pair gives the short relation
    got = serre_relation(c, 2, 1)
    want = to_lyndon(parse_bracket("[B2,[B2,B1]]")) + to_lyndon(parse_bracket("B1"))
    assert got == want


def test_relation_errors():
    c = _pair_matrix(-1)
    with pytest.raises(SameIndexError):
        serre_relation(c, 1, 1)
    with pytest.raises(IndexError):
        serre_relation(c, 1, 3)


def test_dolan_grady_from_affine_matrix():
    c = preset("A1~")
    rel = serre_relation(c, 0, 1)
    want = to_lyndon(parse_bracket("[B0,[B0,[B0,B1]]]")) + 4 * to_lyndon(parse_bracket("[B0,B1]"))
    assert rel == want


def _bench_library(name):
    """A library case of the benchmark (bench/child.py), which the harness
    checks for correctness; its answers are pinned here as well."""
    path = Path(__file__).resolve().parent.parent / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.LIBRARY[name]


@pytest.mark.parametrize("name, depth, ranks", [
    ("A3", 3, [5, 18, 56, 154]),
    ("A1~", 4, [2, 6, 14, 30, 59]),
    ("A1~", 6, [2, 6, 14, 30, 59, 113, 211]),
    ("A2~", 4, [6, 21, 66, 180, 489]),
])
def test_serre_ad_word_span_ranks(name, depth, ranks):
    assert _bench_library("serre-span")(name, depth) == {"ranks": ranks}


def _spectrum_polynomial(a):
    """Coefficients, lowest degree first, of prod_m (x - i m) over the sl_2
    weights m = a, a + 2, ..., -a of the e_i-string through e_j, on which
    ad(y_i) acts with eigenvalues i m: prod_{m > 0} (x^2 + m^2) over
    m = -a, -a - 2, ..., times x when a is even."""
    poly = [0, 1] if a % 2 == 0 else [1]
    for m in range(-a, 0, -2):
        # times x^2 + m^2
        poly = [m * m * p + q for p, q in zip(poly + [0, 0], [0, 0] + poly)]
    return tuple(poly)


def spectrum_mismatches():
    """The a in 0 .. -11 whose Serre row coeff_row(a, 1 - a) differs from
    its sl_2 spectrum polynomial (read through the module, so a replaced
    coeff_row is the one checked)."""
    return [a for a in range(0, -12, -1) if serre_coeffs.coeff_row(a, 1 - a).c != _spectrum_polynomial(a)]


def test_spectrum_polynomial_examples():
    assert _spectrum_polynomial(0) == (0, 1)
    assert _spectrum_polynomial(-1) == (1, 0, 1)
    # Dolan-Grady: x^3 + 4x
    assert _spectrum_polynomial(-2) == (0, 4, 0, 1)
    # (x^2 + 9)(x^2 + 1)
    assert _spectrum_polynomial(-3) == (9, 0, 10, 0, 1)


def test_serre_rows_are_the_sl2_spectrum_polynomials():
    assert spectrum_mismatches() == []
