"""Inhomogeneous Serre coefficients and the defining relations they produce.

The integers c_s[r] depend on a single Cartan entry a.  Conventions:
c_r[r] = 1, c_{r-1}[r] = 0 for r >= 1, c_{-1}[r] = 0, and for r >= 2

    c_s[r] = c_{s-1}[r-1] - (r-1)(r-2+a) c_s[r-2].

The coefficients vanish for s and r of opposite parity, and the bottom even
entry has the closed form c_0[2l] = (-1)^l prod_{k=1..l} (2k-1)(2k-2+a).
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import CartanMatrix
from .exact_math import IdentityViolation
from .freelie import FreeLieElement, ad_power, to_lyndon


class SameIndexError(ValueError):
    """Relations are only defined for ordered pairs of distinct nodes."""


class CoeffRow(namedtuple("CoeffRow", "a r c")):
    """The row c = (c_0[r], ..., c_r[r]) for the Cartan entry a."""

    __slots__ = ()

    def __new__(cls, a, r, c):
        if len(c) != r + 1:
            raise IdentityViolation("coefficient row r=%d has %d entries" % (r, len(c)))
        return super().__new__(cls, a, r, c)

    @classmethod
    def _make(cls, iterable):  # so _replace checks the length too
        return cls(*iterable)


def coeff_table(a, rmax):
    """Rows (c_0[r], ..., c_r[r]) for r = 0..rmax."""
    rows = [[1]]
    if rmax >= 1:
        rows.append([0, 1])
    for r in range(2, rmax + 1):
        prev, prev2 = rows[r - 1], rows[r - 2]
        factor = (r - 1) * (r - 2 + a)
        row = []
        for s in range(r + 1):
            left = prev[s - 1] if s >= 1 else 0
            right = prev2[s] if s <= r - 2 else 0
            row.append(left - factor * right)
        rows.append(row)
    return [CoeffRow(a, r, tuple(row)) for r, row in enumerate(rows[: rmax + 1])]


def coeff_row(a, r) -> CoeffRow:
    return coeff_table(a, r)[r]


def c0_closed_form(a, ell):
    """(-1)^l prod_{k=1..l} (2k-1)(2k-2+a); equals coeff_row(a, 2l).c[0]."""
    prod = 1
    for k in range(1, ell + 1):
        prod *= (2 * k - 1) * (2 * k - 2 + a)
    return (-1) ** ell * prod


def serre_relation(c: CartanMatrix, i, j) -> FreeLieElement:
    """sum_s c_s[1-a_ij] (ad B_i)^s B_j in Lyndon normal form.

    i and j are generator labels of the matrix.
    """
    if i == j:
        raise SameIndexError("relation needs two distinct generators, got %r twice" % (i,))
    if i not in c.labels or j not in c.labels:
        raise IndexError("generator label outside %r" % (c.labels,))
    a = c.entry(i, j)
    row = coeff_row(a, 1 - a)
    out = FreeLieElement()
    for s, coeff in enumerate(row.c):
        if coeff:
            out = out + coeff * to_lyndon(ad_power(i, j, s))
    return out
