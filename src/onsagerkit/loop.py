"""Untwisted affine algebras in the loop realization.

Elements are finite exact combinations of x[k] = x (x) t^k over the Chevalley
basis of a finite-type table, plus central c and derivation d.  The bracket is

    [x[k], y[m]] = [x, y][k+m] + k delta_{k,-m} (x, y) c,
    [d, x[m]] = m x[m],      [c, anything] = 0,

with the normalized invariant form of the finite part.  The involution sends
x[k] -> omega(x)[-k], c -> -c, d -> -d; its fixed space has the integral basis
y_{alpha+k delta} = e_alpha[k] - e_{-alpha}[-k] and
y_{k delta}^(i) = h_i[k] - h_i[-k].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import ChevElement, StructureTable, _vneg
from .exact_math import add_into, add_term
from .roots import AffineRoot


class NotExpandable(Exception):
    """The element does not lie in the span of the fixed basis.

    A bug signal, not bad input: brackets of fixed elements always expand.
    So it is deliberately not a ValueError, which the CLI reports as a usage
    error.
    """


class LoopElement:
    """terms: (basis key, level) -> coefficient, plus c and d coefficients.

    Basis keys are ('h', i) and ('e', root) over the finite table.
    """

    __slots__ = ("terms", "c", "d")

    def __init__(self, terms=None, c=0, d=0):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    self.terms[k] = v
        self.c = Fraction(c)
        self.d = Fraction(d)

    def is_zero(self):
        return not self.terms and not self.c and not self.d

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        return self.terms == other.terms and self.c == other.c and self.d == other.d

    def __add__(self, other):
        return LoopElement(add_into(dict(self.terms), other.terms), self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return LoopElement()
        return LoopElement(
            {k: scalar * v for k, v in self.terms.items()},
            scalar * self.c,
            scalar * self.d,
        )

    __mul__ = __rmul__

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for (key, k), v in sorted(self.terms.items(), key=lambda t: (t[0][1], str(t[0][0]))):
            kind, val = key
            base = "h%d" % (val + 1) if kind == "h" else "e%s" % (list(val),)
            bits.append("%s*%s[%d]" % (v, base, k))
        if self.c:
            bits.append("%s*c" % self.c)
        if self.d:
            bits.append("%s*d" % self.d)
        return " + ".join(bits)


def from_finite(x: ChevElement, k: int) -> LoopElement:
    terms = {}
    for i, c in x.h.items():
        terms[(("h", i), k)] = c
    for a, c in x.e.items():
        terms[(("e", a), k)] = c
    return LoopElement(terms)


def e_at(alpha, k):
    return LoopElement({(("e", tuple(alpha)), k): 1})


def h_at(i, k):
    return LoopElement({(("h", i), k): 1})


def central():
    return LoopElement(c=1)


def derivation():
    return LoopElement(d=1)


def _basis_form(table: StructureTable, k1, k2):
    """Invariant form on finite basis keys."""
    return table.invariant_form(table.element_for_key(k1), table.element_for_key(k2))


def bracket_loop(t: StructureTable, x: LoopElement, y: LoopElement) -> LoopElement:
    out_terms = {}
    out_c = Fraction(0)
    for (k1, lv1), c1 in x.terms.items():
        x1 = t.element_for_key(k1)
        for (k2, lv2), c2 in y.terms.items():
            coeff = c1 * c2
            z = t.bracket(x1, t.element_for_key(k2))
            lv = lv1 + lv2
            for i, ch in z.h.items():
                add_term(out_terms, (("h", i), lv), coeff * ch)
            for a, ce in z.e.items():
                add_term(out_terms, (("e", a), lv), coeff * ce)
            if lv1 == -lv2 and lv1 != 0:
                out_c += coeff * lv1 * _basis_form(t, k1, k2)
    # derivation action: [d, x[m]] = m x[m]
    if x.d:
        for (k2, lv2), c2 in y.terms.items():
            if lv2:
                add_term(out_terms, (k2, lv2), x.d * c2 * lv2)
    if y.d:
        for (k1, lv1), c1 in x.terms.items():
            if lv1:
                add_term(out_terms, (k1, lv1), -y.d * c1 * lv1)
    return LoopElement(out_terms, out_c, 0)


def loop_form(t: StructureTable, x: LoopElement, y: LoopElement):
    """(x[k], y[m]) = delta_{k,-m}(x, y); (c, d) = 1; everything else 0."""
    total = Fraction(0)
    for (k1, lv1), c1 in x.terms.items():
        for (k2, lv2), c2 in y.terms.items():
            if lv1 == -lv2:
                total += c1 * c2 * _basis_form(t, k1, k2)
    total += x.c * y.d + x.d * y.c
    return total


def omega_tilde(x: LoopElement) -> LoopElement:
    """x[k] -> omega(x)[-k], c -> -c, d -> -d."""
    terms = {}
    for ((kind, val), k), v in x.terms.items():
        if kind == "h":
            terms[(("h", val), -k)] = -v
        else:
            terms[(("e", _vneg(val)), -k)] = -v
    return LoopElement(terms, -x.c, -x.d)


@dataclass(frozen=True, order=True)
class YIndex:
    """Index of a fixed-basis vector: a positive affine root plus a slot
    1..r used only at imaginary roots."""

    gamma: AffineRoot
    i: int = 1

    def __str__(self):
        if self.gamma.is_imaginary:
            return "y(%s)^(%d)" % (self.gamma, self.i)
        return "y(%s)" % (self.gamma,)


def y_affine(idx: YIndex) -> LoopElement:
    """The fixed-basis element for an index (works for either sign of the
    root; y_{-gamma} = -y_gamma comes out automatically)."""
    gamma = idx.gamma
    if gamma.is_imaginary:
        return h_at(idx.i - 1, gamma.level) - h_at(idx.i - 1, -gamma.level)
    return e_at(gamma.finite, gamma.level) - e_at(_vneg(gamma.finite), -gamma.level)


def y_real(alpha, k):
    return y_affine(YIndex(AffineRoot(tuple(alpha), k)))


def y_imag(i, k, rank):
    zero = (0,) * rank
    return y_affine(YIndex(AffineRoot(zero, k), i))


def y_coordinates(x: LoopElement, rank):
    """Coordinates of a fixed element over the positive-index fixed basis.

    Raises NotExpandable when the element is not in that span (nonzero c or d
    coefficient, a level-0 Cartan term, or mismatched opposite coefficients).
    """
    if x.c or x.d:
        raise NotExpandable("nonzero central/derivation coefficient")
    zero = (0,) * rank
    out = {}
    seen = set()
    for ((kind, val), k), v in x.terms.items():
        if (kind, val, k) in seen:
            continue
        if kind == "h":
            if k == 0:
                raise NotExpandable("level-0 Cartan term")
            partner = (("h", val), -k)
            if x.terms.get(partner, Fraction(0)) != -v:
                raise NotExpandable("element is not involution-fixed")
            seen.add((kind, val, k))
            seen.add((kind, val, -k))
            lv, coeff = (k, v) if k > 0 else (-k, -v)
            out[YIndex(AffineRoot(zero, lv), val + 1)] = coeff
        else:
            partner = (("e", _vneg(val)), -k)
            if x.terms.get(partner, Fraction(0)) != -v:
                raise NotExpandable("element is not involution-fixed")
            seen.add((kind, val, k))
            seen.add(("e", _vneg(val), -k))
            positive = k > 0 or (k == 0 and all(c >= 0 for c in val))
            if positive:
                out[YIndex(AffineRoot(val, k))] = v
            else:
                out[YIndex(AffineRoot(_vneg(val), -k))] = -v
    return out


def k_bracket_expand(t: StructureTable, idx1: YIndex, idx2: YIndex):
    """Bracket of two fixed-basis vectors, re-expanded over the fixed basis."""
    z = bracket_loop(t, y_affine(idx1), y_affine(idx2))
    return y_coordinates(z, t.rs.rank)


# ---------------------------------------------------------------------------
# the rank-1 example: the classical basis A_m, G_m
# ---------------------------------------------------------------------------

def onsager_basis(m: int):
    """(A_m, G_m) over the rank-1 loop algebra: A_m = y_{alpha_1 + m delta},
    G_m = y_{m delta}^(1); G_{-m} = -G_m and G_0 = 0 come out automatically."""
    a = y_real((1,), m)
    g = y_imag(1, m, 1)
    return a, g
