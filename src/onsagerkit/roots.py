"""Root systems: finite positive roots with the normalized form; affine roots.

Roots are integer coordinate tuples over the simple roots.  The bilinear form
is normalized so long roots have squared length 2; all other lengths follow
from the symmetrizer.  Affine roots are (finite part, delta level) pairs with
multiplicity 1 (real) or r (imaginary).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cartan import FINITE, UNTWISTED_AFFINE, CartanMatrix, NotAffine, NotFinite, _coroot_coords_raw, root_closure
from .exact_math import BadInput


class NotARoot(ValueError):
    pass


def height(root):
    return sum(root)


def root_str(root):
    """Root coordinates as a signed sum of simple roots, e.g. "a1+2a2"."""
    bits = []
    for i, c in enumerate(root):
        if not c:
            continue
        label = "a%d" % (i + 1)
        if c == 1:
            bits.append("+%s" % label)
        elif c == -1:
            bits.append("-%s" % label)
        else:
            bits.append("%+d%s" % (c, label))
    s = "".join(bits) or "0"
    return s[1:] if s.startswith("+") else s


class RootSystem:
    """Positive roots of a finite-type Cartan matrix plus the normalized form."""

    def __init__(self, cartan: CartanMatrix):
        if cartan.kind != FINITE:
            raise NotFinite("root enumeration requires a finite-type matrix")
        self.cartan = cartan
        n = cartan.n
        all_roots = root_closure(cartan.a)
        self.positive_roots = sorted(
            (v for v in all_roots if all(c >= 0 for c in v)),
            key=lambda v: (height(v), v),
        )
        self._position = {a: i for i, a in enumerate(self.positive_roots)}
        self._all = frozenset(all_roots)
        self._coroot = {a: _coroot_coords_raw(cartan.a, cartan.d, a) for a in self._all}
        dmax = max(cartan.d)
        self.form = tuple(
            tuple(Fraction(cartan.d[i] * cartan.a[i][j], dmax) for j in range(n))
            for i in range(n)
        )
        self.theta = self.positive_roots[-1]
        if self.form_value(self.theta, self.theta) != 2:
            raise BadInput("highest root is not long; matrix is decomposable")

    @property
    def rank(self):
        return self.cartan.n

    def is_root(self, v):
        return tuple(v) in self._all

    def is_positive(self, v):
        v = tuple(v)
        return v in self._all and all(c >= 0 for c in v)

    @property
    def max_height(self):
        return height(self.theta)

    def form_value(self, alpha, beta):
        """(alpha, beta) for arbitrary lattice vectors."""
        n = self.rank
        return sum(
            alpha[i] * beta[j] * self.form[i][j]
            for i in range(n)
            for j in range(n)
            if alpha[i] and beta[j]
        )

    def norm2(self, alpha):
        return self.form_value(alpha, alpha)

    def is_long(self, alpha):
        return self.norm2(alpha) == 2

    def pairing(self, alpha, i):
        """alpha(h_i) = sum_j r_j(alpha) a[i][j]."""
        return sum(alpha[j] * self.cartan.a[i][j] for j in range(self.rank))

    def coroot_coords(self, alpha):
        """Integer coordinates k_i with h_alpha = sum_i k_i(alpha) h_i."""
        try:
            return self._coroot[tuple(alpha)]
        except KeyError:
            raise NotARoot("%r is not a root" % (alpha,)) from None

    def decompositions(self, gamma):
        """The pairs (a, b) of positive roots with a + b = gamma and a before
        b, in positive-root order: the first is gamma's extraspecial pair."""
        out = []
        for i, a in enumerate(self.positive_roots):
            b = tuple(g - c for g, c in zip(gamma, a))
            if self._position.get(b, -1) > i:
                out.append((a, b))
        return out

    def chain_p(self, alpha, beta):
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = tuple(b - a for a, b in zip(alpha, beta))
        while cur in self._all:
            p += 1
            cur = tuple(c - a for a, c in zip(alpha, cur))
        return p


# ---------------------------------------------------------------------------
# affine roots
# ---------------------------------------------------------------------------

class AffineRoot(namedtuple("AffineRoot", "finite level")):
    """finite part + level * delta; the finite part is the all-zero tuple for
    imaginary roots."""

    __slots__ = ()

    @property
    def is_imaginary(self):
        return not any(self.finite)

    def __neg__(self):
        return AffineRoot(tuple(-c for c in self.finite), -self.level)

    def __str__(self):
        if self.is_imaginary:
            return "%dd" % self.level if self.level != 1 else "d"
        fin = root_str(self.finite)
        if self.level == 0:
            return fin
        lv = "%+dd" % self.level if abs(self.level) != 1 else ("+d" if self.level > 0 else "-d")
        return fin + lv


class AffineData:
    """Finite part and bookkeeping of an untwisted affine Cartan matrix."""

    def __init__(self, cartan: CartanMatrix):
        if cartan.kind != UNTWISTED_AFFINE:
            raise NotAffine("expected an untwisted affine matrix")
        self.cartan = cartan
        self.finite_cartan = cartan.finite_part()
        self.rootsystem = RootSystem(self.finite_cartan)
        self.theta = self.rootsystem.theta
        self.delta_height = 1 + height(self.theta)
        self.rank = self.finite_cartan.n

    def height(self, gamma: AffineRoot):
        """Height over the affine simple roots (delta = alpha_0 + theta)."""
        return gamma.level * self.delta_height + height(gamma.finite)

    def simple_root(self, label):
        """Affine simple root for a generator label (0 = -theta + delta)."""
        if label == 0:
            return AffineRoot(tuple(-c for c in self.theta), 1)
        unit = tuple(1 if i == label - 1 else 0 for i in range(self.rank))
        return AffineRoot(unit, 0)

    def positive_up_to(self, H):
        """All positive affine roots of height <= H with multiplicities."""
        if H < 1:
            return []
        out = []
        rs = self.rootsystem
        zero = (0,) * self.rank
        for alpha in rs.positive_roots:
            if height(alpha) <= H:
                out.append((AffineRoot(alpha, 0), 1))
        k = 1
        while k * self.delta_height - rs.max_height <= H:
            if k * self.delta_height <= H:
                out.append((AffineRoot(zero, k), self.rank))
            for alpha in sorted(rs._all):
                ht = k * self.delta_height + height(alpha)
                if 1 <= ht <= H:
                    out.append((AffineRoot(alpha, k), 1))
            k += 1
        out.sort(key=lambda pair: (self.height(pair[0]), pair[0]))
        return out
