"""Untwisted affine algebras in the loop realization.

Elements are finite exact combinations of x[k] = x (x) t^k over the Chevalley
basis of a finite-type table, plus central c and derivation d.  One key format
covers all of them: (basis key, k) for x[k], with the finite table's basis keys
('h', i) and ('e', root), and the keys "c" and "d".  The bracket is

    [x[k], y[m]] = [x, y][k+m] + k delta_{k,-m} (x, y) c,
    [d, x[m]] = m x[m],      [c, anything] = 0,

with the normalized invariant form of the finite part.  The involution sends
x[k] -> omega(x)[-k], c -> -c, d -> -d; its fixed space has the integral basis
y_{alpha+k delta} = e_alpha[k] - e_{-alpha}[-k] and
y_{k delta}^(i) = h_i[k] - h_i[-k].

The fixed-basis bracket works on numbers.  The fixed vector whose leading term
is x[level], for the table's key number k of x, is numbered level * t.dim + k
(`y_number`, read back by `y_index`): y = x[level] - x'[-level], x' the omega
partner of x.  Every sign and level of a root has its number, and the positive
indices (level > 0, or level 0 and a positive root) are the fixed basis, over
which `y_vector` writes each fixed vector.  The same numbers at level 0 are the
finite fixed basis y_alpha.  `k_bracket_expand` folds a bracket from two memo
entries of its key pair, whose four entries it certifies once per key pair.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

from .chevalley import StructureTable, _key_str, _omega_key, _vneg
from .exact_math import SparseElement, add_term, bilinear, signed_sum
from .roots import AffineRoot


class NotExpandable(Exception):
    """The element does not lie in the span of the fixed basis.

    A bug signal, not bad input: brackets of fixed elements always expand.
    So it is deliberately not a BadInput, which the CLI reports as a usage
    error.
    """


# the keys of the central element and the derivation
CD = ("c", "d")


class LoopElement(SparseElement):
    """Exact combination of loop basis keys: (basis key, level) for x[level]
    over the finite table's keys ('h', i) and ('e', root), and the keys "c"
    and "d" for the central element and the derivation."""

    __slots__ = ()

    def __repr__(self):
        loop = sorted((k for k in self.terms if k not in CD), key=lambda k: (k[1], str(k[0])))
        return signed_sum([(self.terms[k], "%s[%d]" % (_key_str(k[0]), k[1])) for k in loop]
                          + [(self.terms[k], k) for k in CD if k in self.terms])


def e_at(alpha, k):
    return LoopElement({(("e", tuple(alpha)), k): 1})


def h_at(i, k):
    return LoopElement({(("h", i), k): 1})


def central():
    return LoopElement({"c": 1})


def derivation():
    return LoopElement({"d": 1})


def _pair_bracket(t: StructureTable, k1, k2):
    """Bracket of two loop basis keys, as a sparse vector over loop keys."""
    if k1 == "c" or k2 == "c":
        return None
    if k1 == "d":
        # [d, x[m]] = m x[m]
        return {k2: k2[1]} if k2 != "d" and k2[1] else None
    if k2 == "d":
        return {k1: -k1[1]} if k1[1] else None
    (a, l), (b, m) = k1, k2
    terms, form = t.entry(t.number[a], t.number[b])
    keys = t.keys
    out = {(keys[k], l + m): c for k, c in terms}
    if form and l == -m and l:
        out["c"] = l * form
    return out


def _pair_form(t: StructureTable, k1, k2):
    """Invariant form of two loop basis keys."""
    if k1 in CD or k2 in CD:
        return int(k1 in CD and k2 in CD and k1 != k2)
    (a, l), (b, m) = k1, k2
    return t.form_keys(a, b) if l == -m else 0


def bracket_loop(t: StructureTable, x: LoopElement, y: LoopElement) -> LoopElement:
    return LoopElement(bilinear(partial(_pair_bracket, t), x.terms, y.terms))


def loop_form(t: StructureTable, x: LoopElement, y: LoopElement):
    """(x[k], y[m]) = delta_{k,-m}(x, y); (c, d) = 1; everything else 0."""
    return sum((c1 * c2 * _pair_form(t, k1, k2)
                for k1, c1 in x.terms.items() for k2, c2 in y.terms.items()), Fraction(0))


def omega_tilde(x: LoopElement) -> LoopElement:
    """x[k] -> omega(x)[-k], c -> -c, d -> -d."""
    return LoopElement({k if k in CD else (_omega_key(k[0]), -k[1]): -v for k, v in x.terms.items()})


class YIndex(namedtuple("YIndex", "gamma i", defaults=(1,))):
    """Index of a fixed-basis vector: a positive affine root gamma plus a
    slot i in 1..r used only at imaginary roots."""

    __slots__ = ()

    def __str__(self):
        if self.gamma.is_imaginary:
            return "y(%s)^(%d)" % (self.gamma, self.i)
        return "y(%s)" % (self.gamma,)


@lru_cache(maxsize=None)
def y_affine(idx: YIndex) -> LoopElement:
    """The fixed-basis element for an index (works for either sign of the
    root; y_{-gamma} = -y_gamma comes out automatically).  Built once per
    index; the element is shared, so callers must not modify its terms."""
    gamma = idx.gamma
    if gamma.is_imaginary:
        key = neg = ("h", idx.i - 1)
    else:
        key, neg = ("e", gamma.finite), ("e", _vneg(gamma.finite))
    terms = {(key, gamma.level): 1}
    add_term(terms, (neg, -gamma.level), -1)  # an imaginary root at level 0 cancels
    return LoopElement(terms)


def y_coordinates(x: LoopElement, rank):
    """Coordinates of a fixed element over the positive-index fixed basis.

    Each term is checked against its omega-tilde partner key, which must
    carry the opposite coefficient.  Raises NotExpandable when the element is
    not in that span (nonzero c or d coefficient, a level-0 Cartan term, or
    mismatched opposite coefficients).
    """
    if "c" in x.terms or "d" in x.terms:
        raise NotExpandable("nonzero central/derivation coefficient")
    zero = (0,) * rank
    out = {}
    for (key, k), v in x.terms.items():
        # a level-0 Cartan term is its own partner, so it fails here too
        if x.terms.get((_omega_key(key), -k), 0) != -v:
            raise NotExpandable("element is not involution-fixed")
        kind, val = key
        if kind == "h":
            if k > 0:
                out[YIndex(AffineRoot(zero, k), val + 1)] = v
        elif k > 0 or (k == 0 and all(c >= 0 for c in val)):
            out[YIndex(AffineRoot(val, k))] = v
    return out


def y_number(t: StructureTable, key, level):
    """Number of the fixed vector whose leading term is key[level]."""
    return level * t.dim + t.number[key]


def y_index(t: StructureTable, n):
    """The YIndex of the fixed vector numbered n; a finite one's root is at level 0."""
    level, k = divmod(n, t.dim)
    kind, v = t.keys[k]
    if kind == "h":
        return YIndex(AffineRoot((0,) * t.rs.rank, level), v + 1)
    return YIndex(AffineRoot(v, level))


def y_vector(t: StructureTable, k, level):
    """The fixed vector x[level] - omega(x)[-level], x the key numbered k,
    over the fixed basis by number, {n: +-1}: y_{-gamma} = -y_gamma, and an
    imaginary root at level 0 gives the zero vector {}."""
    if level > 0 or (level == 0 and k in t.positive):
        return {level * t.dim + k: 1}
    p = t.partner[k]
    if level == 0 and p == k:
        # h_i is its own omega partner
        return {}
    return {-level * t.dim + p: -1}


def k_bracket_expand(t: StructureTable, u, v):
    """[y_u, y_v] over the fixed basis by number, u and v fixed-vector numbers.

    With y_u = k_u[l_u] - p_u[-l_u], p the omega partner, and E the memo
    entries, the bracket is X + omega(X) for X = E(u, v)[l_u + l_v] -
    E(u, p_v)[l_u - l_v], and each term c k[l] of X folds to
    c * y_vector(k, l), once the key pair is certified: E(p_u, p_v) and
    E(p_u, v) are the omega images {p_k: -c} of E(u, v) and E(u, p_v), which
    makes the result fixed, and the forms agree, which makes the central
    coefficient, l_u (f(u, v) - f(p_u, p_v)) at l_u = -l_v != 0 and
    l_u (f(p_u, v) - f(u, p_v)) at l_u = l_v != 0, vanish.  The certificate
    is kept in t._certified beside t._memo, for the four entry objects it
    read; a pair without one goes through `_four_entry_expand`, which makes
    the checks of y_coordinates term by term.
    """
    dim, partner, memo = t.dim, t.partner, t._memo
    lu, ku = divmod(u, dim)
    lv, kv = divmod(v, dim)
    row, prow, pv = ku * dim, partner[ku] * dim, partner[kv]
    cert = t._certified[row + kv]
    if not (cert and cert[0] is memo[row + kv] and cert[1] is memo[row + pv]
            and cert[2] is memo[prow + kv] and cert[3] is memo[prow + pv]):
        cert = _certify(t, ku, kv)
        if cert is None:
            return _four_entry_expand(t, u, v)
    out = {}
    for terms, level, sign in ((cert[0][0], lu + lv, 1), (cert[1][0], lu - lv, -1)):
        for k, w in terms:
            if level > 0 or (level == 0 and k in t.positive):
                n = level * dim + k
            elif level or partner[k] != k:
                n, w = partner[k] - level * dim, -w
            else:
                continue
            out[n] = out.get(n, 0) + sign * w
    return {n: w for n, w in out.items() if w} if 0 in out.values() else out


def _certify(t: StructureTable, ku, kv):
    """k_bracket_expand's certificate of the key pair (ku, kv), shared with
    (ku, p_v), (p_u, kv), (p_u, p_v); None unless it holds, term for term."""
    dim, partner, memo = t.dim, t.partner, t._memo
    pairs = (ku, kv), (ku, partner[kv]), (partner[ku], kv), (partner[ku], partner[kv])
    e = [memo[i * dim + j] or t.entry(i, j) for i, j in pairs]
    for (terms, form), (image, image_form) in ((e[0], e[3]), (e[1], e[2])):
        if form != image_form or image != tuple([(partner[k], -c) for k, c in terms]):
            return None
    for x, (i, j) in enumerate(pairs):  # the pair at x reads e[x ^ 0], ..., e[x ^ 3]
        t._certified[i * dim + j] = e[x], e[x ^ 1], e[x ^ 2], e[x ^ 3]
    return e


def _four_entry_expand(t: StructureTable, u, v):
    """k_bracket_expand term by term, with the checks of y_coordinates:
    NotExpandable on a nonzero central coefficient or an unmatched term."""
    dim, partner, memo = t.dim, t.partner, t._memo
    lu, ku = divmod(u, dim)
    lv, kv = divmod(v, dim)
    x = (ku, lu, 1), (partner[ku], -lu, -1)
    y = (kv, lv, 1), (partner[kv], -lv, -1)
    acc = {}
    central = 0
    for a, la, ca in x:
        row = a * dim
        for b, lb, cb in y:
            terms, form = memo[row + b] or t.entry(a, b)
            c = ca * cb
            base = (la + lb) * dim
            for k, w in terms:
                n = base + k
                acc[n] = acc.get(n, 0) + c * w
            if form and la == -lb and la:
                central += la * c * form
    if central:
        raise NotExpandable("nonzero central coefficient")
    positive = t.positive
    out = {}
    for n, w in acc.items():
        if not w:
            continue
        level, k = divmod(n, dim)
        if acc.get(partner[k] - level * dim, 0) != -w:
            raise NotExpandable("element is not involution-fixed")
        if level > 0 or (level == 0 and k in positive):
            out[n] = w
    return out


# ---------------------------------------------------------------------------
# the rank-1 example: the classical basis A_m, G_m
# ---------------------------------------------------------------------------

def onsager_basis(m: int):
    """(A_m, G_m) over the rank-1 loop algebra: A_m = y_{alpha_1 + m delta},
    G_m = y_{m delta}^(1); G_{-m} = -G_m and G_0 = 0 come out automatically."""
    return y_affine(YIndex(AffineRoot((1,), m))), y_affine(YIndex(AffineRoot((0,), m), 1))
