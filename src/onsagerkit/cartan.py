"""Generalized Cartan matrices: validation, symmetrizers, classification, presets.

Conventions.  A Cartan matrix entry is a[i][j] = alpha_j(h_i).  Finite presets
use Bourbaki node numbering with labels 1..n; untwisted affine presets append
the extra node first, with labels 0..r.  For type C_r the last node is the
long simple root, so a[r-1][r] = -2 and a[r][r-1] = -1 (0-based rows).
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact_math import BadInput, IdentityViolation, IncrementalSpan, exact_int


class NotGCM(BadInput):
    """The matrix violates the generalized-Cartan-matrix axioms."""


class NotSymmetrizable(BadInput):
    """No positive diagonal matrix symmetrizes the given matrix."""


class UnknownPreset(BadInput):
    """Preset name is not in the supported list."""


class NotFinite(ValueError):
    """Operation requires a finite-type Cartan matrix."""


class NotAffine(ValueError):
    """Operation requires an untwisted-affine Cartan matrix."""


FINITE = "Finite"
UNTWISTED_AFFINE = "UntwistedAffine"
OTHER = "Other"


class CartanMatrix(namedtuple("CartanMatrix", "a d kind labels typename affine_node", defaults=(None, None))):
    """A validated generalized Cartan matrix (rows a) with symmetrizer d, type
    tag and labels; typename and affine_node are None when not known."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.a)

    def entry(self, i, j):
        """Cartan entry by generator label."""
        return self.a[self.labels.index(i)][self.labels.index(j)]

    def finite_part(self):
        """The finite-type matrix left after deleting the affine node (labels 1..r)."""
        if self.kind != UNTWISTED_AFFINE:
            raise NotAffine("finite_part requires an untwisted affine matrix")
        keep = [i for i in range(self.n) if i != self.affine_node]
        return validate(_submatrix(self.a, keep), labels=tuple(range(1, len(keep) + 1)))


def _check_gcm_axioms(a):
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise NotGCM("matrix is not square")
        if a[i][i] != 2:
            raise NotGCM("diagonal entry a[%d][%d] = %d, expected 2" % (i, i, a[i][i]))
        for j in range(n):
            if i == j:
                continue
            if a[i][j] > 0:
                raise NotGCM("positive off-diagonal entry a[%d][%d] = %d" % (i, j, a[i][j]))
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise NotGCM("zero pattern is not symmetric at (%d, %d)" % (i, j))


def symmetrizer(a):
    """Minimal positive integer vector d with diag(d) * a symmetric.

    Solved per connected component of the nonzero pattern; each component is
    scaled to coprime positive integers, so the whole vector is primitive.
    """
    _check_gcm_axioms(a)
    n = len(a)
    vals = [None] * n
    for start in range(n):
        if vals[start] is not None:
            continue
        vals[start] = Fraction(1)
        component = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v == u or a[u][v] == 0:
                    continue
                # d_u * a[u][v] = d_v * a[v][u]
                ratio = Fraction(a[u][v], a[v][u])
                want = vals[u] * ratio
                if vals[v] is None:
                    vals[v] = want
                    component.append(v)
                    stack.append(v)
                elif vals[v] != want:
                    raise NotSymmetrizable("inconsistent cycle through nodes %d and %d" % (u, v))
        denom = lcm(*(vals[i].denominator for i in component))
        nums = [int(vals[i] * denom) for i in component]
        g = gcd(*nums)
        for i, x in zip(component, nums):
            vals[i] = x // g
    return tuple(vals)


def _submatrix(a, keep):
    return tuple(tuple(a[i][j] for j in keep) for i in keep)


def _leading_minors_positive(a):
    """Whether every leading principal minor is positive, in one pass: while
    rows 0..k-1 have pivots 0..k-1, row k reduced against them holds no key
    below k and a positive multiple of minor_{k+1} / minor_k at k."""
    span = IncrementalSpan()
    for k, row in enumerate(a):
        v = span.reduce(dict(enumerate(row)))
        if v.get(k, 0) <= 0:
            return False
        span.add(v)
    return True


def _coroot_coords_raw(a, d, root):
    """Coroot coordinates k_i of a root over a finite matrix with symmetrizer d.

    h_root = sum_i k_i h_i with k_i = r_i (alpha_i, alpha_i) / (root, root);
    computed with the unnormalized form diag(d) * a, which has the same ratios.
    """
    n = len(a)
    norm = sum(
        root[i] * root[j] * d[i] * a[i][j] for i in range(n) for j in range(n)
    )
    coords = []
    for i in range(n):
        k = Fraction(root[i] * 2 * d[i], norm)
        if k.denominator != 1:
            raise ValueError("non-integer coroot coordinate")
        coords.append(int(k))
    return tuple(coords)


_CLOSURE_CAP = 250000


@lru_cache(maxsize=64)  # a run closes one matrix; the bound caps a long-lived caller
def root_closure(a):
    """All roots of the finite-type matrix `a` (a tuple of row tuples),
    closed under simple reflections, as a frozenset; memoized by the rows.

    Roots are integer tuples over the simple roots.  s_i(v) = v - <v, i> a_i
    with pairing <v, i> = sum_j v_j a[i][j].  Only terminates for finite type;
    a generous cap guards against misuse.
    """
    n = len(a)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                pairing = sum(v[j] * a[i][j] for j in range(n))
                if pairing == 0:
                    continue
                w = tuple(v[j] - (pairing if j == i else 0) for j in range(n))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if len(seen) > _CLOSURE_CAP:
            raise RuntimeError("reflection closure did not terminate: matrix is not of finite type")
    return frozenset(seen)


def validate(a, labels=None):
    """Validate an integer matrix and classify it; an entry that is not an
    int or an integral Fraction is a NotGCM.

    Finite iff all leading principal minors are positive.  UntwistedAffine iff
    every one-node deletion is of finite type (so is every proper principal
    submatrix) and some node completes the affine extension of its deletion,
    which puts delta in the null space, so no determinant is taken.
    Everything else is Other.
    """
    ints = tuple(tuple(map(exact_int, row)) for row in a)
    for i, row in enumerate(ints):
        if None in row:
            j = row.index(None)
            raise NotGCM("entry a[%d][%d] = %r is not an integer" % (i, j, a[i][j]))
    a = ints
    d = symmetrizer(a)  # checks the GCM axioms first
    n = len(a)
    if labels is None:
        labels = tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("labels must be %d distinct values" % n)

    if _leading_minors_positive(a):
        return CartanMatrix(a, d, FINITE, labels, typename=_match_finite_name(a))

    rest = [[i for i in range(n) if i != k] for k in range(n)]
    subs = [_submatrix(a, keep) for keep in rest]
    if all(map(_leading_minors_positive, subs)):
        for node, sub in enumerate(subs):
            try:
                extends = _submatrix(a, [node] + rest[node]) == _affine_extension(sub)
            except (ValueError, RuntimeError):
                continue
            if extends:
                name = _match_finite_name(sub)
                return CartanMatrix(a, d, UNTWISTED_AFFINE, labels,
                                    typename=(name + "~") if name else None, affine_node=node)
    return CartanMatrix(a, d, OTHER, labels)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _chain(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _finite_preset_matrix(family, r):
    if family == "A" and r >= 1:
        return _chain(r)
    if family == "B" and r >= 2:
        m = _chain(r)
        m[r - 1][r - 2] = -2  # alpha_r short: a_{r,r-1} = -2, a_{r-1,r} = -1
        return m
    if family == "C" and r >= 1:
        m = _chain(r)
        if r >= 2:
            m[r - 2][r - 1] = -2  # alpha_r long: a_{r-1,r} = -2, a_{r,r-1} = -1
        return m
    if family == "D" and r >= 3:
        m = _chain(r)
        m[r - 1][r - 2] = m[r - 2][r - 1] = 0
        m[r - 1][r - 3] = m[r - 3][r - 1] = -1
        return m
    if family == "E" and r in (6, 7, 8):
        # Bourbaki: chain 1-3-4-5-...-r with node 2 attached to node 4
        m = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(k, k + 1) for k in range(5, r)]
        for u, v in edges:
            m[u - 1][v - 1] = m[v - 1][u - 1] = -1
        return m
    if family == "F" and r == 4:
        m = _chain(4)
        m[2][1] = -2  # alpha_3, alpha_4 short
        return m
    if family == "G" and r == 2:
        return [[2, -3], [-1, 2]]
    raise UnknownPreset("no finite preset %s%d" % (family, r))


def _affine_extension(fin):
    """Extend a finite matrix by the standard affine node, placed first;
    ValueError when the highest root is not unique (a decomposable matrix)."""
    positive = [v for v in root_closure(fin) if min(v) >= 0]
    top = max(map(sum, positive))
    tops = [v for v in positive if sum(v) == top]
    if len(tops) != 1:
        raise ValueError("no unique highest root: matrix is decomposable")
    theta = tops[0]
    d = symmetrizer(fin)
    ktheta = _coroot_coords_raw(fin, d, theta)
    r = len(fin)
    row0 = [2] + [-sum(ktheta[m] * fin[m][j] for m in range(r)) for j in range(r)]
    out = [row0]
    for j in range(r):
        col0 = -sum(theta[m] * fin[j][m] for m in range(r))
        out.append([col0] + list(fin[j]))
    return tuple(tuple(x) for x in out)


_PRESET_RE = re.compile(r"^([A-G])(\d+)(~?)$")


@lru_cache(maxsize=None)
def preset(name):
    """Standard Cartan matrix by name, e.g. "A2", "C3", "G2", "A1~", "C2~"."""
    m = _PRESET_RE.match(name.strip())
    if not m:
        raise UnknownPreset("cannot parse preset name %r" % name)
    family, rank, affine = m.group(1), int(m.group(2)), m.group(3) == "~"
    fin = tuple(map(tuple, _finite_preset_matrix(family, rank)))
    if not affine:
        c = validate(fin, labels=tuple(range(1, rank + 1)))
        if c.kind != FINITE:
            raise IdentityViolation("preset %s classifies as %s" % (name, c.kind))
        return c
    c = validate(_affine_extension(fin), labels=tuple(range(rank + 1)))
    if c.kind != UNTWISTED_AFFINE or c.affine_node != 0:
        raise IdentityViolation("preset %s is not untwisted affine with node 0 extra" % name)
    return c


def preset_names(max_rank=8):
    """All supported preset names up to a rank bound (both finite and affine)."""
    names = []
    for family, lo in (("A", 1), ("B", 2), ("C", 1), ("D", 4), ("G", 2), ("F", 4)):
        hi = {"G": 2, "F": 4}.get(family, max_rank)
        lo_ = {"G": 2, "F": 4}.get(family, lo)
        for r in range(lo_, hi + 1):
            names.append("%s%d" % (family, r))
            names.append("%s%d~" % (family, r))
    for r in (6, 7, 8):
        if r <= max_rank:
            names.append("E%d" % r)
            names.append("E%d~" % r)
    return names


# ---------------------------------------------------------------------------
# type recognition (naming only; classification never depends on it)
# ---------------------------------------------------------------------------

def _match_finite_name(a):
    """The type of a finite-type matrix, read off its Dynkin diagram.

    The diagram is a forest, so it is connected iff it has n - 1 bonds;
    None when it is not.  A triple bond (a_ij a_ji = 3) is G2.  A double
    bond inside the chain is F4; at an end node it is B_n when that node is
    short (a = -2 in its row), else C_n, and in rank 2 the end is the second
    node, so B2 and C2 keep their Bourbaki names.  A simply laced tree is
    A_n without a branch node, D_n when two of its three arms are single
    nodes and E_n when one is.
    """
    n = len(a)
    nbrs = [[j for j in range(n) if j != i and a[i][j]] for i in range(n)]
    if sum(map(len, nbrs)) != 2 * (n - 1):
        return None
    # per bond a_ij a_ji, its (i, j) of largest i
    bonds = {a[i][j] * a[j][i]: (i, j) for i in range(n) for j in nbrs[i]}
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        i, j = bonds[2]
        if len(nbrs[i]) > 1:
            i, j = j, i
        if len(nbrs[i]) > 1:
            return "F4"
        return ("B%d" if a[i][j] == -2 else "C%d") % n
    for i in range(n):
        if len(nbrs[i]) == 3:
            return ("D%d" if sum(len(nbrs[j]) == 1 for j in nbrs[i]) > 1 else "E%d") % n
    return "A%d" % n


def parse_matrix_text(text):
    """Integer matrix from text: one row per line, whitespace-separated."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise BadInput(str(exc)) from None
    if not rows:
        raise BadInput("no matrix rows found")
    return rows
