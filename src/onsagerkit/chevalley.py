"""Finite-type Chevalley bases with exact integer structure constants.

The table stores N[alpha, beta] with [e_alpha, e_beta] = N e_{alpha+beta} for
all root pairs whose sum is a root, plus [e_alpha, e_{-alpha}] = h_alpha and
[h, e_alpha] = alpha(h) e_alpha.  Signs are fixed by the extraspecial-pair
convention: order the positive roots by (height, lex); for each non-simple
gamma the extraspecial pair, the first of `RootSystem.decompositions`, gets
N = +(p+1).  The other positive pairs follow from the Jacobi identity, and
every other N from one rule, the cyclic identity of the invariant form.  The
resulting table automatically satisfies N[-a,-b] = -N[a,b], which makes
h -> -h, e_alpha -> -e_{-alpha} an involutive automorphism.

Elements are sparse combinations of basis keys ('h', i) and ('e', root).
A table numbers its basis keys once, in `keys` order (h_1..h_r, then
e_alpha in sorted root order), and records each key's omega partner.  Its
one bracket memo is keyed by number pairs: `entry(i, j)` holds [k_i, k_j] as
int terms ((k, c), ...) over key numbers together with the invariant form
(k_i, k_j), filled on first use.
`bracket_keys` and `form_keys` read the same memo on tuple keys, and every
element-level bracket, form and matrix image is their bilinear extension.
The N table is read-only, so a tabulated bracket never goes stale.

Also here: explicit matrix realizations (special linear and symplectic), the
fixed-subalgebra basis y_alpha = e_alpha - e_{-alpha}, and the isomorphism of
the symplectic fixed subalgebra with gl_r.  Each realization's table is the
generic table of its type under a sign vector read off its displayed
matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub
from types import MappingProxyType

from .cartan import CartanMatrix, preset
from .exact_math import ExactMatrix, I, IdentityViolation, SparseElement, bilinear, signed_sum
from .roots import RootSystem, height, root_str


class NotAPositiveRoot(ValueError):
    pass


def _vadd(x, y):
    return tuple(map(add, x, y))


def _vsub(x, y):
    return tuple(map(sub, x, y))


def _vneg(x):
    return tuple(map(neg, x))


# the shared memo entry of every key pair with vanishing bracket and form
_NO_ENTRY = ((), 0)


@lru_cache(maxsize=None)
def _one_term(k, c):
    """The memo entry c * (key k) with form 0, one object per (k, c): most
    entries are one of a few hundred of these, so the memo stays small."""
    return ((k, c),), 0


def _omega_key(key):
    """The basis key that omega sends key to, with coefficient -1."""
    kind, val = key
    return key if kind == "h" else ("e", _vneg(val))


def _key_str(key):
    """A basis key as text: ('h', 0) is "h1", ('e', (1, 1)) is "e(a1+a2)"."""
    kind, val = key
    return "h%d" % (val + 1) if kind == "h" else "e(%s)" % root_str(val)


class ChevElement(SparseElement):
    """Exact combination of Chevalley basis keys ('h', i) and ('e', root)."""

    __slots__ = ()

    def __repr__(self):
        order = sorted(self.terms, key=lambda k: (0, k[1]) if k[0] == "h" else (1, height(k[1]), k[1]))
        return signed_sum((self.terms[k], _key_str(k)) for k in order)


class StructureTable:
    """Complete bracket table of a finite-type algebra in a Chevalley basis."""

    def __init__(self, rootsystem: RootSystem, n_table):
        self.rs = rootsystem
        self.N = MappingProxyType(dict(n_table))
        self._check_sign_laws()
        self.keys = tuple([("h", i) for i in range(rootsystem.rank)]
                          + [("e", a) for a in sorted(rootsystem._all)])
        self.number = {k: n for n, k in enumerate(self.keys)}
        self.dim = len(self.keys)
        # omega sends the key numbered k to minus the key numbered partner[k]
        self.partner = tuple(self.number[_omega_key(k)] for k in self.keys)
        # the keys e_alpha, alpha > 0: the fixed basis y_alpha at level 0
        self.positive = frozenset(n for n, (kind, v) in enumerate(self.keys) if kind == "e" and min(v) >= 0)
        # at i * dim + j: entry(i, j), filled on first use, and loop's certificate of (i, j)
        self._memo = [None] * (self.dim * self.dim)
        self._certified = [None] * (self.dim * self.dim)

    # -- constructors for basis elements ------------------------------------
    def e(self, alpha):
        alpha = tuple(alpha)
        if not self.rs.is_root(alpha):
            raise ValueError("%r is not a root" % (alpha,))
        return ChevElement({("e", alpha): 1})

    def h(self, i):
        return ChevElement({("h", i): 1})

    def h_alpha(self, alpha):
        return ChevElement({("h", i): k for i, k in enumerate(self.rs.coroot_coords(alpha))})

    def y_basis(self, alpha):
        """y_alpha = e_alpha - e_{-alpha}; requires alpha positive."""
        alpha = tuple(alpha)
        if not self.rs.is_positive(alpha):
            raise NotAPositiveRoot("%r is not a positive root" % (alpha,))
        return self.y_any(alpha)

    def y_any(self, alpha):
        """y_alpha for alpha of either sign (y_{-a} = -y_a)."""
        alpha = tuple(alpha)
        return ChevElement({("e", alpha): 1, ("e", _vneg(alpha)): -1})

    # -- structure ------------------------------------------------------------
    def entry(self, i, j):
        """(terms, form) of the keys numbered i and j: [k_i, k_j] as int
        terms ((k, c), ...) over key numbers, with [h_i, e_b] = b(h_i) e_b,
        [e_a, e_{-a}] = h_a and [e_a, e_b] = N e_{a+b}, and the normalized
        invariant form (k_i, k_j), with (e_a, e_{-a}) = 2/(a,a), the h-block
        from the symmetrized Cartan data and (h, e) = 0.

        Tabulated per number pair on first use; the entry is shared.
        """
        n = i * self.dim + j
        out = self._memo[n]
        if out is None:
            out = self._memo[n] = self._entry(self.keys[i], self.keys[j])
        return out

    def _entry(self, k1, k2):
        (kind1, v1), (kind2, v2) = k1, k2
        rs = self.rs
        if kind1 == "h":
            if kind2 == "h":
                return (), 4 * rs.form[v1][v2] / (rs.form[v1][v1] * rs.form[v2][v2])
            p = rs.pairing(v2, v1)
            return _one_term(self.number[k2], p) if p else _NO_ENTRY
        if kind2 == "h":
            p = rs.pairing(v1, v2)
            return _one_term(self.number[k1], -p) if p else _NO_ENTRY
        s = _vadd(v1, v2)
        if not any(s):
            h = tuple((self.number[("h", i)], k) for i, k in enumerate(rs.coroot_coords(v1)) if k)
            return h, 2 / rs.norm2(v1)
        n = self.N.get((v1, v2))
        return _one_term(self.number[("e", s)], n) if n else _NO_ENTRY

    def bracket_keys(self, k1, k2):
        """[k1, k2] of two basis keys as a new sparse vector over basis keys,
        read off entry()."""
        keys = self.keys
        return {keys[k]: c for k, c in self.entry(self.number[k1], self.number[k2])[0]}

    def form_keys(self, k1, k2):
        """Normalized invariant form of two basis keys, read off entry()."""
        return self.entry(self.number[k1], self.number[k2])[1]

    def bracket(self, x: ChevElement, y: ChevElement) -> ChevElement:
        return ChevElement(bilinear(self.bracket_keys, x.terms, y.terms))

    def omega(self, x: ChevElement) -> ChevElement:
        return ChevElement({_omega_key(k): -c for k, c in x.terms.items()})

    def invariant_form(self, x: ChevElement, y: ChevElement):
        """Normalized invariant form, extended bilinearly from form_keys."""
        return sum((c1 * c2 * self.form_keys(k1, k2)
                    for k1, c1 in x.terms.items() for k2, c2 in y.terms.items()), Fraction(0))

    def _check_sign_laws(self):
        for (a, b), n in self.N.items():
            if self.N.get((b, a)) != -n:
                raise IdentityViolation("antisymmetry fails at %r, %r" % (a, b))
            if self.N.get((_vneg(a), _vneg(b))) != -n:
                raise IdentityViolation("negation law fails at %r, %r" % (a, b))
            if abs(n) != self.rs.chain_p(a, b) + 1:
                raise IdentityViolation("magnitude rule fails at %r, %r" % (a, b))


def _n_of(rs, npp, x, y):
    """N_{x,y} for roots x, y whose sum is a root, read off the positive-pair
    table npp by the cyclic identity of the invariant form (Carter, Simple
    groups of Lie type, 1972, ch. 4): with z = -(x+y),

        N_{x,y}/(z,z) = N_{y,z}/(x,x) = N_{z,x}/(y,y).

    Two of x, y, z have the same sign; that pair's N is npp's, or minus npp's
    on the negated pair.  Lengths are read off the positive representatives.
    """
    xpos = min(x) >= 0
    if xpos == (min(y) >= 0):
        return npp[(x, y)] if xpos else -npp[(_vneg(x), _vneg(y))]
    s = _vadd(x, y)
    z = _vneg(s)
    zpos = min(z) >= 0
    # z has the sign of y (pair y, z; length x) or of x (pair z, x; length y)
    length, pair = (x, (y, z)) if zpos != xpos else (y, (z, x))
    if min(length) < 0:
        length = _vneg(length)
    return rs.norm2(z if zpos else s) / rs.norm2(length) * _n_of(rs, npp, *pair)


def _integral(val, alpha, beta):
    """val as an int; IdentityViolation names the pair when it is not one."""
    if val.denominator != 1:
        raise IdentityViolation("non-integer structure constant %s at %r, %r" % (val, alpha, beta))
    return int(val)


def build_chevalley(c: CartanMatrix) -> StructureTable:
    """Structure table for a finite-type matrix, extraspecial-pair signs.

    Raises IdentityViolation, naming the root pair, when a derived constant
    has a zero denominator, is not an integer or breaks the magnitude rule.
    """
    rs = RootSystem(c)
    posset = set(rs.positive_roots)
    npp = {}
    for gamma in rs.positive_roots:
        decomps = rs.decompositions(gamma)
        if not decomps:
            continue
        xi, eta = decomps[0]
        n0 = rs.chain_p(xi, eta) + 1
        npp[(xi, eta)] = n0
        npp[(eta, xi)] = -n0
        nxi = _vneg(xi)
        denom = _n_of(rs, npp, nxi, gamma)
        if not denom:
            raise IdentityViolation("zero denominator N[-xi, gamma] at xi = %r, gamma = %r" % (xi, gamma))
        for alpha, beta in decomps[1:]:
            # Jacobi on e_{-xi}, e_alpha, e_beta
            t = 0
            amx = _vsub(alpha, xi)
            if amx in posset:
                t += _n_of(rs, npp, nxi, alpha) * npp[(amx, beta)]
            bmx = _vsub(beta, xi)
            if bmx in posset:
                t += _n_of(rs, npp, nxi, beta) * npp[(alpha, bmx)]
            val = _integral(t / denom, alpha, beta)
            if abs(val) != rs.chain_p(alpha, beta) + 1:
                raise IdentityViolation("magnitude rule fails at %r, %r (N = %d)" % (alpha, beta, val))
            npp[(alpha, beta)] = val
            npp[(beta, alpha)] = -val

    allroots = sorted(rs._all)
    return StructureTable(rs, {(x, y): _integral(_n_of(rs, npp, x, y), x, y)
                               for x in allroots for y in allroots if _vadd(x, y) in rs._all})


# matrix rows -> StructureTable
_TABLES = {}


def table_for(c: CartanMatrix) -> StructureTable:
    """The structure table of a finite-type matrix, built once per matrix
    (keyed by its rows), so the realizations and the matrix rows of a run
    share one table and one bracket memo."""
    t = _TABLES.get(c.a)
    if t is None:
        t = _TABLES[c.a] = build_chevalley(c)
    return t


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------

class MatrixRealization:
    """Images of the Chevalley basis as exact matrices, checked against the
    table on every basis pair when built (IdentityViolation names the first
    three pairs that fail)."""

    def __init__(self, dim, images, table: StructureTable):
        self.dim = dim
        self.images = images
        self.table = table
        bad = self.homomorphism_failures()
        if bad:
            raise IdentityViolation("bracket of images differs from image of bracket at %s"
                                    % ", ".join("[%r, %r]" % pair for pair in bad[:3]))

    def matrix_of(self, terms) -> ExactMatrix:
        """The image of {basis key: coeff}."""
        out = ExactMatrix(self.dim, self.dim)
        for k, c in terms.items():
            out = out + c * self.images[k]
        return out

    def homomorphism_failures(self):
        """Basis pairs where bracket-of-images differs from image-of-bracket."""
        bad = []
        keys = self.table.keys
        for k1 in keys:
            for k2 in keys:
                z = self.table.bracket_keys(k1, k2)
                if self.images[k1].commutator(self.images[k2]) != self.matrix_of(z):
                    bad.append((k1, k2))
        return bad


def _read_signs(generic: StructureTable, images):
    """Signs s, with s_{-a} = s_a and s = 1 on the simple roots, such that the
    displayed matrices satisfy [D_a, D_b] = s_a s_b s_{a+b} N[a, b] D_{a+b}
    for the generic table N.  Each non-simple positive root reads its sign
    off one commutator over its extraspecial pair."""
    signs = {}
    for gamma in generic.rs.positive_roots:
        s = 1
        if height(gamma) >= 2:
            xi, eta = generic.rs.decompositions(gamma)[0]
            comm = images[("e", xi)].commutator(images[("e", eta)])
            want = signs[xi] * signs[eta] * generic.N[(xi, eta)] * images[("e", gamma)]
            if comm == -want:
                s = -1
            elif comm != want:
                raise IdentityViolation("[D%r, D%r] is not a signed N multiple of D%r" % (xi, eta, gamma))
        signs[gamma] = signs[_vneg(gamma)] = s
    return signs


def _twisted_table(generic: StructureTable, s) -> StructureTable:
    """The generic table twisted by the signs s of _read_signs,
    N'[a, b] = s_a s_b s_{a+b} N[a, b], so every sign-sensitive identity
    downstream matches the displayed matrices."""
    return StructureTable(generic.rs, {(a, b): s[a] * s[b] * s[_vadd(a, b)] * n
                                       for (a, b), n in generic.N.items()})


def _unit(n, i, j):
    return ExactMatrix(n, n, {(i, j): 1})


@lru_cache(maxsize=None)
def _display(name):
    """(images, table) of the displayed matrices of preset A_r or C_r.

    With alpha_k = eps_k - eps_{k+1}, except alpha_r = 2 eps_r in C_r, and
    G(k, l) = E_{k,l} in sl_{r+1}, E_{k,l} - E_{r+l,r+k} in sp_{2r}: e_alpha
    for alpha > 0 is G(k, l) for eps_k - eps_l, E_{k,r+l} + E_{l,r+k} for
    eps_k + eps_l and E_{k,r+k} for 2 eps_k; e_{-alpha} is its transpose;
    h_i = G(i, i) - G(i+1, i+1), and h_r = G(r, r) in C_r.  The table is the
    generic one under the signs the matrices carry.
    """
    generic = table_for(preset(name))
    r, sp = generic.rs.rank, name[0] == "C"
    n = 2 * r if sp else r + 1

    def g(k, l):
        return _unit(n, k, l) - _unit(n, r + l, r + k) if sp else _unit(n, k, l)

    images = {("h", i): g(i, i) - g(i + 1, i + 1) for i in range(r - 1)}
    images["h", r - 1] = g(r - 1, r - 1) if sp else g(r - 1, r - 1) - g(r, r)
    for alpha in generic.rs.positive_roots:
        eps = [0] * (r + 1)
        for k, c in enumerate(alpha):
            eps[k] += c
            eps[k + 1] -= c
        if sp:  # alpha_r = 2 eps_r
            eps[r - 1] -= eps.pop()
        pos = [k for k, c in enumerate(eps) if c > 0]
        neg = [k for k, c in enumerate(eps) if c < 0]
        k, l = pos[0], (neg or pos)[-1]
        # one entry when k = l, for 2 eps_k
        m = g(k, l) if neg else ExactMatrix(n, n, {(k, r + l): 1, (l, r + k): 1})
        images["e", alpha] = m
        images["e", _vneg(alpha)] = m.transpose()
    return images, _twisted_table(generic, _read_signs(generic, images))


def sl_realization(r) -> MatrixRealization:
    """The displayed trace-zero (r+1) x (r+1) realization, bound to its own table."""
    return MatrixRealization(r + 1, *_display("A%d" % r))


def sp_structure_table(r) -> StructureTable:
    """The generic type-C table under the signs of the displayed symplectic matrices."""
    return _display("C%d" % r)[1]


@lru_cache(maxsize=None)
def sp_realization(r) -> MatrixRealization:
    """The displayed 2r x 2r symplectic realization, bound to its own table."""
    return MatrixRealization(2 * r, *_display("C%d" % r))


def eta(r, x) -> ExactMatrix:
    """Isomorphism of the symplectic fixed subalgebra onto gl_r:
    (B, C; -C, B) -> B + iC.

    x is a fixed vector {n: c} over the level-0 fixed basis of the displayed
    C_r table, numbered as in `loop` and `FiniteRealization`: n is the
    number of e_alpha, alpha > 0, and stands for y_alpha = e_alpha - e_{-alpha},
    so `eta(r, psi_eval(rz, expr))` composes for rz on that table.  A number
    outside that basis is a ValueError."""
    rz = sp_realization(r)
    t = rz.table
    terms = {}
    for n, c in x.items():
        if n not in t.positive:
            raise ValueError("%r numbers no fixed basis vector of C%d" % (n, r))
        terms[t.keys[n]], terms[t.keys[t.partner[n]]] = c, -c
    m = rz.matrix_of(terms)
    b = m.block(0, r, 0, r)
    c = m.block(0, r, r, 2 * r)
    if m.block(r, 2 * r, 0, r) != -c or m.block(r, 2 * r, r, 2 * r) != b:
        raise IdentityViolation("fixed image is not of block shape (B, C; -C, B)")
    if b.transpose() != -b or c.transpose() != c:
        raise IdentityViolation("fixed image has B not antisymmetric or C not symmetric")
    return b + I * c
