"""Finite-type Chevalley bases with exact integer structure constants.

The table stores N[alpha, beta] with [e_alpha, e_beta] = N e_{alpha+beta} for
all root pairs whose sum is a root, plus [e_alpha, e_{-alpha}] = h_alpha and
[h, e_alpha] = alpha(h) e_alpha.  Signs are fixed by the extraspecial-pair
convention: order the positive roots by (height, lex); for each non-simple
gamma the minimal decomposition pair gets N = +(p+1); everything else follows
from the Jacobi identity and the cyclic identity of the invariant form.  The
resulting table automatically satisfies N[-a,-b] = -N[a,b], which makes
h -> -h, e_alpha -> -e_{-alpha} an involutive automorphism.

Elements are sparse combinations of basis keys ('h', i) and ('e', root);
`StructureTable.bracket_keys` and `form_keys` give the bracket and the
invariant form on a pair of keys, tabulated per pair on first use, and every
element-level bracket, form and matrix image is their bilinear extension.
The N table is read-only, so a tabulated bracket never goes stale.

Also here: explicit matrix realizations (special linear and symplectic), the
fixed-subalgebra basis y_alpha = e_alpha - e_{-alpha}, and the isomorphism of
the symplectic fixed subalgebra with gl_r.  The displayed symplectic table is
the generic type-C table under a sign vector read off the displayed matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .cartan import CartanMatrix, preset
from .exact_math import ExactMatrix, I, IdentityViolation, SparseElement, bilinear
from .roots import RootSystem, height


class NotAPositiveRoot(ValueError):
    pass


class NotFixedError(ValueError):
    """Element is not fixed by the involution."""


def _vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _vneg(x):
    return tuple(-a for a in x)


# the shared result of every vanishing key bracket
_NO_TERMS = {}


def _omega_key(key):
    """The basis key that omega sends key to, with coefficient -1."""
    kind, val = key
    return key if kind == "h" else ("e", _vneg(val))


class ChevElement(SparseElement):
    """Exact combination of Chevalley basis keys ('h', i) and ('e', root)."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"

        def order(item):
            kind, val = item[0]
            return (0, val) if kind == "h" else (1, height(val), val)

        return " + ".join(
            "%s*h%d" % (c, val + 1) if kind == "h" else "%s*e%s" % (c, list(val))
            for (kind, val), c in sorted(self.terms.items(), key=order)
        )


class StructureTable:
    """Complete bracket table of a finite-type algebra in a Chevalley basis."""

    def __init__(self, rootsystem: RootSystem, n_table):
        self.rs = rootsystem
        self.N = MappingProxyType(dict(n_table))
        self._check_sign_laws()
        # Tabulated brackets are kept in rows by first key, with shared key
        # objects and one shared empty result: the finite-type character
        # solve looks most of its pairs up once, and this keeps their memory
        # low.
        self._brackets = {}  # k1 -> {k2: bracket_keys(k1, k2)}
        self._forms = {}  # (k1, k2) -> form_keys(k1, k2)
        self._e_keys = {a: ("e", a) for a in rootsystem._all}

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
        return ChevElement({self._e_keys[alpha]: 1, self._e_keys[_vneg(alpha)]: -1})

    def basis_keys(self):
        keys = [("h", i) for i in range(self.rs.rank)]
        keys += [("e", a) for a in sorted(self.rs._all)]
        return keys

    def element_for_key(self, key):
        return ChevElement({key: 1})

    # -- structure ------------------------------------------------------------
    def n_value(self, alpha, beta):
        return self.N.get((tuple(alpha), tuple(beta)), 0)

    def bracket_keys(self, k1, k2):
        """[k1, k2] of two basis keys, as a sparse vector over basis keys:
        [h_i, e_b] = b(h_i) e_b, [e_a, e_{-a}] = h_a, [e_a, e_b] = N e_{a+b}.

        Tabulated per key pair on first use; the returned dict is shared, so
        callers must not modify it.
        """
        row = self._brackets.get(k1)
        if row is None:
            row = self._brackets[k1] = {}
        out = row.get(k2)
        if out is None:
            out = row[k2] = self._bracket_keys(k1, k2) or _NO_TERMS
        return out

    def _bracket_keys(self, k1, k2):
        (kind1, v1), (kind2, v2) = k1, k2
        if kind1 == "h":
            if kind2 == "h":
                return {}
            p = self.rs.pairing(v2, v1)
            return {k2: p} if p else {}
        if kind2 == "h":
            p = self.rs.pairing(v1, v2)
            return {k1: -p} if p else {}
        s = _vadd(v1, v2)
        if not any(s):
            return {("h", i): k for i, k in enumerate(self.rs.coroot_coords(v1)) if k}
        n = self.N.get((v1, v2))
        return {self._e_keys[s]: n} if n else {}

    def form_keys(self, k1, k2):
        """Normalized invariant form of two basis keys: (e_a, e_{-a}) = 2/(a,a),
        h-block from the symmetrized Cartan data, (h, e) = 0.  Tabulated per
        key pair on first use."""
        out = self._forms.get((k1, k2))
        if out is None:
            out = self._forms[k1, k2] = self._form_keys(k1, k2)
        return out

    def _form_keys(self, k1, k2):
        (kind1, v1), (kind2, v2) = k1, k2
        form = self.rs.form
        if kind1 != kind2:
            return 0
        if kind1 == "h":
            return 4 * form[v1][v2] / (form[v1][v1] * form[v2][v2])
        if any(_vadd(v1, v2)):
            return 0
        return 2 / self.rs.norm2(v1)

    def bracket(self, x: ChevElement, y: ChevElement) -> ChevElement:
        return ChevElement(bilinear(self.bracket_keys, x.terms, y.terms))

    def omega(self, x: ChevElement) -> ChevElement:
        return ChevElement({_omega_key(k): -c for k, c in x.terms.items()})

    def invariant_form(self, x: ChevElement, y: ChevElement):
        """Normalized invariant form, extended bilinearly from form_keys."""
        return sum((c1 * c2 * self.form_keys(k1, k2)
                    for k1, c1 in x.terms.items() for k2, c2 in y.terms.items()), Fraction(0))

    def decomposition(self, gamma):
        """Some pair of positive roots (xi, eta) with xi + eta = gamma and
        nonzero table entry."""
        for xi in self.rs.positive_roots:
            eta = _vsub(gamma, xi)
            if self.rs.is_positive(eta) and self.N.get((xi, eta)):
                return xi, eta
        raise ValueError("no decomposition for %r" % (gamma,))

    def _check_sign_laws(self):
        for (a, b), n in self.N.items():
            if self.N.get((b, a)) != -n:
                raise IdentityViolation("antisymmetry fails at %r, %r" % (a, b))
            if self.N.get((_vneg(a), _vneg(b))) != -n:
                raise IdentityViolation("negation law fails at %r, %r" % (a, b))
            if abs(n) != self.rs.chain_p(a, b) + 1:
                raise IdentityViolation("magnitude rule fails at %r, %r" % (a, b))


def _mixed_n(rs, npp, xi, rho):
    """N_{-xi, rho} for positive roots xi, rho, from the positive-pair table.

    Cyclic identity of the invariant form: with sigma = rho - xi a positive
    root, N_{-xi, rho} = (sigma,sigma)/(rho,rho) * N_{xi, sigma}.
    """
    sigma = _vsub(rho, xi)
    if not rs.is_root(sigma):
        return Fraction(0)
    assert all(c >= 0 for c in sigma)
    return Fraction(rs.norm2(sigma), 1) / rs.norm2(rho) * npp[(xi, sigma)]


def build_chevalley(c: CartanMatrix) -> StructureTable:
    """Structure table for a finite-type matrix, extraspecial-pair signs."""
    rs = RootSystem(c)
    pos = rs.positive_roots
    posset = set(pos)
    order = {a: k for k, a in enumerate(pos)}

    npp = {}
    for gamma in pos:
        if height(gamma) < 2:
            continue
        decomps = sorted(
            ((a, _vsub(gamma, a))
             for a in pos
             if _vsub(gamma, a) in posset and order[a] < order[_vsub(gamma, a)]),
            key=lambda pair: order[pair[0]],
        )
        xi, eta = decomps[0]
        n0 = rs.chain_p(xi, eta) + 1
        npp[(xi, eta)] = n0
        npp[(eta, xi)] = -n0
        denom = _mixed_n(rs, npp, xi, gamma)
        assert denom
        for alpha, beta in decomps[1:]:
            t1 = Fraction(0)
            amx = _vsub(alpha, xi)
            if amx in posset:
                t1 = _mixed_n(rs, npp, xi, alpha) * npp[(amx, beta)]
            t2 = Fraction(0)
            bmx = _vsub(beta, xi)
            if bmx in posset:
                t2 = _mixed_n(rs, npp, xi, beta) * npp[(alpha, bmx)]
            val = (t1 + t2) / denom
            assert val.denominator == 1, "non-integer structure constant at %r+%r" % (alpha, beta)
            val = int(val)
            assert abs(val) == rs.chain_p(alpha, beta) + 1
            npp[(alpha, beta)] = val
            npp[(beta, alpha)] = -val

    # extend to all pairs of roots with root sum
    full = {}
    allroots = sorted(rs._all)
    for x in allroots:
        xpos = all(cc >= 0 for cc in x)
        for y in allroots:
            s = _vadd(x, y)
            if not any(s) or s not in rs._all:
                continue
            ypos = all(cc >= 0 for cc in y)
            if xpos and ypos:
                full[(x, y)] = npp[(x, y)]
            elif not xpos and not ypos:
                full[(x, y)] = -npp[(_vneg(x), _vneg(y))]
            elif xpos:
                # x positive, y negative: reduce through the cyclic identity
                eps = _vneg(y)
                if all(cc >= 0 for cc in s):
                    val = -Fraction(rs.norm2(s), 1) / rs.norm2(x) * npp[(eps, s)]
                else:
                    val = -Fraction(rs.norm2(s), 1) / rs.norm2(eps) * npp[(x, _vneg(s))]
                assert val.denominator == 1
                full[(x, y)] = int(val)
            else:
                # negative, positive: antisymmetry off the case above
                eps = _vneg(x)
                if all(cc >= 0 for cc in s):
                    val = Fraction(rs.norm2(s), 1) / rs.norm2(y) * npp[(eps, s)]
                else:
                    val = Fraction(rs.norm2(s), 1) / rs.norm2(eps) * npp[(y, _vneg(s))]
                assert val.denominator == 1
                full[(x, y)] = int(val)
    return StructureTable(rs, full)


@lru_cache(maxsize=None)
def preset_table(name) -> StructureTable:
    return build_chevalley(preset(name))


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

    def matrix_of(self, x: ChevElement) -> ExactMatrix:
        out = ExactMatrix.zeros(self.dim, self.dim)
        for k, c in x.terms.items():
            out = out + c * self.images[k]
        return out

    def homomorphism_failures(self):
        """Basis pairs where bracket-of-images differs from image-of-bracket."""
        bad = []
        keys = self.table.basis_keys()
        for k1 in keys:
            for k2 in keys:
                z = ChevElement(self.table.bracket_keys(k1, k2))
                if self.images[k1].commutator(self.images[k2]) != self.matrix_of(z):
                    bad.append((k1, k2))
        return bad


def _extend_images(table: StructureTable, images):
    """Fill images of all root vectors from the simple-root images.

    Non-simple positive root vectors come from any decomposition with nonzero
    table constant; negatives are transposes, matching the involution being
    X -> -X^T in both realizations here.
    """
    for gamma in table.rs.positive_roots:
        if height(gamma) < 2:
            continue
        xi, eta = table.decomposition(gamma)
        n = table.N[(xi, eta)]
        m = images[("e", xi)].commutator(images[("e", eta)]) * Fraction(1, n)
        images[("e", gamma)] = m
        images[("e", _vneg(gamma))] = m.transpose()
    return images


@lru_cache(maxsize=None)
def sl_realization(r) -> MatrixRealization:
    """Trace-zero (r+1) x (r+1) matrices: e_i = E_{i,i+1}, f_i = E_{i+1,i}."""
    table = preset_table("A%d" % r)
    n = r + 1

    def unit(i, j):
        return ExactMatrix(n, n, {(i, j): 1})

    images = {}
    for i in range(r):
        images[("h", i)] = unit(i, i) - unit(i + 1, i + 1)
        simple = tuple(1 if k == i else 0 for k in range(r))
        images[("e", simple)] = unit(i, i + 1)
        images[("e", _vneg(simple))] = unit(i + 1, i)
    return MatrixRealization(n, _extend_images(table, images), table)


def _sp_eps_coords(r, alpha):
    """epsilon-coordinates of a type-C root: alpha_k = eps_k - eps_{k+1}
    (k < r), alpha_r = 2 eps_r."""
    eps = [0] * r
    for k, c in enumerate(alpha):
        if k < r - 1:
            eps[k] += c
            eps[k + 1] -= c
        else:
            eps[r - 1] += 2 * c
    return tuple(eps)


def _sp_display_matrix(r, eps):
    """The displayed 2r x 2r symplectic root vector for a type-C root."""

    def unit(i, j):
        return ExactMatrix(2 * r, 2 * r, {(i, j): 1})

    pos = [j for j, c in enumerate(eps) if c > 0]
    neg = [j for j, c in enumerate(eps) if c < 0]
    if len(pos) == 1 and len(neg) == 1:
        k, l = pos[0], neg[0]  # eps_k - eps_l
        return unit(k, l) - unit(r + l, r + k)
    if len(neg) == 0:
        if len(pos) == 1:
            j = pos[0]  # 2 eps_j
            return unit(j, r + j)
        k, l = pos  # eps_k + eps_l
        return unit(k, r + l) + unit(l, r + k)
    if len(pos) == 0:
        if len(neg) == 1:
            j = neg[0]
            return unit(r + j, j)
        k, l = neg
        return unit(r + k, l) + unit(r + l, k)
    raise ValueError("not a type-C root pattern: %r" % (eps,))


@lru_cache(maxsize=None)
def _sp_images(r):
    """The displayed symplectic matrices of the type-C basis keys."""

    def unit(i, j):
        return ExactMatrix(2 * r, 2 * r, {(i, j): 1})

    images = {}
    for j in range(r - 1):
        images[("h", j)] = unit(j, j) - unit(j + 1, j + 1) - unit(r + j, r + j) + unit(r + j + 1, r + j + 1)
    images[("h", r - 1)] = unit(r - 1, r - 1) - unit(2 * r - 1, 2 * r - 1)
    for alpha in sorted(preset_table("C%d" % r).rs._all):
        images[("e", alpha)] = _sp_display_matrix(r, _sp_eps_coords(r, alpha))
    return images


@lru_cache(maxsize=None)
def sp_sign_reconciliation(r):
    """Signs s, with s_{-a} = s_a and s = 1 on the simple roots, such that the
    displayed symplectic matrices satisfy [D_a, D_b] = s_a s_b s_{a+b} N[a, b]
    D_{a+b} for the generic type-C table N.  Each non-simple positive root
    reads its sign off one commutator over its decomposition."""
    generic = preset_table("C%d" % r)
    images = _sp_images(r)
    signs = {}
    for gamma in generic.rs.positive_roots:
        s = 1
        if height(gamma) >= 2:
            xi, eta = generic.decomposition(gamma)
            comm = images[("e", xi)].commutator(images[("e", eta)])
            want = signs[xi] * signs[eta] * generic.N[(xi, eta)] * images[("e", gamma)]
            if comm == -want:
                s = -1
            elif comm != want:
                raise IdentityViolation("[D%r, D%r] is not a signed N multiple of D%r" % (xi, eta, gamma))
        signs[gamma] = signs[_vneg(gamma)] = s
    return signs


@lru_cache(maxsize=None)
def sp_structure_table(r) -> StructureTable:
    """The generic type-C table twisted by the signs s of
    sp_sign_reconciliation, N'[a, b] = s_a s_b s_{a+b} N[a, b], so every
    sign-sensitive identity downstream matches the displayed matrices."""
    generic = preset_table("C%d" % r)
    s = sp_sign_reconciliation(r)
    return StructureTable(generic.rs, {(a, b): s[a] * s[b] * s[_vadd(a, b)] * n
                                       for (a, b), n in generic.N.items()})


@lru_cache(maxsize=None)
def sp_realization(r) -> MatrixRealization:
    """The displayed 2r x 2r symplectic realization, bound to its own table."""
    return MatrixRealization(2 * r, _sp_images(r), sp_structure_table(r))


def eta(r, x: ChevElement) -> ExactMatrix:
    """Isomorphism of the symplectic fixed subalgebra onto gl_r:
    (B, C; -C, B) -> B + iC."""
    rz = sp_realization(r)
    if rz.table.omega(x) != x:
        raise NotFixedError("element is not involution-fixed")
    m = rz.matrix_of(x)
    b = m.block(0, r, 0, r)
    c = m.block(0, r, r, 2 * r)
    if m.block(r, 2 * r, 0, r) != -c or m.block(r, 2 * r, r, 2 * r) != b:
        raise IdentityViolation("fixed image is not of block shape (B, C; -C, B)")
    if b.transpose() != -b or c.transpose() != c:
        raise IdentityViolation("fixed image has B not antisymmetric or C not symmetric")
    return b + I * c


@dataclass
class GlPresentationReport:
    r: int
    checks: list

    @property
    def passed(self):
        return all(ok for _, ok in self.checks)

    @property
    def failures(self):
        return [name for name, ok in self.checks if not ok]


def verify_gl_presentation(r) -> GlPresentationReport:
    """Check the gl_r relations satisfied by the images K_j of the fixed
    generators, plus the expression of K_r through the center and the
    diagonal elements."""
    if r < 2:
        raise ValueError("the gl_r presentation needs r >= 2, got %r" % (r,))
    table = sp_structure_table(r)

    def simple(k):
        return tuple(1 if i == k else 0 for i in range(r))

    K = [eta(r, table.y_basis(simple(k))) for k in range(r)]
    zero = ExactMatrix.zeros(r, r)
    checks = []
    for j in range(r):
        for k in range(j + 2, r):
            ok = K[j].commutator(K[k]) == zero
            checks.append(("[K%d,K%d] = 0" % (j + 1, k + 1), ok))
    for j in range(r - 2):
        lhs = K[j].commutator(K[j].commutator(K[j + 1]))
        checks.append(("[K%d,[K%d,K%d]] = -K%d" % (j + 1, j + 1, j + 2, j + 2), lhs == -K[j + 1]))
    for j in range(r - 1):
        lhs = K[j + 1].commutator(K[j + 1].commutator(K[j]))
        checks.append(("[K%d,[K%d,K%d]] = -K%d" % (j + 2, j + 2, j + 1, j + 1), lhs == -K[j]))
    a, b = K[r - 2], K[r - 1]
    lhs = a.commutator(a.commutator(a.commutator(b)))
    checks.append(
        ("[K%d,[K%d,[K%d,K%d]]] = -4[K%d,K%d]" % (r - 1, r - 1, r - 1, r, r - 1, r),
         lhs == -4 * a.commutator(b))
    )
    # K_r = (i/r)(Z - sum_j j * (E_jj - E_{j+1,j+1}))
    Z = ExactMatrix.identity(r)
    acc = ExactMatrix.zeros(r, r)
    for j in range(1, r):
        acc = acc + j * (ExactMatrix(r, r, {(j - 1, j - 1): 1}) - ExactMatrix(r, r, {(j, j): 1}))
    rhs = (I * Fraction(1, r)) * (Z - acc)
    checks.append(("K%d = (i/%d)(Z - sum j*diag_j)" % (r, r), K[r - 1] == rhs))
    checks.append(("K%d = i*E_%d%d" % (r, r, r), K[r - 1] == ExactMatrix(r, r, {(r - 1, r - 1): I})))
    return GlPresentationReport(r, checks)
