import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import onsagerkit
from onsagerkit import chevalley
from onsagerkit.cartan import preset, preset_names
from onsagerkit.chevalley import (
    ChevElement,
    MatrixRealization,
    NotAPositiveRoot,
    StructureTable,
    build_chevalley,
    eta,
    sl_realization,
    sp_realization,
    sp_structure_table,
    table_for,
)
from onsagerkit.exact_math import ExactMatrix, I, IdentityViolation
from onsagerkit.freelie import parse_bracket
from onsagerkit.onsager import FiniteRealization, psi_eval
from onsagerkit.roots import height
from onsagerkit.serre_coeffs import coeff_row
from onsagerkit.verify import verify_gl_presentation

TEST_PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


def _simple(rs, i):
    return tuple(1 if k == i else 0 for k in range(rs.rank))


def test_n_magnitudes():
    t = table_for(preset("A2"))
    assert abs(t.N.get(((1, 0), (0, 1)), 0)) == 1
    t2 = table_for(preset("C2"))
    assert abs(t2.N.get(((1, 0), (1, 1)), 0)) == 2


@pytest.mark.parametrize("name", TEST_PRESETS)
def test_e_minus_e_gives_coroot(name):
    t = table_for(preset(name))
    for alpha in t.rs.positive_roots:
        neg = tuple(-c for c in alpha)
        got = t.bracket(t.e(alpha), t.e(neg))
        assert got == t.h_alpha(alpha), alpha


def test_cartan_action_and_sl2_triples():
    t = table_for(preset("C2"))
    a = t.rs.cartan.a
    # [h_i, e_j] = a_ij e_j
    for i in range(2):
        for j in range(2):
            got = t.bracket(t.h(i), t.e(_simple(t.rs, j)))
            assert got == a[i][j] * t.e(_simple(t.rs, j))
    # [e_i, f_j] = delta_ij h_i
    for i in range(2):
        for j in range(2):
            fj = t.e(tuple(-c for c in _simple(t.rs, j)))
            got = t.bracket(t.e(_simple(t.rs, i)), fj)
            assert got == (t.h(i) if i == j else ChevElement())


def test_bracket_alternating_random():
    rng = random.Random(17)
    t = table_for(preset("B3"))
    keys = t.keys
    for _ in range(20):
        x = ChevElement()
        for key in rng.sample(keys, 4):
            x = x + rng.randint(-3, 3) * ChevElement({key: 1})
        assert t.bracket(x, x).is_zero()


def test_bracket_keys_antisymmetric():
    t = table_for(preset("G2"))
    keys = t.keys
    kinds = set()
    for k1 in keys:
        for k2 in keys:
            z = t.bracket_keys(k1, k2)
            assert z == {k: -c for k, c in t.bracket_keys(k2, k1).items()}, (k1, k2)
            assert t.bracket(ChevElement({k1: 1}), ChevElement({k2: 1})) == ChevElement(z)
            kinds.add((k1[0], k2[0], "".join(sorted({k[0] for k in z}))))
    # every branch: h-h, h-e, e-h, then e-e with e_{-a}, a root sum, no root sum
    assert {("h", "h", ""), ("h", "e", "e"), ("e", "h", "e"),
            ("e", "e", "h"), ("e", "e", "e"), ("e", "e", "")} <= kinds


def test_n_table_is_read_only():
    t = table_for(preset("C2"))
    pair = min(t.N)
    n = t.N[pair]
    with pytest.raises(TypeError):
        t.N[pair] = -n
    with pytest.raises(TypeError):
        del t.N[pair]
    assert t.N[pair] == n


def test_tabulated_bracket_is_per_table():
    # the generic and the displayed symplectic C2 tables share their keys and
    # differ in some signs; tabulating one first must not leak into the other
    generic, display = table_for(preset("C2")), sp_structure_table(2)
    keys = generic.keys
    assert keys == display.keys and set(generic.N) == set(display.N)
    pairs = list(itertools.product(keys, repeat=2))
    first = {p: dict(generic.bracket_keys(*p)) for p in pairs}
    differs = {(("e", a), ("e", b)) for (a, b), n in generic.N.items() if display.N[a, b] != n}
    assert differs
    for p in pairs:
        assert (display.bracket_keys(*p) != first[p]) == (p in differs), p
        assert generic.bracket_keys(*p) == first[p], p


def _neg(a):
    return tuple(-c for c in a)


def _mutated_n(t, how):
    """t.N with one pair (or its sign orbit) changed."""
    n = dict(t.N)
    a, b = min(n)
    orbit = {"unpaired sign flip": [(a, b)],
             "flip without the negated pair": [(a, b), (b, a)],
             "doubled orbit": [(a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))]}[how]
    for pair in orbit:
        n[pair] = 2 * n[pair] if how == "doubled orbit" else -n[pair]
    return n


@pytest.mark.parametrize("how, law", [
    ("unpaired sign flip", "antisymmetry"),
    ("flip without the negated pair", "negation law"),
    ("doubled orbit", "magnitude rule"),
])
def test_broken_sign_law_raises(how, law):
    t = table_for(preset("C2"))
    assert not issubclass(IdentityViolation, ValueError)
    with pytest.raises(IdentityViolation, match=law):
        StructureTable(t.rs, _mutated_n(t, how))


def test_unpaired_sign_flip_raises_under_optimize():
    # the sign laws are explicit raises, so python -O keeps them
    code = (
        "from onsagerkit.cartan import preset\n"
        "from onsagerkit.chevalley import StructureTable, table_for\n"
        "from onsagerkit.exact_math import IdentityViolation\n"
        "t = table_for(preset('C2'))\n"
        "n = dict(t.N)\n"
        "n[min(n)] = -n[min(n)]\n"
        "try:\n"
        "    StructureTable(t.rs, n)\n"
        "except IdentityViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", TEST_PRESETS + ["E6"])
def test_sign_laws(name):
    t = table_for(preset(name))
    for (a, b), n in t.N.items():
        assert t.N[(b, a)] == -n
        na = tuple(-c for c in a)
        nb = tuple(-c for c in b)
        assert t.N[(na, nb)] == -n
        assert abs(n) == t.rs.chain_p(a, b) + 1


@pytest.mark.parametrize("name", ["A2", "C2", "B3", "G2"])
def test_jacobi_on_basis(name):
    t = table_for(preset(name))
    keys = t.keys
    for k1, k2, k3 in itertools.combinations(keys, 3):
        x, y, z = (ChevElement({k: 1}) for k in (k1, k2, k3))
        total = (
            t.bracket(x, t.bracket(y, z))
            + t.bracket(y, t.bracket(z, x))
            + t.bracket(z, t.bracket(x, y))
        )
        assert total.is_zero(), (k1, k2, k3)


@pytest.mark.parametrize("name", TEST_PRESETS)
def test_omega_is_involutive_automorphism(name):
    t = table_for(preset(name))
    keys = t.keys
    for k in keys:
        x = ChevElement({k: 1})
        assert t.omega(t.omega(x)) == x
    for k1 in keys:
        x = ChevElement({k1: 1})
        for k2 in keys:
            y = ChevElement({k2: 1})
            assert t.omega(t.bracket(x, y)) == t.bracket(t.omega(x), t.omega(y))


def test_omega_examples():
    t = table_for(preset("A2"))
    assert t.omega(t.h(0)) == -1 * t.h(0)
    e1 = t.e((1, 0))
    assert t.omega(e1) == -1 * t.e((-1, 0))


def test_y_basis_examples():
    t = table_for(preset("C2"))
    for i in range(2):
        yi = t.y_basis(_simple(t.rs, i))
        assert yi == t.e(_simple(t.rs, i)) - t.e(tuple(-c for c in _simple(t.rs, i)))
        assert t.omega(yi) == yi
    with pytest.raises(NotAPositiveRoot):
        t.y_basis((-1, 0))


@pytest.mark.parametrize("name", ["A2", "C2", "C3", "G2"])
def test_y_structure_constants(name):
    # [y_a, y_b] = N(a,b) y_{a+b} - N(a,-b) y_{a-b} for positive a != b
    t = table_for(preset(name))
    pos = t.rs.positive_roots
    for alpha in pos:
        for beta in pos:
            if alpha == beta:
                continue
            got = t.bracket(t.y_basis(alpha), t.y_basis(beta))
            want = ChevElement()
            s = tuple(x + y for x, y in zip(alpha, beta))
            d = tuple(x - y for x, y in zip(alpha, beta))
            if t.N.get((alpha, beta), 0):
                want = want + t.N.get((alpha, beta), 0) * t.y_any(s)
            nb = tuple(-x for x in beta)
            if t.N.get((alpha, nb), 0):
                want = want - t.N.get((alpha, nb), 0) * t.y_any(d)
            assert got == want, (alpha, beta)


@pytest.mark.parametrize("name,expected", [("A1", 1), ("A2", 3), ("A3", 6), ("C2", 4), ("C3", 9)])
def test_fixed_subalgebra_dimension(name, expected):
    # dim k = |Phi_+|; for A_r this is dim so_{r+1}, for C_r it is dim gl_r
    t = table_for(preset(name))
    assert len(t.rs.positive_roots) == expected
    r = t.rs.rank
    if name.startswith("A"):
        assert expected == (r + 1) * r // 2
    if name.startswith("C"):
        assert expected == r * r


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "C2", "C3", "G2"])
def test_mixed_serre_identity(name):
    # sum_s c_s[r] (ad Y_i)^s Y_j = (ad e_i)^r e_j + (-1)^(r-1) (ad f_i)^r f_j
    t = table_for(preset(name))
    n = t.rs.rank
    a = t.rs.cartan.a
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            yi = t.y_basis(_simple(t.rs, i))
            yj = t.y_basis(_simple(t.rs, j))
            ei, ej = t.e(_simple(t.rs, i)), t.e(_simple(t.rs, j))
            fi = t.e(tuple(-c for c in _simple(t.rs, i)))
            fj = t.e(tuple(-c for c in _simple(t.rs, j)))
            for r in range(0, 2 - a[i][j] + 1):
                row = coeff_row(a[i][j], r)
                lhs = ChevElement()
                term = yj
                for s in range(r + 1):
                    if row.c[s]:
                        lhs = lhs + row.c[s] * term
                    term = t.bracket(yi, term)
                rhs_e = ej
                rhs_f = fj
                for _ in range(r):
                    rhs_e = t.bracket(ei, rhs_e)
                    rhs_f = t.bracket(fi, rhs_f)
                sign = 1 if (r - 1) % 2 == 0 else -1
                rhs = rhs_e + sign * rhs_f
                assert lhs == rhs, (name, i, j, r)


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------

def test_sl_images():
    rz = sl_realization(1)
    assert rz.images[("e", (1,))] == ExactMatrix(2, 2, {(0, 1): 1})
    rz2 = sl_realization(2)
    y1 = rz2.table.y_basis((1, 0))
    m = rz2.matrix_of(y1.terms)
    assert m == ExactMatrix(3, 3, {(0, 1): 1, (1, 0): -1})
    assert m.transpose() == -m


@pytest.mark.parametrize("r", [1, 2, 3])
def test_sl_homomorphism_and_fixed_antisymmetry(r):
    rz = sl_realization(r)
    assert not rz.homomorphism_failures()
    vecs = []
    for alpha in rz.table.rs.positive_roots:
        m = rz.matrix_of(rz.table.y_basis(alpha).terms)
        assert m.transpose() == -m
        vecs.append(m.terms)
    # the fixed images span all antisymmetric matrices: dim so_{r+1}
    from onsagerkit.exact_math import span_rank

    assert span_rank(vecs) == (r + 1) * r // 2


@pytest.mark.parametrize("r", [2, 3])
def test_sl_serre_relations_as_matrices(r):
    rz = sl_realization(r)
    a = rz.table.rs.cartan.a
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            e_i = rz.images[("e", _simple(rz.table.rs, i))]
            x = rz.images[("e", _simple(rz.table.rs, j))]
            for _ in range(1 - a[i][j]):
                x = e_i.commutator(x)
            assert x.is_zero()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_omega_compatibility_matrices(r):
    for rz in (sl_realization(r), sp_realization(r)):
        for key in rz.table.keys:
            x = ChevElement({key: 1})
            assert rz.matrix_of(rz.table.omega(x).terms) == -rz.matrix_of(x.terms).transpose()
        for i in range(rz.table.rs.rank):
            assert all(p == q for (p, q) in rz.images[("h", i)].terms)


def test_sp_display_examples():
    r = 2
    rz = sp_realization(r)
    # h_r = diag(E_rr, -E_rr)
    assert rz.images[("h", r - 1)] == ExactMatrix(4, 4, {(1, 1): 1, (3, 3): -1})
    # [e_{2eps_r}, e_{-2eps_r}] = h_r: the long simple root is alpha_r
    lng = (0, 1)
    m1 = rz.images[("e", lng)]
    m2 = rz.images[("e", (0, -1))]
    assert m1.commutator(m2) == rz.images[("h", r - 1)]
    assert m1 == ExactMatrix(4, 4, {(1, 3): 1})


@pytest.mark.parametrize("r", [1, 2, 3])
def test_sp_fixed_point_block_shape(r):
    rz = sp_realization(r)
    t = rz.table
    for alpha in t.rs.positive_roots:
        m = rz.matrix_of(t.y_basis(alpha).terms)
        b = m.block(0, r, 0, r)
        c = m.block(0, r, r, 2 * r)
        assert m.block(r, 2 * r, 0, r) == -c
        assert m.block(r, 2 * r, r, 2 * r) == b
        assert b.transpose() == -b
        assert c.transpose() == c


@pytest.mark.parametrize("r", [1, 2, 3])
def test_sp_reconciliation_exists(r):
    generic = table_for(preset("C%d" % r))
    signs = chevalley._read_signs(generic, chevalley._display("C%d" % r)[0])
    assert all(v in (1, -1) for v in signs.values())
    for alpha in table_for(preset("C%d" % r)).rs.positive_roots:
        if height(alpha) == 1:
            assert signs[alpha] == 1


def _matrix_n(images, rs):
    """Reference: every N entry of a realization's table read off a full
    commutator of its displayed matrices."""
    dim = images[("h", 0)].rows
    n_table = {}
    for x in sorted(rs._all):
        mx = images[("e", x)]
        for y in sorted(rs._all):
            s = tuple(a + b for a, b in zip(x, y))
            comm = mx.commutator(images[("e", y)])
            if not any(s):
                # [e_a, e_{-a}] must be h_a
                want = ExactMatrix(dim, dim)
                for i, k in enumerate(rs.coroot_coords(x)):
                    want = want + k * images[("h", i)]
                assert comm == want, x
                continue
            if s not in rs._all:
                assert comm.is_zero(), (x, y)
                continue
            ms = images[("e", s)]
            pos_entry = next(iter(ms.terms))
            val = comm.entry(*pos_entry) / ms.entry(*pos_entry)
            assert comm == val * ms, (x, y)
            assert val.is_rational and val.re.denominator == 1, (x, y)
            n_table[(x, y)] = int(val.re)
    return n_table


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_twisted_table_matches_matrix_reference(r):
    # the generic table under the sign vector is the table the displayed
    # matrices give entry by entry
    t = sp_structure_table(r)
    assert t.rs is table_for(preset("C%d" % r)).rs
    assert dict(t.N) == _matrix_n(chevalley._display("C%d" % r)[0], t.rs)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sl_images_are_unit_matrices(r):
    # E_{k,l} for eps_k - eps_l = alpha_k + ... + alpha_{l-1}, E_{l,k} for
    # its negative, h_i = E_ii - E_{i+1,i+1}
    rz = sl_realization(r)

    def unit(i, j):
        return ExactMatrix(r + 1, r + 1, {(i, j): 1})

    for k in range(r + 1):
        for l in range(k + 1, r + 1):
            alpha = tuple(1 if k <= i < l else 0 for i in range(r))
            assert rz.images[("e", alpha)] == unit(k, l)
            assert rz.images[("e", _neg(alpha))] == unit(l, k)
    for i in range(r):
        assert rz.images[("h", i)] == unit(i, i) - unit(i + 1, i + 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sl_table_matches_matrix_reference(r):
    # the A_r table under the signs of the displayed matrices is the table
    # they give entry by entry; the signs are nontrivial from r = 2 on
    rz = sl_realization(r)
    generic = table_for(preset("A%d" % r))
    assert rz.table.rs is generic.rs
    assert dict(rz.table.N) == _matrix_n(rz.images, rz.table.rs)
    assert (dict(rz.table.N) != dict(generic.N)) == (r >= 2)


@pytest.fixture
def cold_matrix_caches():
    caches = (chevalley._display, sp_realization)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_cold_twisted_table_makes_one_commutator_per_nonsimple_root(cold_matrix_caches, monkeypatch):
    calls = []
    commutator = ExactMatrix.commutator

    def counted(self, other):
        calls.append(1)
        return commutator(self, other)

    monkeypatch.setattr(ExactMatrix, "commutator", counted)
    sp_structure_table(3)
    nonsimple = [a for a in table_for(preset("C3")).rs.positive_roots if height(a) >= 2]
    assert len(calls) == len(nonsimple) == 6


def test_sl_sign_read_makes_one_commutator_per_nonsimple_root(monkeypatch):
    images, generic = chevalley._display("A3")[0], table_for(preset("A3"))
    calls = []
    commutator = ExactMatrix.commutator

    def counted(self, other):
        calls.append(1)
        return commutator(self, other)

    monkeypatch.setattr(ExactMatrix, "commutator", counted)
    chevalley._read_signs(generic, images)
    nonsimple = [a for a in generic.rs.positive_roots if height(a) >= 2]
    assert len(calls) == len(nonsimple) == 3


def test_sign_derivation_raises_on_a_wrong_display():
    # a displayed matrix that is no multiple of the commutator it should be
    images = dict(chevalley._display("C2")[0])
    images[("e", (1, 1))] = 2 * images[("e", (1, 1))]
    with pytest.raises(IdentityViolation, match="is not a signed N multiple"):
        chevalley._read_signs(table_for(preset("C2")), images)


def test_realization_names_failing_pairs():
    t = table_for(preset("A2"))
    rz = sl_realization(2)
    images = dict(rz.images)
    images[("e", (1, 1))] = -images[("e", (1, 1))]
    with pytest.raises(IdentityViolation) as exc:
        MatrixRealization(3, images, t)
    named = str(exc.value).split(" at ", 1)[1]
    assert named.count("[(") == 3


def test_gl_presentation_rejects_rank_one():
    with pytest.raises(ValueError, match="r >= 2"):
        verify_gl_presentation(1)


def _y(t, alpha):
    """The fixed vector y_alpha of a positive root, by number."""
    return {t.number["e", alpha]: 1}


def test_eta_generator_images():
    r = 3
    t = sp_structure_table(r)
    for j in range(r - 1):
        k = eta(r, _y(t, _simple(t.rs, j)))
        assert k == ExactMatrix(r, r, {(j, j + 1): 1, (j + 1, j): -1})
    kr = eta(r, _y(t, _simple(t.rs, r - 1)))
    assert kr == ExactMatrix(r, r, {(r - 1, r - 1): I})


def test_eta_root_vector_images():
    r = 3

    def root_from_eps(eps):
        # alpha_k = eps_k - eps_{k+1} (k < r) and alpha_r = 2 eps_r give
        # coordinates the partial sums of eps, the last one halved
        sums = list(itertools.accumulate(eps))
        alpha = tuple(sums[:-1]) + (sums[-1] // 2,)
        assert sp_structure_table(r).rs.is_root(alpha), eps
        return alpha

    t = sp_structure_table(r)
    # eta(y_{eps_j - eps_k}) = E_jk - E_kj
    alpha = root_from_eps((1, -1, 0))
    assert eta(r, _y(t, alpha)) == ExactMatrix(r, r, {(0, 1): 1, (1, 0): -1})
    # eta(y_{eps_j + eps_k}) = i(E_jk + E_kj)
    beta = root_from_eps((1, 1, 0))
    assert eta(r, _y(t, beta)) == ExactMatrix(r, r, {(0, 1): I, (1, 0): I})
    # eta(y_{2 eps_l}) = i E_ll
    gam = root_from_eps((0, 2, 0))
    assert eta(r, _y(t, gam)) == ExactMatrix(r, r, {(1, 1): I})


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_eta_is_bracket_homomorphism(r):
    # on the kernel's bracket of every basis pair of the displayed table
    rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
    nums = sorted(rz.table.positive)
    for u in nums:
        for v in nums:
            assert eta(r, rz.basis_bracket(u, v)) == eta(r, {u: 1}).commutator(eta(r, {v: 1})), (u, v)


@pytest.mark.parametrize("r", [2, 3])
def test_eta_composes_with_psi(r):
    rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
    k1, k2 = (eta(r, rz.generator(j)) for j in (1, 2))
    assert eta(r, psi_eval(rz, parse_bracket("[B1,B2]"))) == k1.commutator(k2)
    # a combination maps linearly, and the empty vector to zero
    assert eta(r, {**rz.generator(1), **rz.generator(2)}) == k1 + k2
    assert eta(r, {}) == ExactMatrix(r, r)


def test_eta_rejects_a_number_outside_the_basis():
    t = sp_structure_table(2)
    # h_1, e_{-alpha_1}, a number past the table and a key instead of a number
    for n in (t.number["h", 0], t.number["e", (-1, 0)], t.dim, ("e", (1, 0))):
        with pytest.raises(ValueError, match="numbers no fixed basis vector of C2"):
            eta(2, {n: 1})


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_gl_presentation(r):
    checks = verify_gl_presentation(r)
    assert all(ok for _, ok in checks), [name for name, ok in checks if not ok]
    # r(r-1) ordered pairs less one of each pair with a_ij = 0, and the two
    # K_r identities
    assert len(checks) == {2: 4, 3: 7, 4: 11, 5: 16}[r]


def test_gl_presentation_specific_relations():
    # each relation check is named by the Serre relation it evaluates at the
    # K_j, in label order; a_13 = 0, so [K1,K3] = 0 is checked for (1, 3) only
    names = dict(verify_gl_presentation(3))
    assert list(names) == [
        "(2)+(1.1.2) = 0",  # [K1,[K1,K2]] = -K2
        "(1.3) = 0",  # [K1,K3] = 0
        "(1)+(1.2.2) = 0",  # [K2,[K2,K1]] = -K1
        "4*(2.3)+(2.2.2.3) = 0",  # [K2,[K2,[K2,K3]]] = -4[K2,K3]
        "(2)+(2.3.3) = 0",  # [K3,[K3,K2]] = -K2
        "K3 = (i/3)(Z - sum j*diag_j)",
        "K3 = i*E_33",
    ]
    assert all(names.values())


def test_invariant_form_values():
    t = table_for(preset("C2"))
    # (e_a, e_{-a}) = 2/(a,a): 2 for short, 1 for long
    short = (1, 0)
    lng = (0, 1)
    assert t.invariant_form(t.e(short), t.e(tuple(-c for c in short))) == 2
    assert t.invariant_form(t.e(lng), t.e(tuple(-c for c in lng))) == 1
    # theta condition for the affine extension: (E_0, omega(E_0)) = -1
    e0 = t.e(tuple(-c for c in t.rs.theta))
    assert t.invariant_form(e0, t.omega(e0)) == -1


@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_form_invariance_finite(name):
    rng = random.Random(23)
    t = table_for(preset(name))
    keys = t.keys

    def rand_elt():
        x = ChevElement()
        for key in rng.sample(keys, 3):
            x = x + rng.randint(-2, 2) * ChevElement({key: 1})
        return x

    for _ in range(25):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert t.invariant_form(t.bracket(x, y), z) + t.invariant_form(y, t.bracket(x, z)) == 0


# sha256 of repr(sorted(N.items())) for every finite preset up to rank 8,
# recorded with the earlier derivation (a Jacobi step plus four sign-split
# cases); a changed constant or sign of any table fails here
N_DIGESTS = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "4636e3e332daf03512e965d8ce278ac458e2eecd6681e23577b643faaa34bdae",
    "A3": "184d8d4911c77717462e7e65e348ef5c515433ebecb63f23c923aec345c116a9",
    "A4": "7671ce04a9782e71ed859196f618bfb5423a1467ec867313ebd03a709c223764",
    "A5": "47db43264a73fc3a76835891636b6a3c0ceeb6dc7cc87d96de805ea350f8230d",
    "A6": "4b04f1266f75344ef8b298fba2063cf6aea001cd428c3b3ffc87667448fa961b",
    "A7": "264811d1bb84051ba96ceee42b4da265522f3b9cef7783e0784e775a9c21be77",
    "A8": "acb89ecc3297aaa8077c714b8a6d1d0d592c69c591e6330d808e1287f06964aa",
    "B2": "8302d4963abfcb914455bbc2cb010e279880b21c39c9598327445cfba3a60c9a",
    "B3": "2527a053eff24b4178df06a7994ba2cbd8893a5ed9ea9fb6bc6e51153a1b383f",
    "B4": "e00bd811f91791145120afccdebbb01c90ec5426129ae34e8990327714c13ecc",
    "B5": "25bc363dc7d9cfeb1ca78624c5c3d43adda1e5e2f0071952e8de24c265248211",
    "B6": "d7fdd567a6efaef3a49514ca123f5846aa316d24501f8b47a7d926c1cea24f9f",
    "B7": "d7a850133c3836b80b5ad626689273e06b6a5a4c788d3a4388eb91ea70942521",
    "B8": "03aad4d31bcd1514c3d30dc9ef9fb378966effd7d9b835a75cb67e45ba5fdf42",
    "C1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "C2": "30f967bceb31e1ec90517346a600caa0441a0447c73dd7ef47139a0d798f7917",
    "C3": "68e4540d1bf4bfdfd2e653bc34b4f4bddf2760077ee3ee5f949ed1172f1ef997",
    "C4": "43a7b1e219a0330d5b11647763f082f18384846acbea4fcce237ed3b310c7037",
    "C5": "017894b64a1c4d6da2e04813fed8e38076836e9fd889740031224ca3cf4fa31b",
    "C6": "847a32e3b67c4820fd199dfc2cd31ea59c47e7c98dbe07dd00d40de6dfc755b8",
    "C7": "2440fae4a408a1903227e98b0174e7be76c95dcd6306f740d3e2cf9ab1feb5c5",
    "C8": "87e9635486cf8331d5de2e600892b310986c51657142e352edef596b81f5a088",
    "D4": "5d81068dd3f76a0ac9aca7750a283ce5d1c11f34a8b017bfa293c03cd19d8de2",
    "D5": "5cd0ed5ba28ae7f5fab60379eaa343e1a13ad011671e3176d3dae007816ad4dc",
    "D6": "8cbabfcdc8562ff0942e1004f166791afd246148f19c561cd1724a08c6f3d061",
    "D7": "0e3ecc0ab98e26ab119a4ca1bfb5c74a7f67d29f984654ff62adb17fcbb2e540",
    "D8": "0bb3af6687ef87da4e44637af20e591aecbc1ca82e20da84521e336396fa6d3d",
    "G2": "3cda9ce9f13bae82e4d4f7aba8bc5e17c5092bb64fa57b7c27af98cd9a645957",
    "F4": "dbe5ef284e3122b65c5b93e3559789c0b7a7477994a26faa52e366e77cea4643",
    "E6": "44ea2dfd158904483a9a63e4a7cb2702955dbd0abb4435179cca26dc6041f1c4",
    "E7": "4fde56a442ec6e501ec65a574b2326851671e24d9d999bdabd97db89c4112f07",
    "E8": "037e8fb2794afb4f0e9784d8170b7698cfe6c03232f9aa90d1d20bd9edcc7de1",
}


def test_n_digests_cover_the_finite_presets():
    assert sorted(N_DIGESTS) == sorted(n for n in preset_names(8) if not n.endswith("~"))


@pytest.mark.parametrize("name", sorted(N_DIGESTS))
def test_n_table_digest(name):
    n = build_chevalley(preset(name)).N
    assert hashlib.sha256(repr(sorted(n.items())).encode()).hexdigest() == N_DIGESTS[name]
