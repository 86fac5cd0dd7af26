"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is an exact (tolerance-zero) equality check.  Run with
`pytest -v tests/test_acceptance.py` for one line per criterion, or add -s
to see the PASS summaries and timings.
"""

import random
import time
from fractions import Fraction

from onsagerkit.cartan import preset, validate
from onsagerkit.characters import (
    character_from_values,
    character_space,
    chi_affine,
    even_column_set,
)
from onsagerkit.chevalley import (
    ChevElement,
    eta,
    sp_structure_table,
    table_for,
)
from onsagerkit.exact_math import GaussianRational, I
from onsagerkit.freelie import (
    BracketExpr,
    is_lyndon,
    lyndon_words,
    parse_bracket,
    to_lyndon,
    witt_dimension,
)
from onsagerkit.loop import (
    LoopElement,
    bracket_loop,
    central,
    derivation,
    loop_form,
    omega_tilde,
    onsager_basis,
)
from onsagerkit.onsager import (
    AffineRealization,
    FiniteRealization,
    filtration_dims,
    psi_eval,
    realization_for,
    relations,
)
from onsagerkit.roots import AffineRoot
from onsagerkit.serre_coeffs import c0_closed_form, coeff_row, serre_relation
from onsagerkit.verify import check_affine_structure_constants, verify_gl_presentation


def _report(n, text, t0):
    print("PASS criterion %d: %s (%.2fs)" % (n, text, time.time() - t0))


def test_criterion_01_coefficient_table():
    t0 = time.time()
    table = {
        0: lambda a: (1,),
        1: lambda a: (0, 1),
        2: lambda a: (-a, 0, 1),
        3: lambda a: (0, -3 * a - 2, 0, 1),
        4: lambda a: (3 * a * a + 6 * a, 0, -6 * a - 8, 0, 1),
        5: lambda a: (0, 15 * a * a + 50 * a + 24, 0, -10 * a - 20, 0, 1),
    }
    for a in range(0, -7, -1):
        for r, expect in table.items():
            assert coeff_row(a, r).c == expect(a)
    for a in range(0, -9, -1):
        for ell in range(0, 11):
            assert coeff_row(a, 2 * ell).c[0] == c0_closed_form(a, ell)
    _report(1, "coefficient recursion matches the low-order table and closed form", t0)


def test_criterion_02_relation_display():
    t0 = time.time()
    cases = {
        0: ("[B1,B2]", []),
        -1: ("[B1,[B1,B2]]", [(1, "B2")]),
        -2: ("[B1,[B1,[B1,B2]]]", [(4, "[B1,B2]")]),
        -3: ("[B1,[B1,[B1,[B1,B2]]]]", [(10, "[B1,[B1,B2]]"), (9, "B2")]),
        -4: ("[B1,[B1,[B1,[B1,[B1,B2]]]]]", [(20, "[B1,[B1,[B1,B2]]]"), (64, "[B1,B2]")]),
    }
    for a, (top, rest) in cases.items():
        c = validate([[2, a], [0 if a == 0 else -1, 2]])
        want = to_lyndon(parse_bracket(top))
        for coeff, text in rest:
            want = want + coeff * to_lyndon(parse_bracket(text))
        assert serre_relation(c, 1, 2) == want, a
    _report(2, "five displayed relations reproduced in Lyndon normal form", t0)


def test_criterion_03_mixed_serre_identity():
    t0 = time.time()
    presets = ["A1", "A2", "A3", "B3", "C2", "C3", "G2"]
    checked = 0
    for name in presets:
        t = table_for(preset(name))
        n = t.rs.rank
        a = t.rs.cartan.a

        def simple(k):
            return tuple(1 if m == k else 0 for m in range(n))

        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                yi, yj = t.y_basis(simple(i)), t.y_basis(simple(j))
                ei, ej = t.e(simple(i)), t.e(simple(j))
                fi = t.e(tuple(-c for c in simple(i)))
                fj = t.e(tuple(-c for c in simple(j)))
                for r in range(0, 2 - a[i][j] + 1):
                    row = coeff_row(a[i][j], r)
                    lhs = ChevElement()
                    term = yj
                    for s in range(r + 1):
                        if row.c[s]:
                            lhs = lhs + row.c[s] * term
                        term = t.bracket(yi, term)
                    rhs_e, rhs_f = ej, fj
                    for _ in range(r):
                        rhs_e = t.bracket(ei, rhs_e)
                        rhs_f = t.bracket(fi, rhs_f)
                    rhs = rhs_e + (1 if (r - 1) % 2 == 0 else -1) * rhs_f
                    assert lhs == rhs, (name, i, j, r)
                    checked += 1
    _report(3, "mixed Serre identity exact over %d cases" % checked, t0)


def test_criterion_04_psi_kills_relations():
    t0 = time.time()
    names = [
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4",
        "A1~", "A2~", "C2~",
    ]
    count = 0
    for name in names:
        c = preset(name)
        rz = realization_for(c)
        for rel in relations(c).values():
            assert psi_eval(rz, rel) == {}, name
            count += 1
    _report(4, "evaluation kills all %d defining relations over %d matrices" % (count, len(names)), t0)


def test_criterion_05_graded_dimensions():
    t0 = time.time()
    for name, jmax in (("A2", 2), ("C2", 3), ("G2", 5), ("A1~", 6), ("C2~", 6)):
        rz = realization_for(preset(name))
        rep = filtration_dims(rz, jmax)
        assert rep.matches, (name, rep)
    _report(5, "filtration dimensions equal graded root multiplicities", t0)


def test_criterion_06_onsager_structure_constants():
    t0 = time.time()
    t = table_for(preset("A1"))
    for k in range(-5, 6):
        for l in range(-5, 6):
            assert bracket_loop(t, onsager_basis(k)[0], onsager_basis(l)[0]) == onsager_basis(l - k)[1]
    for m in range(1, 6):
        for n in range(1, 6):
            assert bracket_loop(t, onsager_basis(m)[1], onsager_basis(n)[1]).is_zero()
        for k in range(-5, 6):
            lhs = bracket_loop(t, onsager_basis(m)[1], onsager_basis(k)[0])
            assert lhs == 2 * onsager_basis(k + m)[0] - 2 * onsager_basis(k - m)[0]
    _report(6, "classical bracket table holds for |k|,|l| <= 5, 0 < m,n <= 5", t0)


def test_criterion_07_affine_structure_constants():
    t0 = time.time()
    rz = realization_for(preset("C2~"))
    name, passed, detail = check_affine_structure_constants(rz, level_bound=3)
    assert passed, detail
    _report(7, "loop fixed-basis expansions match closed forms, %s" % detail, t0)


def test_criterion_08_eta_and_gl_presentation():
    t0 = time.time()
    for r in (1, 2, 3):
        rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
        nums = sorted(rz.table.positive)
        for u in nums:
            for v in nums:
                assert eta(r, rz.basis_bracket(u, v)) == eta(r, {u: 1}).commutator(eta(r, {v: 1}))
    for r in (2, 3):
        checks = verify_gl_presentation(r)
        assert all(ok for _, ok in checks), [name for name, ok in checks if not ok]
    _report(8, "eta is a bracket homomorphism (r <= 3); all K-relations hold (r = 2, 3)", t0)


def test_criterion_09_characters():
    t0 = time.time()
    for r in (2, 3, 4):
        assert even_column_set(preset("C%d" % r)) == {r}
    for r in (2, 3):
        assert even_column_set(preset("C%d~" % r)) == {0, r}

    rza2 = realization_for(preset("A2"))
    assert character_space(rza2, 2).dimension == 0

    for r in (2, 3):
        rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
        space = character_space(rz, rz.table.rs.max_height)
        assert space.dimension == 1
        tval = Fraction(11, 3)
        func = character_from_values(space, {lab: (tval if lab == r else 0) for lab in rz.cartan.labels})
        for alpha in rz.table.rs.positive_roots:
            assert func.get(alpha, 0) == chi_affine(r, 0, tval, AffineRoot(alpha, 0))

    r = 2
    rz = AffineRealization(preset("C%d~" % r), sp_structure_table(r))
    H = 2 * rz.affine.delta_height + 2
    space = character_space(rz, H)
    assert space.dimension == 2
    s, tval = GaussianRational(2, 1), I
    func = character_from_values(
        space, {lab: (s if lab == 0 else tval if lab == r else 0) for lab in rz.cartan.labels}
    )
    saw_imaginary = 0
    for idx in space.keys:
        want = chi_affine(r, s, tval, idx.gamma, idx.i)
        assert func.get(idx, 0) == want, str(idx)
        if idx.gamma.is_imaginary:
            saw_imaginary += 1
            assert want == 0
    assert saw_imaginary >= 4
    _report(9, "character spaces and closed-form values agree on the window", t0)


def test_criterion_10_property_suites():
    t0 = time.time()
    # free Lie: Jacobi, antisymmetry, Witt dimensions
    rng = random.Random(2024)

    def rand_expr(degree, ngens):
        if degree == 1:
            return BracketExpr.leaf(rng.randint(1, ngens))
        k = rng.randint(1, degree - 1)
        return BracketExpr.node(rand_expr(k, ngens), rand_expr(degree - k, ngens))

    for _ in range(40):
        x = rand_expr(rng.randint(1, 3), 3)
        y = rand_expr(rng.randint(1, 2), 3)
        z = rand_expr(rng.randint(1, 2), 3)
        assert (to_lyndon(BracketExpr.node(x, y)) + to_lyndon(BracketExpr.node(y, x))).is_zero()
        jac = (
            to_lyndon(BracketExpr.node(x, BracketExpr.node(y, z)))
            + to_lyndon(BracketExpr.node(y, BracketExpr.node(z, x)))
            + to_lyndon(BracketExpr.node(z, BracketExpr.node(x, y)))
        )
        assert jac.is_zero()
    for n in (2, 3):
        for d in range(1, 7):
            words = lyndon_words(range(1, n + 1), d)
            assert len(words) == witt_dimension(n, d)
            assert all(is_lyndon(w) for w in words)

    # loop: Jacobi and form invariance with the central and derivation parts
    t = table_for(preset("C2"))
    keys = t.keys

    def rand_loop():
        x = LoopElement()
        for _ in range(3):
            x = x + rng.randint(-2, 2) * LoopElement({(rng.choice(keys), rng.randint(-3, 3)): 1})
        return x + rng.randint(-1, 1) * central() + rng.randint(-1, 1) * derivation()

    for _ in range(25):
        x, y, z = rand_loop(), rand_loop(), rand_loop()
        jac = (
            bracket_loop(t, x, bracket_loop(t, y, z))
            + bracket_loop(t, y, bracket_loop(t, z, x))
            + bracket_loop(t, z, bracket_loop(t, x, y))
        )
        assert jac.is_zero()
        assert loop_form(t, bracket_loop(t, x, y), z) + loop_form(t, y, bracket_loop(t, x, z)) == 0

    # involutions are automorphisms
    for name in ("A2", "C2", "G2"):
        tt = table_for(preset(name))
        for k1 in tt.keys:
            x = ChevElement({k1: 1})
            assert tt.omega(tt.omega(x)) == x
            for k2 in tt.keys:
                y = ChevElement({k2: 1})
                assert tt.omega(tt.bracket(x, y)) == tt.bracket(tt.omega(x), tt.omega(y))
    elems = [LoopElement({(key, k): 1}) for key in keys for k in (-2, -1, 0, 1, 2)]
    elems += [central(), derivation()]
    for x in elems:
        for y in elems:
            assert omega_tilde(bracket_loop(t, x, y)) == bracket_loop(t, omega_tilde(x), omega_tilde(y))

    # structure-constant sign laws
    for name in ("A3", "B3", "C3", "G2", "F4"):
        tt = table_for(preset(name))
        for (a, b), n in tt.N.items():
            assert tt.N[(b, a)] == -n
            assert tt.N[(tuple(-c for c in a), tuple(-c for c in b))] == -n
            assert abs(n) == tt.rs.chain_p(a, b) + 1
    _report(10, "property suites (fixed seeds) all exact", t0)
