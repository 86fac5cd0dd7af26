import random
from fractions import Fraction
from itertools import accumulate, product

import pytest

from onsagerkit.cartan import FINITE, OTHER, UNTWISTED_AFFINE, NotSymmetrizable, preset, preset_names, validate
from onsagerkit.characters import (
    NotCType,
    WindowTooSmall,
    character_from_values,
    character_space,
    chi_affine,
    even_column_set,
)
from onsagerkit.chevalley import sp_structure_table
from onsagerkit.exact_math import ExactMatrix, GaussianRational, I, IncrementalSpan, nullspace_basis
from onsagerkit.loop import YIndex
from onsagerkit.onsager import AffineRealization, FiniteRealization, realization_for
from onsagerkit.roots import AffineRoot, RootSystem
from onsagerkit.serre_coeffs import serre_relation


def _root_from_eps(r, eps):
    """The type-C root with these eps coordinates: alpha_k = eps_k - eps_{k+1}
    (k < r) and alpha_r = 2 eps_r give coordinates the partial sums of eps,
    the last one halved."""
    sums = list(accumulate(eps))
    alpha = tuple(sums[:-1]) + (sums[-1] // 2,)
    assert RootSystem(preset("C%d" % r)).is_root(alpha), eps
    return alpha


def test_even_column_sets():
    for r in (2, 3, 4):
        assert even_column_set(preset("C%d" % r)) == {r}
    for r in (2, 3):
        assert even_column_set(preset("C%d~" % r)) == {0, r}
    assert even_column_set(preset("A2")) == frozenset()
    assert even_column_set(preset("A1~")) == {0, 1}
    assert even_column_set(preset("A1")) == {1}
    assert even_column_set(preset("B3")) == frozenset()


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"],
)
def test_finite_character_dimension(name):
    c = preset(name)
    rz = realization_for(c)
    space = character_space(rz, rz.table.rs.max_height)
    assert space.dimension == len(even_column_set(c))


def _free_by_relations(c):
    """The labels j that no relation (i, j) ties to zero through its length-1
    term c_0[1 - a_ij] B_j: a character kills every bracket, so it leaves
    only that term of each relation, and is free exactly on these labels."""
    return frozenset(j for j in c.labels
                     if not any(serre_relation(c, i, j).terms.get((j,)) for i in c.labels if i != j))


def test_relations_free_the_even_columns_of_random_gcms():
    rng = random.Random(16)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    a[i][j], a[j][i] = -rng.randint(1, 4), -rng.randint(1, 4)
        try:
            c = validate(a)
        except NotSymmetrizable:
            continue
        kinds.add(c.kind)
        assert _free_by_relations(c) == even_column_set(c), c
    assert kinds == {FINITE, UNTWISTED_AFFINE, OTHER}


@pytest.mark.parametrize("name", [n for n in preset_names(4) if preset(n).n <= 4])
def test_relations_free_as_many_labels_as_the_character_solve(name):
    c = preset(name)
    rz = realization_for(c)
    H = rz.top_height or 2 * rz.affine.delta_height + 2
    assert _free_by_relations(c) == even_column_set(c)
    assert len(_free_by_relations(c)) == character_space(rz, H).dimension


@pytest.mark.parametrize("name,H_extra", [("A1~", 0), ("C2~", 0), ("C3~", 0)])
def test_affine_character_dimension(name, H_extra):
    c = preset(name)
    rz = realization_for(c)
    H = 2 * rz.affine.delta_height + 2 + H_extra
    space = character_space(rz, H)
    assert space.dimension == len(even_column_set(c))


def test_window_too_small():
    rz = realization_for(preset("C2~"))
    with pytest.raises(WindowTooSmall):
        character_space(rz, 2)


@pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2", "B3"])
def test_finite_window_above_the_top_is_exact(name):
    # a window at or above the highest root's height holds the whole
    # algebra; A1's one basis vector meets no bracket, and is still solved
    c = preset(name)
    rz = realization_for(c)
    top = rz.table.rs.max_height
    for H in (top, top + 1, top + 3):
        space = character_space(rz, H)
        assert space.dimension == len(even_column_set(c))
        assert space.keys == list(rz.table.rs.positive_roots)


@pytest.mark.parametrize("name", ["A2", "C2", "G2", "B3", "C3", "F4"])
def test_finite_window_below_the_top_is_too_small(name):
    # below the top height a truncated solve certifies nothing: C2 at 1
    # left both generators free (2 against 1), G2 at 3 gave 1 against 0
    rz = realization_for(preset(name))
    top = rz.table.rs.max_height
    for H in range(1, top):
        with pytest.raises(WindowTooSmall, match="window %d is below the top height %d" % (H, top)):
            character_space(rz, H)


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~"])
def test_affine_window_without_a_bracket_is_too_small(name):
    rz = realization_for(preset(name))
    with pytest.raises(WindowTooSmall, match="no bracket of two basis vectors lands in window 1"):
        character_space(rz, 1)


def test_chi_finite_values():
    r = 3
    t = Fraction(5, 7)
    assert chi_affine(r, 0, t, AffineRoot(_root_from_eps(r, (0, 2, 0)), 0)) == t
    assert chi_affine(r, 0, t, AffineRoot(_root_from_eps(r, (1, -1, 0)), 0)) == 0
    assert chi_affine(r, 0, t, AffineRoot(_root_from_eps(r, (1, 0, 1)), 0)) == 0
    with pytest.raises(NotCType):
        chi_affine(r, 0, t, AffineRoot((5, 0, 0), 0))


@pytest.mark.parametrize("r", range(2, 8))
def test_the_closed_form_at_level_zero_is_the_finite_character(r):
    # t on the long positive roots 2 eps_k, 0 on the short ones, whatever
    # chi(Y_0) is, and y_{-alpha} = -y_alpha
    s, t = Fraction(9), Fraction(-3, 4)
    rs = RootSystem(preset("C%d" % r))
    long = {_root_from_eps(r, tuple(2 * (m == k) for m in range(r))) for k in range(r)}
    assert len(rs.positive_roots) == r * r and long <= set(rs.positive_roots)
    for alpha in rs.positive_roots:
        want = t if alpha in long else 0
        assert chi_affine(r, s, t, AffineRoot(alpha, 0)) == want, alpha
        assert chi_affine(r, s, t, -AffineRoot(alpha, 0)) == -want, alpha
    # every other small nonzero vector is no root, at an even or odd level
    for v in product(range(-1, 3), repeat=r):
        if any(v) and not rs.is_root(v):
            for level in (0, 1):
                with pytest.raises(NotCType, match="is not a type-C%d root" % r):
                    chi_affine(r, s, t, AffineRoot(v, level))
    # a rank below 1 or a root of the wrong rank is outside the closed form
    # (no preset lookup, so no UnknownPreset)
    alpha = rs.positive_roots[0]
    for bad in (0, -1):
        with pytest.raises(NotCType, match="rank r >= 1"):
            chi_affine(bad, s, t, AffineRoot(alpha, 0))
    for gamma in (AffineRoot(alpha[:-1], 0), AffineRoot(alpha + (0,), 0), AffineRoot(alpha + (0,), 1)):
        with pytest.raises(NotCType, match="root has rank"):
            chi_affine(r, s, t, gamma)


@pytest.mark.parametrize("r", [2, 3])
def test_chi_finite_matches_solved_character(r):
    rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
    space = character_space(rz, rz.table.rs.max_height)
    assert space.dimension == 1
    for t in (Fraction(9, 4), GaussianRational(Fraction(1, 3), -2)):
        func = character_from_values(space, {lab: (t if lab == r else 0) for lab in rz.cartan.labels})
        for alpha in rz.table.rs.positive_roots:
            assert func.get(alpha, 0) == chi_affine(r, 0, t, AffineRoot(alpha, 0)), (t, alpha)


def test_chi_affine_values():
    r = 2
    s, t = Fraction(3), Fraction(-2)
    theta = (2, 1)
    alpha0 = AffineRoot(tuple(-c for c in theta), 1)
    assert chi_affine(r, s, t, alpha0) == s
    # long root at even level
    assert chi_affine(r, s, t, AffineRoot(theta, 2)) == t
    assert chi_affine(r, s, t, AffineRoot(tuple(-c for c in theta), 2)) == -t
    # long root at odd level, positive finite part
    assert chi_affine(r, s, t, AffineRoot(theta, 1)) == -s
    # short roots and imaginary roots vanish
    assert chi_affine(r, s, t, AffineRoot((1, 0), 5)) == 0
    for i in (1, 2):
        assert chi_affine(r, s, t, AffineRoot((0, 0), 3), i) == 0
    with pytest.raises(NotCType):
        chi_affine(r, s, t, AffineRoot((0, 0), 0))
    with pytest.raises(NotCType):
        chi_affine(r, s, t, AffineRoot((1, 1, 1), 0))


@pytest.mark.parametrize(
    "s,t",
    [
        (Fraction(3), Fraction(-5)),
        (I, GaussianRational(1, 2)),
    ],
)
def test_chi_affine_matches_solved_character(s, t):
    r = 2
    rz = AffineRealization(preset("C%d~" % r), sp_structure_table(r))
    H = 2 * rz.affine.delta_height + 2
    space = character_space(rz, H)
    assert space.dimension == 2
    labels = rz.cartan.labels
    func = character_from_values(
        space, {lab: (s if lab == 0 else t if lab == r else 0) for lab in labels}
    )
    for idx in space.keys:
        want = chi_affine(r, s, t, idx.gamma, idx.i)
        assert func.get(idx, 0) == want, str(idx)


def test_shift_invariance_in_window():
    r = 2
    rz = AffineRealization(preset("C%d~" % r), sp_structure_table(r))
    H = 2 * rz.affine.delta_height + 2
    space = character_space(rz, H)
    s, t = Fraction(1), Fraction(7)
    func = character_from_values(
        space, {lab: (s if lab == 0 else t if lab == r else 0) for lab in rz.cartan.labels}
    )

    def chi(gamma):
        pos = gamma.level > 0 or (gamma.level == 0 and all(c >= 0 for c in gamma.finite))
        if pos:
            return func.get(YIndex(gamma), 0)
        return -func.get(YIndex(-gamma), 0)

    rs = rz.table.rs
    for alpha in sorted(rs._all):
        if not rs.is_long(alpha):
            continue
        for k in range(-2, 3):
            up = AffineRoot(alpha, k + 1)
            down = AffineRoot(alpha, k - 1)
            if rz.affine.affine_height(up) > H or abs(rz.affine.affine_height(down)) > H:
                continue
            assert chi(up) == chi(down), (alpha, k)


@pytest.mark.parametrize("r", [2, 3])
def test_step_identity(r):
    # [y_{beta + delta}, y_gamma] with beta = -eps_{j-1}-eps_j and
    # gamma = eps_{j-1}-eps_j lands on 2 y_{-2eps_j + delta} - 2 y_{-2eps_{j-1} + delta}
    t = sp_structure_table(r)
    rz = AffineRealization(preset("C%d~" % r), sp_structure_table(r))
    assert rz.table is t
    for j in range(2, r + 1):
        eps_b = tuple((-1 if m in (j - 2, j - 1) else 0) for m in range(r))
        eps_g = tuple((1 if m == j - 2 else -1 if m == j - 1 else 0) for m in range(r))
        beta = _root_from_eps(r, eps_b)
        gamma = _root_from_eps(r, eps_g)
        assert t.N.get((beta, gamma), 0) == 2
        assert t.N.get((beta, tuple(-c for c in gamma)), 0) == 2
        u, v = rz.number(YIndex(AffineRoot(beta, 1))), rz.number(YIndex(AffineRoot(gamma, 0)))
        got = {rz.index(n): c for n, c in rz.basis_bracket(u, v).items()}
        twoeps_j = _root_from_eps(r, tuple((2 if m == j - 1 else 0) for m in range(r)))
        twoeps_jm1 = _root_from_eps(r, tuple((2 if m == j - 2 else 0) for m in range(r)))
        want = {}
        # kappa * y_{-2eps_j + delta} - kappa' * y_{-2eps_{j-1} + delta}
        want[YIndex(AffineRoot(tuple(-c for c in twoeps_j), 1))] = Fraction(2)
        want[YIndex(AffineRoot(tuple(-c for c in twoeps_jm1), 1))] = Fraction(-2)
        assert got == want, (r, j)


def test_solve_character_wrapper():
    # the character with given generator values, solved on a window; a value
    # off the even-column set is not attained
    space = character_space(FiniteRealization(preset("C%d" % 2), sp_structure_table(2)), 3)
    chi = character_from_values(space, {1: 0, 2: Fraction(4)})
    assert chi.get((0, 1)) == 4 and chi.get((1, 0), 0) == 0
    with pytest.raises(ValueError, match="not attained by any character"):
        character_from_values(space, {1: Fraction(1), 2: 0})
    with pytest.raises(ValueError, match="generator label 9 outside"):
        character_from_values(space, {9: 0, 2: Fraction(4)})


def test_character_from_values_rejects_unreachable():
    rz = realization_for(preset("A2"))
    space = character_space(rz, 2)
    assert space.dimension == 0
    with pytest.raises(ValueError):
        character_from_values(space, {1: Fraction(1), 2: Fraction(0)})
    # the zero assignment is fine
    assert character_from_values(space, {1: 0, 2: 0}) == {}


def test_c3_affine_solve_is_one_int_nullspace(monkeypatch):
    # the chars window of C3~ is one 47 x 49 solve over the independent
    # rows among its 568 bracket rows (182 distinct), whose entries stay int
    # (the structure constants are integers)
    from onsagerkit import characters

    seen = []
    nullspace_basis = characters.nullspace_basis

    def recording(m):
        seen.append((m.rows, m.cols, {type(v) for v in m.terms.values()}))
        return nullspace_basis(m)

    monkeypatch.setattr(characters, "nullspace_basis", recording)
    rz = AffineRealization(preset("C%d~" % 3), sp_structure_table(3))
    space = character_space(rz, 2 * rz.affine.delta_height + 2)
    assert seen == [(47, 49, {int})]
    assert len(space.basis) == len(even_column_set(preset("C3~")))


def _every_row(rz, H):
    """The solve's rows over every in-window bracket of two window vectors,
    repeats included, in bracket order."""
    nums = [rz.number(k) for k, _ in rz.basis(H)]
    col = {n: j for j, n in enumerate(nums)}
    rows = []
    for i, u in enumerate(nums):
        for v in nums[i + 1:]:
            coords = rz.basis_bracket(u, v)
            if coords and all(n in col for n in coords):
                rows.append({col[n]: c for n, c in coords.items()})
    return rows


# the default chars window: (bracket rows, distinct rows, pairs the solve
# brackets); a window without characters stops at the pair whose row fills
# its rank (A2's is its third and last pair), C3~ brackets all 1,176 pairs
ROWS = {
    "A2": (3, 3, 3), "G2": (12, 10, 8), "E7": (1008, 125, 412),
    "A2~": (144, 78, 38), "C3~": (568, 182, 1176), "D4~": (1008, 242, 250),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_solve_takes_each_distinct_row_once(name, monkeypatch):
    # no span is offered a row twice, and the solve equals the solve over
    # every row; a window without characters stops bracketing once its rows
    # span it, one with characters (C3~) brackets every pair
    rz = realization_for(preset(name))
    H = rz.top_height or 2 * rz.affine.delta_height + 2
    rows = _every_row(rz, H)
    distinct = []
    for row in rows:
        if row not in distinct:
            distinct.append(row)
    assert (len(rows), len(distinct)) == ROWS[name][:2]
    offered = {}
    add = IncrementalSpan.add

    def recording(self, vec):
        offered.setdefault(self, []).append(dict(vec))
        return add(self, vec)

    monkeypatch.setattr(IncrementalSpan, "add", recording)
    calls = []
    bracket = rz.basis_bracket
    monkeypatch.setattr(rz, "basis_bracket", lambda u, v: calls.append((u, v)) or bracket(u, v))
    space = character_space(rz, H)
    monkeypatch.undo()
    for vecs in offered.values():
        assert all(v not in vecs[:i] for i, v in enumerate(vecs))
        assert all(v in distinct for v in vecs)
    assert len(calls) == ROWS[name][2]
    assert space.basis == _solve_every_row(rz, H)


def _solve_every_row(rz, H):
    """The character solve over every in-window bracket row, with the
    WindowTooSmall checks read off all of them."""
    top = rz.top_height
    if top is not None and H < top:
        raise WindowTooSmall("window %d is below the top height %d of the basis" % (H, top))
    keyed = rz.basis(H)
    rows = _every_row(rz, H)
    if top is None:
        if not rows:
            raise WindowTooSmall("no bracket of two basis vectors lands in window %d" % H)
        missing = {j for j, (_, h) in enumerate(keyed) if h <= H - 1} - {j for row in rows for j in row}
        if missing:
            raise WindowTooSmall(
                "window %d leaves %d basis vectors unconstrained, e.g. %s"
                % (H, len(missing), min((keyed[j][0] for j in missing), key=str))
            )
    every = ExactMatrix(len(rows), len(keyed), {(r, j): c for r, row in enumerate(rows) for j, c in row.items()})
    return [{keyed[j][0]: v for j, v in vec.items()} for vec in nullspace_basis(every)]


@pytest.mark.parametrize("name", [n for n in preset_names() if int(n[1:].rstrip("~")) <= 4] + ["E6"])
def test_the_solve_equals_the_solve_over_every_row(name):
    # every window from 1 to one above the top, or to 2 delta+3 on an
    # affine basis, gives the same space, or WindowTooSmall with the same
    # message; all three messages occur
    rz = realization_for(preset(name))
    for H in range(1, (rz.top_height or 2 * rz.affine.delta_height + 2) + 2):
        try:
            want = _solve_every_row(rz, H)
        except WindowTooSmall as e:
            with pytest.raises(WindowTooSmall) as got:
                character_space(rz, H)
            assert str(got.value) == str(e), (name, H)
        else:
            assert character_space(rz, H).basis == want, (name, H)
