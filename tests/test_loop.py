import random
from fractions import Fraction

import pytest

from onsagerkit.cartan import preset
from onsagerkit.chevalley import table_for
from onsagerkit.loop import (
    LoopElement,
    NotExpandable,
    YIndex,
    bracket_loop,
    central,
    derivation,
    e_at,
    h_at,
    loop_form,
    omega_tilde,
    onsager_basis,
    y_affine,
    y_coordinates,
)
from onsagerkit.onsager import realization_for
from onsagerkit.roots import AffineRoot, RootSystem


def test_central_extension_bracket():
    t = table_for(preset("C2"))
    for alpha in t.rs.positive_roots:
        neg = tuple(-c for c in alpha)
        got = bracket_loop(t, e_at(alpha, 1), e_at(neg, -1))
        want = LoopElement({(("h", i), 0): k for i, k in enumerate(t.rs.coroot_coords(alpha)) if k})
        want = want + Fraction(2) / t.rs.norm2(alpha) * central()
        assert got == want, alpha


def test_derivation_and_center():
    t = table_for(preset("A2"))
    x = e_at((1, 0), 3)
    assert bracket_loop(t, derivation(), x) == 3 * x
    assert bracket_loop(t, x, derivation()) == -3 * x
    rng = random.Random(2)
    for _ in range(10):
        y = _random_loop(rng, t)
        assert bracket_loop(t, central(), y).is_zero()
        assert bracket_loop(t, derivation(), derivation()).is_zero()


def _random_loop(rng, t, with_cd=True):
    keys = t.keys
    x = LoopElement()
    for _ in range(3):
        key = rng.choice(keys)
        x = x + rng.randint(-2, 2) * LoopElement({(key, rng.randint(-3, 3)): 1})
    if with_cd:
        x = x + rng.randint(-1, 1) * central() + rng.randint(-1, 1) * derivation()
    return x


@pytest.mark.parametrize("name", ["A1", "A2", "C2"])
def test_loop_jacobi_random(name):
    rng = random.Random(31)
    t = table_for(preset(name))
    for _ in range(30):
        x, y, z = (_random_loop(rng, t) for _ in range(3))
        total = (
            bracket_loop(t, x, bracket_loop(t, y, z))
            + bracket_loop(t, y, bracket_loop(t, z, x))
            + bracket_loop(t, z, bracket_loop(t, x, y))
        )
        assert total.is_zero()


@pytest.mark.parametrize("name", ["A1", "A2", "C2"])
def test_loop_form_invariance_random(name):
    rng = random.Random(37)
    t = table_for(preset(name))
    for _ in range(30):
        x, y, z = (_random_loop(rng, t) for _ in range(3))
        assert loop_form(t, bracket_loop(t, x, y), z) + loop_form(t, y, bracket_loop(t, x, z)) == 0


def test_omega_tilde_examples():
    t = table_for(preset("A2"))
    alpha = (1, 0)
    assert omega_tilde(e_at(alpha, 2)) == -1 * e_at((-1, 0), -2)
    assert omega_tilde(derivation()) == -1 * derivation()
    assert omega_tilde(central()) == -1 * central()
    rng = random.Random(5)
    for _ in range(20):
        x = _random_loop(rng, t)
        assert omega_tilde(omega_tilde(x)) == x


@pytest.mark.parametrize("name", ["A1", "C2"])
def test_omega_tilde_is_automorphism(name):
    t = table_for(preset(name))
    keys = t.keys
    elems = [LoopElement({(key, k): 1}) for key in keys for k in (-2, -1, 0, 1, 2)]
    elems += [central(), derivation()]
    for x in elems:
        for y in elems:
            assert omega_tilde(bracket_loop(t, x, y)) == bracket_loop(
                t, omega_tilde(x), omega_tilde(y)
            )


def test_y_affine_examples():
    t = table_for(preset("C2"))
    rank = 2
    zero = (0, 0)
    g = y_affine(YIndex(AffineRoot(zero, 3), 2))
    assert g == h_at(1, 3) - h_at(1, -3)
    theta = t.rs.theta
    y0 = y_affine(YIndex(AffineRoot(tuple(-c for c in theta), 1)))
    assert y0 == e_at(tuple(-c for c in theta), 1) - e_at(theta, -1)
    for idx in (YIndex(AffineRoot((1, 1), 2)), YIndex(AffineRoot(zero, 1), 1)):
        assert omega_tilde(y_affine(idx)) == y_affine(idx)


def test_y_sign_conventions():
    # y_{-gamma} = -y_gamma comes out of the defining formula
    assert y_affine(YIndex(AffineRoot((1, 0), -2))) == -1 * y_affine(YIndex(AffineRoot((-1, 0), 2)))
    # G_0 = 0
    assert y_affine(YIndex(AffineRoot((0,), 0), 1)).is_zero()


def test_y_coordinates_roundtrip_and_integrality():
    t = table_for(preset("C2"))
    rz = realization_for(preset("C2~"))
    zero = (0, 0)
    indices = [YIndex(AffineRoot(a, k)) for a in sorted(t.rs._all) for k in (-2, -1, 0, 1, 2)]
    indices += [YIndex(AffineRoot(zero, k), i) for k in (1, 2) for i in (1, 2)]
    for i1 in indices:
        for i2 in indices:
            coords = rz.basis_bracket(rz.number(i1), rz.number(i2))
            for idx, coeff in ((rz.index(n), c) for n, c in coords.items()):
                assert Fraction(coeff).denominator == 1
                # every output index is a canonical positive one
                g = idx.gamma
                assert g.level > 0 or (g.level == 0 and all(c >= 0 for c in g.finite))


def test_not_expandable():
    t = table_for(preset("A1"))
    with pytest.raises(NotExpandable):
        y_coordinates(central(), 1)
    with pytest.raises(NotExpandable):
        y_coordinates(e_at((1,), 0), 1)
    with pytest.raises(NotExpandable):
        y_coordinates(h_at(0, 0), 1)


def test_onsager_identities():
    t = table_for(preset("A1"))
    # A_m = -y_{alpha_0 - (m+1) delta}: alpha_0 = -alpha_1 + delta, so
    # alpha_0 - (m+1)delta has finite part -alpha_1 at level -m
    for m in range(-3, 4):
        a_m, g_m = onsager_basis(m)
        assert a_m == -1 * y_affine(YIndex(AffineRoot((-1,), -m)))
        if m > 0:
            assert g_m == -1 * onsager_basis(-m)[1]
    assert onsager_basis(0)[1].is_zero()


def test_onsager_structure_small():
    t = table_for(preset("A1"))
    for k in range(-3, 4):
        for l in range(-3, 4):
            assert bracket_loop(t, onsager_basis(k)[0], onsager_basis(l)[0]) == onsager_basis(l - k)[1]
    for m in range(1, 4):
        for k in range(-3, 4):
            lhs = bracket_loop(t, onsager_basis(m)[1], onsager_basis(k)[0])
            assert lhs == 2 * onsager_basis(k + m)[0] - 2 * onsager_basis(k - m)[0]
        for n in range(1, 4):
            assert bracket_loop(t, onsager_basis(m)[1], onsager_basis(n)[1]).is_zero()


def test_k_bracket_expand_keeps_exact_coefficients():
    # C2~ fixed-basis pairs up to height 5: integral brackets and expansions
    # stay ints, never a float or a Fraction
    t = table_for(preset("C2"))
    rz = realization_for(preset("C2~"))
    indices = [YIndex(g, i) for g, m in RootSystem(preset("C2~").finite_part()).affine_roots_up_to(5)
               for i in range(1, m + 1)]
    for a in indices:
        for b in indices:
            z = bracket_loop(t, y_affine(a), y_affine(b))
            for c in list(z.terms.values()) + list(rz.basis_bracket(rz.number(a), rz.number(b)).values()):
                assert type(c) is int, (a, b, c)
