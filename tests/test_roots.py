import pytest

from onsagerkit.cartan import NotFinite, preset
from onsagerkit.onsager import realization_for
from onsagerkit.roots import (
    AffineRoot,
    NotARoot,
    RootSystem,
    height,
)


def test_a2_positive_roots():
    rs = RootSystem(preset("A2"))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert [height(a) for a in rs.positive_roots] == [1, 1, 2]


def test_c2_positive_roots():
    rs = RootSystem(preset("C2"))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_g2_positive_roots():
    rs = RootSystem(preset("G2"))
    assert len(rs.positive_roots) == 6
    assert rs.max_height == 5


@pytest.mark.parametrize(
    "name,count",
    [("A1", 1), ("A3", 6), ("A4", 10), ("B3", 9), ("C3", 9), ("C4", 16), ("D4", 12), ("F4", 24), ("E6", 36)],
)
def test_classical_counts(name, count):
    rs = RootSystem(preset(name))
    assert len(rs.positive_roots) == count


def test_not_finite_rejected():
    with pytest.raises(NotFinite):
        RootSystem(preset("A1~"))


def test_enumeration_idempotent():
    a = RootSystem(preset("C3"))
    b = RootSystem(preset("C3"))
    assert a.positive_roots == b.positive_roots


def test_exactly_one_sign_positive():
    rs = RootSystem(preset("B3"))
    for alpha in rs._all:
        neg = tuple(-c for c in alpha)
        assert rs.is_root(neg)
        assert rs.is_positive(alpha) != rs.is_positive(neg)


def test_theta_normalization():
    for name in ("A2", "B3", "C3", "G2", "F4"):
        rs = RootSystem(preset(name))
        assert rs.norm2(rs.theta) == 2
        assert height(rs.theta) == rs.max_height


def test_coroot_coords_examples():
    rs = RootSystem(preset("C2"))
    assert rs.coroot_coords((1, 0)) == (1, 0)
    assert rs.coroot_coords((2, 1)) == (1, 1)  # h_theta = h_1 + h_2
    rs2 = RootSystem(preset("A2"))
    assert rs2.coroot_coords((1, 1)) == (1, 1)
    with pytest.raises(NotARoot):
        rs2.coroot_coords((2, 0))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "E6", "F4", "G2"]
)
def test_coroot_integrality(name):
    rs = RootSystem(preset(name))
    for alpha in rs._all:
        rs.coroot_coords(alpha)  # asserts integrality internally


def test_affine_examples_a1():
    rs = RootSystem(preset("A1~").finite_part())
    roots2 = rs.affine_roots_up_to(2)
    as_set = {(g.finite, g.level, m) for g, m in roots2}
    assert as_set == {((1,), 0, 1), ((-1,), 1, 1), ((0,), 1, 1)}
    assert rs.delta_height == 2
    roots3 = {str(g) for g, _ in rs.affine_roots_up_to(3)}
    assert {"a1+d", "-a1+2d"} <= roots3
    assert rs.affine_roots_up_to(0) == [] and rs.affine_roots_up_to(-3) == []


def test_affine_height_one_is_simples():
    # the affine simple roots: the unit vectors at level 0, and
    # alpha_0 = delta - theta at level 1
    for name in ("A1~", "A2~", "C2~", "G2~"):
        rs = RootSystem(preset(name).finite_part())
        ht1 = [(g, m) for g, m in rs.affine_roots_up_to(1)]
        assert len(ht1) == rs.rank + 1
        assert all(m == 1 for _, m in ht1)
        simples = {AffineRoot(tuple(int(k == i) for k in range(rs.rank)), 0) for i in range(rs.rank)}
        simples.add(AffineRoot(tuple(-c for c in rs.theta), 1))
        assert {g for g, _ in ht1} == simples


def test_affine_multiplicities():
    rz = realization_for(preset("C2~"))
    mults = rz.height_mults(8)
    assert mults[rz.affine.delta_height - 1] == 2  # imaginary delta has multiplicity r


@pytest.mark.parametrize("name", ["A1~", "C2~"])
def test_affine_window_symmetry(name):
    # loop periodicity: total multiplicity at height j equals that at
    # ht(delta)*m - j, with height 0 reading as the rank (level-0 Cartan)
    rz = realization_for(preset(name))
    H = 8
    mult = dict(enumerate(rz.height_mults(H), 1))
    mult[0] = rz.affine.rank
    hd = rz.affine.delta_height
    m = 1
    while m * hd <= H:
        lo = (m - 1) * hd + 1
        for j in range(lo, m * hd + 1):
            mirror = m * hd - j
            assert mult.get(j, 0) == mult.get(mirror, 0), (j, mirror)
        m += 1


def test_affine_root_str_and_neg():
    g = AffineRoot((1, 0), 2)
    assert (-g).finite == (-1, 0) and (-g).level == -2
    assert AffineRoot((0, 0), 3).is_imaginary
