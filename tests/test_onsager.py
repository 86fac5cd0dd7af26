import pytest

from onsagerkit.cartan import preset, validate
from onsagerkit.chevalley import preset_table
from onsagerkit.freelie import parse_bracket, to_lyndon
from onsagerkit.loop import NotExpandable
from onsagerkit.onsager import (
    affine_realization,
    all_bracket_words,
    filtration_dims,
    filtration_dims_all_words,
    finite_realization,
    generation_check,
    psi_eval,
    realization_for,
    relations,
)


def test_relations_examples():
    rels = relations(preset("A1~"))
    dg0 = to_lyndon(parse_bracket("[B0,[B0,[B0,B1]]]")) + 4 * to_lyndon(parse_bracket("[B0,B1]"))
    dg1 = to_lyndon(parse_bracket("[B1,[B1,[B1,B0]]]")) + 4 * to_lyndon(parse_bracket("[B1,B0]"))
    assert rels == [dg0, dg1]

    rels_a2 = relations(preset("A2"))
    want = [
        to_lyndon(parse_bracket("[B1,[B1,B2]]")) + to_lyndon(parse_bracket("B2")),
        to_lyndon(parse_bracket("[B2,[B2,B1]]")) + to_lyndon(parse_bracket("B1")),
    ]
    assert rels_a2 == want

    assert relations(preset("A1")) == []


def test_psi_generator_images():
    rz = finite_realization(preset("A2"))
    t = rz.table
    y1 = psi_eval(rz, parse_bracket("B1"))
    assert y1 == t.e((1, 0)) - t.e((-1, 0))


def test_psi_single_term_example():
    # [B1, B2] evaluates onto a single fixed-basis vector because
    # alpha_1 - alpha_2 is not a root
    rz = finite_realization(preset("A2"))
    val = psi_eval(rz, parse_bracket("[B1,B2]"))
    coords = rz.y_coordinates(val)
    n = rz.table.n_value((1, 0), (0, 1))
    assert coords == {(1, 1): n}
    assert abs(n) == 1


def test_psi_short_relation_image():
    # a_12 = -1, so [B1,[B1,B2]] = -B2 in the quotient; the images agree
    rz = finite_realization(preset("A2"))
    val = psi_eval(rz, parse_bracket("[B1,[B1,B2]]"))
    y2 = rz.generator(2)
    assert val == -1 * y2


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "A1~", "A2~", "C2~"],
)
def test_psi_kills_relations(name):
    c = preset(name)
    rz = realization_for(c)
    for rel in relations(c):
        assert psi_eval(rz, rel).is_zero(), (name, rel)


def test_psi_index_error():
    rz = finite_realization(preset("A2"))
    with pytest.raises(IndexError):
        psi_eval(rz, parse_bracket("B3"))
    # affine labels start at 0
    rza = affine_realization(preset("A1~"))
    psi_eval(rza, parse_bracket("B0"))
    with pytest.raises(IndexError):
        psi_eval(rza, parse_bracket("B2"))


@pytest.mark.parametrize(
    "name,jmax,dims",
    [
        ("A2", 4, [2, 1, 0, 0]),
        ("C2", 4, [2, 1, 1, 0]),
        ("G2", 5, [2, 1, 1, 1, 1]),
        ("A1~", 4, [2, 1, 2, 1]),
        ("C2~", 6, [3, 2, 3, 2, 3, 2]),
    ],
)
def test_filtration_dims(name, jmax, dims):
    rz = realization_for(preset(name))
    rep = filtration_dims(rz, jmax)
    assert rep.dims == dims
    assert rep.expected == dims
    assert rep.matches
    assert rep.dims[0] == len(rz.labels)


def test_generation_check_examples():
    rz = finite_realization(preset("C2"))
    rep = generation_check(rz, rz.table.rs.max_height)
    assert rep.matches and rep.rank == len(rz.table.rs.positive_roots)
    rza = affine_realization(preset("A1~"))
    rep4 = generation_check(rza, 4)
    assert rep4.rank == 6 and rep4.matches
    rep1 = generation_check(rza, 1)
    assert rep1.rank == 2


@pytest.mark.parametrize("name", ["A2", "C2", "A1~"])
def test_word_order_independence(name):
    rz = realization_for(preset(name))
    a = filtration_dims(rz, 4)
    b = filtration_dims_all_words(rz, 4)
    assert a.dims == b.dims


def test_all_words_filtration_g2_known_dims():
    # G2 has positive roots of heights 1..5 with multiplicities 2,1,1,1,1
    rep = filtration_dims_all_words(realization_for(preset("G2")), 6)
    assert rep.dims == rep.expected == [2, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("name", ["G2", "A1~"])
def test_psi_images_have_exact_integer_coefficients(name):
    # integral structure constants: every psi image of a bracket word keeps
    # int coefficients: never a float, and no Fraction round trip
    rz = realization_for(preset(name))
    for j in range(1, 6):
        for expr in all_bracket_words(rz.labels, j):
            for c in psi_eval(rz, expr).terms.values():
                assert type(c) is int, (expr, c)


def test_all_bracket_words_count():
    # Catalan(2) * 2^3 = 2 * 8 trees of degree 3 on 2 letters
    assert len(all_bracket_words((1, 2), 3)) == 16


def test_affine_realization_nonstandard_node_order():
    # same A1 affine matrix but with the affine node listed second
    c = validate([[2, -2], [-2, 2]], labels=(1, 0))
    rz = affine_realization(c)
    for rel in relations(c):
        assert psi_eval(rz, rel).is_zero()


def test_finite_coordinates_reject_unfixed_elements():
    # raised, not asserted, so the check survives python -O
    rz = finite_realization(preset("A2"))
    t = preset_table("A2")
    assert rz.y_coordinates(t.y_basis((1, 1))) == {(1, 1): 1}
    with pytest.raises(NotExpandable):
        rz.y_coordinates(t.h(0))
    for alpha in ((1, 0), (-1, -1)):
        with pytest.raises(NotExpandable):
            rz.y_coordinates(t.e(alpha))
