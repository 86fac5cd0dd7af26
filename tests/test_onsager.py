import ast
from pathlib import Path

import pytest

from onsagerkit import onsager
from onsagerkit.cartan import FINITE, preset, preset_names, validate
from onsagerkit.chevalley import _vneg
from onsagerkit.freelie import parse_bracket, to_lyndon
from onsagerkit.loop import e_at, y_affine
from onsagerkit.onsager import (
    AffineRealization,
    FiniteRealization,
    all_bracket_words,
    filtration_dims,
    filtration_dims_all_words,
    generation_check,
    psi_eval,
    realization_for,
    relations,
)
from onsagerkit.verify import verification_suite


def test_relations_examples():
    rels = relations(preset("A1~"))
    dg0 = to_lyndon(parse_bracket("[B0,[B0,[B0,B1]]]")) + 4 * to_lyndon(parse_bracket("[B0,B1]"))
    dg1 = to_lyndon(parse_bracket("[B1,[B1,[B1,B0]]]")) + 4 * to_lyndon(parse_bracket("[B1,B0]"))
    assert rels == {(0, 1): dg0, (1, 0): dg1}

    rels_a2 = relations(preset("A2"))
    want = {
        (1, 2): to_lyndon(parse_bracket("[B1,[B1,B2]]")) + to_lyndon(parse_bracket("B2")),
        (2, 1): to_lyndon(parse_bracket("[B2,[B2,B1]]")) + to_lyndon(parse_bracket("B1")),
    }
    assert rels_a2 == want

    assert relations(preset("A1")) == {}


def test_psi_generator_images():
    rz = FiniteRealization(preset("A2"))
    t = rz.table
    y1 = psi_eval(rz, parse_bracket("B1"))
    assert y1 == {rz.number((1, 0)): 1}
    assert t.y_basis((1, 0)) == t.e((1, 0)) - t.e((-1, 0))


def test_psi_single_term_example():
    # [B1, B2] evaluates onto a single fixed-basis vector because
    # alpha_1 - alpha_2 is not a root
    rz = FiniteRealization(preset("A2"))
    val = psi_eval(rz, parse_bracket("[B1,B2]"))
    coords = {rz.index(k): c for k, c in val.items()}
    n = rz.table.N.get(((1, 0), (0, 1)), 0)
    assert coords == {(1, 1): n}
    assert abs(n) == 1


def test_psi_short_relation_image():
    # a_12 = -1, so [B1,[B1,B2]] = -B2 in the quotient; the images agree
    rz = FiniteRealization(preset("A2"))
    val = psi_eval(rz, parse_bracket("[B1,[B1,B2]]"))
    y2 = rz.generator(2)
    assert val == {k: -1 * c for k, c in y2.items()}


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "A1~", "A2~", "C2~"],
)
def test_psi_kills_relations(name):
    c = preset(name)
    rz = realization_for(c)
    for rel in relations(c).values():
        assert psi_eval(rz, rel) == {}, (name, rel)


def test_psi_index_error():
    rz = FiniteRealization(preset("A2"))
    with pytest.raises(IndexError):
        psi_eval(rz, parse_bracket("B3"))
    # affine labels start at 0
    rza = AffineRealization(preset("A1~"))
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
    rz = FiniteRealization(preset("C2"))
    rep = generation_check(rz, rz.table.rs.max_height)
    assert rep.matches and rep.rank == len(rz.table.rs.positive_roots)
    rza = AffineRealization(preset("A1~"))
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
            for c in psi_eval(rz, expr).values():
                assert type(c) is int, (expr, c)


@pytest.mark.parametrize("name", ["G2", "A1~"])
def test_all_words_spans_the_psi_image_of_every_bracketing(name, monkeypatch):
    # no tree is evaluated from its leaves, yet the span receives exactly the
    # psi image of each all_bracket_words entry, in that order
    rz = realization_for(preset(name))
    seen = []

    class RecordingSpan(onsager.IncrementalSpan):
        def add(self, vec):
            seen.append(dict(vec))
            return super().add(vec)

    monkeypatch.setattr(onsager, "IncrementalSpan", RecordingSpan)
    filtration_dims_all_words(rz, 5)
    assert seen == [psi_eval(rz, e) for j in range(1, 6) for e in all_bracket_words(rz.labels, j)]


def test_all_words_makes_one_bracket_per_bracketing(monkeypatch):
    # A1~ up to j = 6 has 4 + 16 + 80 + 448 + 2688 = 3,236 bracketings of
    # length >= 2; evaluating each from its leaves (j - 1 brackets per tree)
    # took 15,508
    rz = realization_for(preset("A1~"))
    calls = []
    bracket = rz.bracket
    monkeypatch.setattr(rz, "bracket", lambda x, y: calls.append(1) or bracket(x, y))
    rep = filtration_dims_all_words(rz, 6)
    assert len(calls) == sum(len(all_bracket_words(rz.labels, j)) for j in range(2, 7)) == 3236
    assert rep.dims == rep.expected


def test_all_bracket_words_count():
    # Catalan(2) * 2^3 = 2 * 8 trees of degree 3 on 2 letters
    assert len(all_bracket_words((1, 2), 3)) == 16


def test_affine_realization_nonstandard_node_order():
    # same A1 affine matrix but with the affine node listed second
    c = validate([[2, -2], [-2, 2]], labels=(1, 0))
    rz = AffineRealization(c)
    for rel in relations(c).values():
        assert psi_eval(rz, rel) == {}


def test_realization_for_names_the_kind_it_refuses():
    # a hyperbolic matrix has no realization; the error names its kind
    c = validate([[2, -3], [-3, 2]])
    msg = "a realization needs a finite or untwisted affine matrix; this one classifies as Other"
    with pytest.raises(onsager.NotRealized) as exc:
        realization_for(c)
    assert str(exc.value) == msg
    with pytest.raises(onsager.NotRealized, match="classifies as Other"):
        verification_suite(c)


@pytest.mark.parametrize("name", ["C2", "G2~"])
def test_basis_bracket_is_antisymmetric_over_the_chars_window(name):
    c = preset(name)
    rz = realization_for(c)
    H = rz.table.rs.max_height if c.kind == FINITE else 2 * rz.affine.delta_height + 2
    keys = [rz.number(k) for k, _ in rz.basis(H)]
    for i, u in enumerate(keys):
        for v in keys[i:]:
            uv = rz.basis_bracket(u, v)
            assert uv == {k: -x for k, x in rz.basis_bracket(v, u).items()}, (u, v)
            if u == v:
                assert uv == {}


@pytest.mark.parametrize("name", ["A2", "G2", "A1~", "C2~", "G2~"])
def test_basis_is_ordered_by_height_then_key(name):
    rz = realization_for(preset(name))
    basis = rz.basis(9)
    assert basis == sorted(basis, key=lambda kh: (kh[1], kh[0]))
    assert all(1 <= h <= 9 for _, h in basis)


@pytest.mark.parametrize(
    "a,labels",
    [
        (preset("A2").a, (1, 2)),
        (preset("A1~").a, (0, 1)),
        (preset("A1~").a, (1, 0)),
        (preset("C2~").a, (1, 2, 3)),  # as read from a matrix file: node 0 labelled 1
        (((2, -3, 0), (-1, 2, -1), (0, -1, 2)), (1, 2, 3)),  # G2~ with its extra node last
    ],
)
def test_generator_key_is_the_generators_basis_vector(a, labels):
    c = validate(a, labels=labels)
    rz = realization_for(c)
    for lab in c.labels:
        key = rz.index(rz.generators[lab])
        assert rz.generator(lab) == {rz.number(key): 1}
        if c.kind == FINITE:
            assert rz.table.y_basis(key) == element_generators(rz)[lab]
        else:
            assert y_affine(key) == element_generators(rz)[lab]


def element_generators(rz):
    """Y_i as elements, built from the matrix: y_{alpha_i} at a finite node,
    and e_{-theta}[1] - e_theta[-1] at the affine node."""
    c, t = rz.cartan, rz.table
    finite = [lab for pos, lab in enumerate(c.labels) if pos != c.affine_node]
    out = {}
    for lab in c.labels:
        if lab in finite:
            alpha = tuple(int(k == finite.index(lab)) for k in range(t.rs.rank))
            out[lab] = t.y_basis(alpha) if c.kind == FINITE else e_at(alpha, 0) - e_at(_vneg(alpha), 0)
        else:
            theta = rz.affine.theta
            out[lab] = e_at(_vneg(theta), 1) - e_at(theta, -1)
    return out


# the exponents of each finite type, by hand
EXPONENTS = {"G2": (1, 5), "F4": (1, 5, 7, 11), "E6": (1, 4, 5, 7, 8, 11),
             "E7": (1, 5, 7, 9, 11, 13, 17), "E8": (1, 7, 11, 13, 17, 19, 23, 29)}
EXPONENTS.update({"A%d" % r: tuple(range(1, r + 1)) for r in range(1, 9)})
EXPONENTS.update({"%s%d" % (f, r): tuple(range(1, 2 * r, 2)) for f in "BC" for r in range(1, 9)})
EXPONENTS.update({"D%d" % r: tuple(sorted([*range(1, 2 * r - 2, 2), r - 1])) for r in range(4, 9)})


def _kostant_mults(exps, affine, H):
    """Basis vectors per height 1..H from the exponents (Kostant, 1959): a
    finite type has #{e >= k} positive roots of height k; in the affine
    extension, with h = max(e) + 1, height k = qh + r (0 < r < h) has
    #{e >= r} + #{e >= h - r} real roots and height qh rank-many imaginary
    vectors."""
    h = max(exps) + 1

    def at_least(k):
        return sum(e >= k for e in exps)

    if not affine:
        return [at_least(k) for k in range(1, H + 1)]
    return [len(exps) if k % h == 0 else at_least(k % h) + at_least(h - k % h) for k in range(1, H + 1)]


@pytest.mark.parametrize("name", preset_names(8))
def test_heights_from_exponents(name):
    affine = name.endswith("~")
    exps = EXPONENTS[name.rstrip("~")]
    h = max(exps) + 1
    H = 3 * h if affine else h
    mults = realization_for(preset(name)).height_mults(H)
    assert mults == _kostant_mults(exps, affine, H)
    # the test has teeth: bumping any one exponent changes the answer
    for k in range(len(exps)):
        bumped = exps[:k] + (exps[k] + 1,) + exps[k + 1:]
        assert _kostant_mults(bumped, affine, H) != mults


# each realization's default windows, by hand: the top height of a finite
# basis; for an affine one with delta of height d, verify's jmax 2d + 1 (its
# height defaults to the jmax), the character window 2d + 2, structconst's
# height d + 1 and the root listing's 2d
WINDOWS = {  # name: (verify jmax, verify height, character window, structconst height, roots height)
    "A2": (2, 2, 2, 2, 2),
    "E8": (29, 29, 29, 29, 29),
    "A1~": (5, None, 6, 3, 4),
    "C2~": (9, None, 10, 5, 8),
    "G2~": (13, None, 14, 7, 12),
    "E8~": (61, None, 62, 31, 60),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_default_windows(name):
    c = preset(name)
    rz = realization_for(c)
    assert (rz.verify_jmax, rz.verify_height, rz.character_window, rz.structconst_height) == WINDOWS[name][:4]
    listing = type(rz).root_listing(c)
    assert max(row["height"] for row in listing["roots"]) == WINDOWS[name][4]
    if name.endswith("~"):
        assert 2 * listing["delta_height"] == WINDOWS[name][4]


# the rows each realization gates, by hand: the sl row on A_r, the sp and
# gl_r rows on the rows of the preset C_r (C1 is A1); the sweep up to rank 3,
# the A/G row on A1~ alone, the character row while its window is at most 20
GATES = {  # name: (matrix rows, sweeps, A/G row, character row)
    "A1": ("sl", False, False, True),
    "A3": ("sl", False, False, True),
    "C2": ("sp", False, False, True),
    "C3": ("sp", False, False, True),
    "B3": (None, False, False, True),
    "G2": (None, False, False, True),
    "E8": (None, False, False, True),
    "A1~": (None, True, True, True),
    "C2~": (None, True, False, True),
    "C3~": (None, True, False, True),
    "G2~": (None, True, False, True),
    "B4~": (None, False, False, True),
    "F4~": (None, False, False, False),
    "E6~": (None, False, False, False),
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_row_gates(name):
    # a matrix file, labelled 1..n, gets the gates of the preset with its rows
    for c in (preset(name), validate(preset(name).a)):
        rz = realization_for(c)
        assert (rz.matrix_rows, rz.sweeps, rz.onsager_table, rz.checks_characters) == GATES[name]


# the realization classes own every test of the kind of matrix: the CLI, the
# check suite and the characters read none, but for the type verify prints
@pytest.mark.parametrize("module", ["cli.py", "verify.py", "characters.py"])
def test_no_kind_tests_outside_the_realization(module):
    tree = ast.parse((Path(onsager.__file__).parent / module).read_text())
    allowed = set()
    if module == "cli.py":
        report = next(node for node in tree.body if getattr(node, "name", None) == "verify_report")
        fields = next(node for node in ast.walk(report) if isinstance(node, ast.Dict))
        value = fields.values[[getattr(k, "value", None) for k in fields.keys].index("type")]
        allowed = {id(node) for node in ast.walk(value)}
        assert sorted(node.attr for node in ast.walk(value) if isinstance(node, ast.Attribute)) == ["kind", "typename"]
    read = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("kind", "typename") and id(node) not in allowed]
    assert not read, "%s reads the kind of a matrix on lines %s" % (module, read)
