import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsagerkit.cartan import (
    FINITE,
    OTHER,
    UNTWISTED_AFFINE,
    NotGCM,
    NotSymmetrizable,
    UnknownPreset,
    _affine_extension,
    _finite_preset_matrix,
    _leading_minors_positive,
    _match_finite_name,
    _submatrix,
    parse_matrix_text,
    preset,
    preset_names,
    symmetrizer,
    validate,
)
from onsagerkit.exact_math import ExactMatrix, IdentityViolation, IncrementalSpan, nullspace_basis


def _det(a):
    """Exact determinant of an integer matrix.

    Row i reduced against the rows before it keeps its determinant and holds
    none of their pivot columns, so the determinant is the product of the
    pivot entries, signed by the inversions of the pivot columns.  The rows
    go in as Fractions, so every basis row has 1 at its pivot and reduce
    returns the residue itself, not a multiple of it.
    """
    span = IncrementalSpan()
    det = Fraction(1)
    cols = []
    for row in a:
        v = span.reduce({j: Fraction(c) for j, c in enumerate(row)})
        if not v:
            return 0
        p = min(v)
        det *= v[p]
        cols.append(p)
        span.add(v)
    inversions = sum(1 for i in range(len(cols)) for j in range(i) if cols[j] > cols[i])
    if det.denominator != 1:
        raise IdentityViolation("non-integer determinant %s of an integer matrix" % det)
    return int(det) * (-1) ** inversions


def test_preset_a1_affine():
    c = preset("A1~")
    assert c.a == ((2, -2), (-2, 2))
    assert c.kind == UNTWISTED_AFFINE
    assert c.typename == "A1~"
    assert c.labels == (0, 1)


def test_preset_a2():
    c = preset("A2")
    assert c.a == ((2, -1), (-1, 2))
    assert c.kind == FINITE


def test_preset_c2_orientation():
    # long simple root last: a_{r-1,r} = -2, a_{r,r-1} = -1
    c = preset("C2")
    assert c.entry(1, 2) == -2
    assert c.entry(2, 1) == -1
    assert c.d == (1, 2)


def test_preset_c3_and_b3():
    c = preset("C3")
    assert c.a == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    b = preset("B3")
    assert b.a == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_classification_examples():
    assert validate([[2, -2], [-2, 2]]).kind == UNTWISTED_AFFINE
    assert validate([[2, -1], [-1, 2]]).kind == FINITE
    # det = 4 - 3 = 1 > 0: finite (a renumbered G2), not Other
    assert validate([[2, -1], [-3, 2]]).kind == FINITE
    assert validate([[2, -1], [-3, 2]]).typename == "G2"
    # twisted affine A_2^(2) has det 0 and positive proper minors but is not
    # an extended finite matrix
    assert validate([[2, -4], [-1, 2]]).kind == OTHER
    # rank-2 hyperbolic
    assert validate([[2, -3], [-3, 2]]).kind == OTHER


def test_not_gcm():
    with pytest.raises(NotGCM):
        validate([[1, 0], [0, 2]])
    with pytest.raises(NotGCM):
        validate([[2, 1], [1, 2]])
    with pytest.raises(NotGCM):
        validate([[2, -1], [0, 2]])


@pytest.mark.parametrize("a, where", [
    ([[2.9, -1], [-1, 2]], "a[0][0] = 2.9"),
    ([[2, -1.5], [-1, 2]], "a[0][1] = -1.5"),
    ([[2, Fraction(-3, 2)], [-1, 2]], "a[0][1] = Fraction(-3, 2)"),
    ([[2, "-1"], ["-1", 2]], "a[0][1] = '-1'"),
])
def test_non_integer_entries_are_not_gcm(a, where):
    # int() truncated these entries, or parsed the strings: each read as A2
    with pytest.raises(NotGCM, match=r"entry %s is not an integer" % re.escape(where)):
        validate(a)


def test_integral_fraction_entries_are_ints():
    c = validate([[2, Fraction(-2, 2)], [-1, Fraction(4, 2)]])
    assert c.typename == "A2" and c.a == ((2, -1), (-1, 2))
    assert {type(x) for row in c.a for x in row} == {int}


def test_not_symmetrizable():
    # cycle with inconsistent ratio product
    with pytest.raises(NotSymmetrizable):
        symmetrizer([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


def test_symmetrizer_values():
    assert symmetrizer(preset("A2").a) == (1, 1)
    assert symmetrizer(preset("C2").a) == (1, 2)
    assert symmetrizer(preset("A1~").a) == (1, 1)
    assert symmetrizer(preset("B3").a) == (2, 2, 1)
    assert symmetrizer(preset("G2").a) == (1, 3)
    assert symmetrizer(preset("F4").a) == (2, 2, 1, 1)


@pytest.mark.parametrize("name", preset_names(max_rank=6))
def test_validate_preset_roundtrip(name):
    c = preset(name)
    again = validate(c.a, labels=c.labels)
    assert again.kind == c.kind
    assert again.typename == c.typename
    assert again.d == c.d
    n = c.n
    assert all(
        c.d[i] * c.a[i][j] == c.d[j] * c.a[j][i] for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("name", [n for n in preset_names(max_rank=5) if not n.endswith("~")])
def test_finite_presets_positive_definite(name):
    c = preset(name)
    assert _det(c.a) > 0


@pytest.mark.parametrize("name", [n for n in preset_names(max_rank=5) if n.endswith("~")])
def test_affine_presets_null_vector(name):
    c = preset(name)
    assert _det(c.a) == 0
    basis = nullspace_basis(ExactMatrix.from_rows(c.a))
    assert len(basis) == 1
    v = basis[0]
    # strictly positive after normalizing the sign of the first entry (a
    # GaussianRational, not real, would not compare)
    assert sorted(v) == list(range(c.n))
    sign = 1 if v[0] > 0 else -1
    assert all(sign * x > 0 for x in v.values())


def test_affine_node_and_finite_part():
    c = preset("C2~")
    assert c.affine_node == 0
    fin = c.finite_part()
    assert fin.a == preset("C2").a
    assert fin.labels == (1, 2)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("H3")
    with pytest.raises(UnknownPreset):
        preset("D2")


# the pattern preset names were once parsed with, kept as the reference
OLD_PRESET_RE = re.compile(r"^([A-G])(\d+)(~?)$")


def _preset_name_variants():
    """Names from a letter, a rank and a tail, each also with a space, a
    newline or a "~" put in at every position and with padding around it."""
    letters = ["A", "C", "E", "G", "H", "a", "c", "", "AB", " A"]
    ranks = ["", "0", "1", "2", "٣", "01", "002", "0٣", "٢", "1_0", "+1", "2.0", "²"]
    tails = ["", "~", "~~", "~ ", " ~", "\n", "~\n", "x"]
    for letter, rank, tail in itertools.product(letters, ranks, tails):
        name = letter + rank + tail
        yield name
        yield " \t%s\n" % name
        for k in range(len(name) + 1):
            for piece in (" ", "\n", "~"):
                yield name[:k] + piece + name[k:]


def _parses(name):
    try:
        preset(name)
    except UnknownPreset as exc:
        return not str(exc).startswith("cannot parse")
    return True


def test_preset_parses_exactly_the_names_the_old_pattern_matched():
    names = set(_preset_name_variants())
    assert len(names) > 10000
    mismatched = [n for n in names if _parses(n) != bool(OLD_PRESET_RE.match(n.strip()))]
    assert mismatched == []


def test_parse_matrix_text():
    rows = parse_matrix_text("2 -1\n-1 2\n")
    assert rows == [[2, -1], [-1, 2]]
    with pytest.raises(ValueError):
        parse_matrix_text("\n")


def test_random_gcm_classification_consistency():
    # fuzz: random symmetrizable GCMs classify consistently with their
    # determinant data and, if finite, with a terminating root closure
    import random

    from onsagerkit.cartan import root_closure

    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 3)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    a[i][j] = -rng.randint(1, 3)
                    a[j][i] = -rng.randint(1, 3)
        try:
            c = validate(a)
        except NotSymmetrizable:
            continue
        if c.kind == FINITE:
            roots = [v for v in root_closure(c.a) if min(v) >= 0]
            assert 1 <= len(roots) < 250000
            assert _det(c.a) > 0
        elif c.kind == UNTWISTED_AFFINE:
            assert _det(c.a) == 0
            assert c.affine_node is not None
            fin = c.finite_part()
            assert fin.kind == FINITE


def _leibniz_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = (-1) ** inversions
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


SQUARE_INT_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(SQUARE_INT_MATRICES)
def test_det_matches_leibniz_expansion(a):
    assert _det(a) == _leibniz_det(a)


@settings(max_examples=300, deadline=None)
@given(SQUARE_INT_MATRICES)
def test_leading_minor_signs_match_determinants(a):
    # one elimination pass against the determinant of each leading submatrix
    want = all(_det(_submatrix(a, range(k + 1))) > 0 for k in range(len(a)))
    assert _leading_minors_positive(a) == want


def test_affine_precheck_rejects_extended_g2_plus_a1():
    # G2~ (+) A1: deleting node 3 leaves G2 (+) A1, and row/column 3 extend
    # its G2 part, so the node test alone would call this affine at node 3;
    # the test that every one-node deletion is finite rejects it, because
    # deleting node 2 leaves G2~
    assert validate([[2, -1, 0, -1], [-3, 2, 0, 0], [0, 0, 2, 0], [-1, 0, 0, 2]]).kind == OTHER


def _node_invariant(a, i):
    n = len(a)
    return tuple(sorted((a[i][j], a[j][i]) for j in range(n) if j != i and a[i][j] != 0))


def _perm_match(a, b):
    """A permutation sigma with a[sigma[i]][sigma[j]] == b[i][j], else None."""
    n = len(a)
    if len(b) != n:
        return None
    inv_a = [_node_invariant(a, i) for i in range(n)]
    inv_b = [_node_invariant(b, i) for i in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    sigma = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or inv_a[cand] != inv_b[i]:
                continue
            ok = True
            for j in range(i):
                if a[cand][sigma[j]] != b[i][j] or a[sigma[j]][cand] != b[j][i]:
                    ok = False
                    break
            if ok:
                sigma[i] = cand
                used[cand] = True
                if extend(i + 1):
                    return True
                used[cand] = False
        return False

    return tuple(sigma) if extend(0) else None


def _finite_candidates(n):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        if n >= lo:
            yield family, n
    if n in (6, 7, 8):
        yield "E", n
    if n == 4:
        yield "F", 4
    if n == 2:
        yield "G", 2


def _reference_name(a):
    """The type of a finite matrix by comparison with the preset matrices of
    its rank: an exact match first, so that B2 and C2 (isomorphic diagrams)
    keep their own names, then a search for a renumbering onto one."""
    a = tuple(tuple(row) for row in a)
    candidates = [("%s%d" % (family, r), tuple(map(tuple, _finite_preset_matrix(family, r))))
                  for family, r in _finite_candidates(len(a))]
    for name, cand in candidates:
        if a == cand:
            return name
    for name, cand in candidates:
        if _perm_match(a, cand) is not None:
            return name
    return None


def _renumbered(a, order):
    return tuple(tuple(a[i][j] for j in order) for i in order)


@pytest.mark.parametrize("name", preset_names(8))
def test_namer_matches_the_reference_under_renumbering(name):
    # the finite preset, or the finite part of the affine one, as given and
    # under 30 random renumberings
    c = preset(name)
    a = c.finite_part().a if c.kind == UNTWISTED_AFFINE else c.a
    rng = random.Random(name)
    orders = [list(range(len(a)))] + [rng.sample(range(len(a)), len(a)) for _ in range(30)]
    for order in orders:
        b = _renumbered(a, order)
        assert _match_finite_name(b) == _reference_name(b), (name, order)
        assert _match_finite_name(b) is not None


FINITE_UP_TO_5 = [n for n in preset_names(5) if not n.endswith("~")]


@pytest.mark.parametrize("first", FINITE_UP_TO_5)
def test_block_sums_have_no_name(first):
    # a direct sum of two finite presets, renumbered, is not one type
    rng = random.Random(first)
    x = preset(first).a
    for second in FINITE_UP_TO_5:
        y = preset(second).a
        a = [list(row) + [0] * len(y) for row in x] + [[0] * len(x) + list(row) for row in y]
        n = len(a)
        for order in [list(range(n))] + [rng.sample(range(n), n) for _ in range(3)]:
            b = _renumbered(a, order)
            assert _match_finite_name(b) is None
            assert _reference_name(b) is None


def _reference_classification(a):
    """(kind, typename, affine_node) by the rule that takes a determinant:
    untwisted affine iff det(a) == 0, every one-node deletion is finite and
    some node's deletion extends to a."""
    n = len(a)
    if _leading_minors_positive(a):
        return FINITE, _reference_name(a), None
    rest = [[i for i in range(n) if i != k] for k in range(n)]
    if _det(a) == 0 and all(_leading_minors_positive(_submatrix(a, keep)) for keep in rest):
        for node in range(n):
            sub = _submatrix(a, rest[node])
            try:
                extends = _submatrix(a, [node] + rest[node]) == _affine_extension(sub)
            except (ValueError, RuntimeError):
                extends = False
            if extends:
                name = _reference_name(sub)
                return UNTWISTED_AFFINE, (name + "~") if name else None, node
    return OTHER, None, None


# (a_ij, a_ji) of an edge: every finite and affine rank-2 block
EDGES = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1)]
SMALL_PRESETS = [name for name in preset_names(6) if preset(name).n <= 6]


@st.composite
def small_gcms(draw):
    """A GCM of rank <= 6: a preset or a diagonal of 2s, some of its zero
    pairs joined by random edges, renumbered, so that finite, affine and
    Other matrices all come up."""
    if draw(st.booleans()):
        a = [list(row) for row in preset(draw(st.sampled_from(SMALL_PRESETS))).a]
    else:
        n = draw(st.integers(1, 6))
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] == 0 and draw(st.integers(0, 3)) == 0:
                a[i][j], a[j][i] = draw(st.sampled_from(EDGES))
    order = draw(st.permutations(range(n)))
    return [[a[i][j] for j in order] for i in order]


@settings(max_examples=400, deadline=None)
@given(small_gcms())
def test_validate_matches_the_determinant_rule(a):
    try:
        c = validate(a)
    except NotSymmetrizable:
        return
    assert (c.kind, c.typename, c.affine_node) == _reference_classification(c.a)


# the node validate reports for each affine preset with its extra node moved to
# position 0, 1, ...: a diagram symmetry can make an earlier node match first
AFFINE_NODE = {
    "A1~": "00", "A2~": "000", "A3~": "0000", "A4~": "00000", "A5~": "000000", "A6~": "0000000",
    "A7~": "00000000", "A8~": "000000000", "B2~": "000", "B3~": "0000", "B4~": "00000",
    "B5~": "000000", "B6~": "0000000", "B7~": "00000000", "B8~": "000000000", "C1~": "00",
    "C2~": "011", "C3~": "0122", "C4~": "01233", "C5~": "012344", "C6~": "0123455",
    "C7~": "01234566", "C8~": "012345677", "D4~": "00000", "D5~": "000000", "D6~": "0000000",
    "D7~": "00000000", "D8~": "000000000", "G2~": "012", "F4~": "01234", "E6~": "0000000",
    "E7~": "01234566", "E8~": "012345678",
}
# typenames that differ from the preset name (C1 is A1; B2 and C2 share a diagram)
RENAMED = {("C1~", 0): "A1~", ("C1~", 1): "A1~", ("B2~", 2): "C2~"}


@pytest.mark.parametrize("name", [n for n in preset_names(8) if n.endswith("~")])
def test_affine_node_found_at_every_position(name):
    a = preset(name).a
    n = len(a)
    assert len(AFFINE_NODE[name]) == n
    for pos in range(n):
        order = list(range(1, n))
        order.insert(pos, 0)
        c = validate([[a[i][j] for j in order] for i in order])
        assert c.kind == UNTWISTED_AFFINE
        assert c.typename == RENAMED.get((name, pos), name)
        assert c.affine_node == int(AFFINE_NODE[name][pos])


# sha256 of repr([(name, rows), ...]) over the affine presets of
# preset_names(8), in that order: the extension rows read the highest root
AFFINE_ROWS_DIGEST = "b902de8585cf1d207675de1489d6033906eda4257b4a9a9acd1ffed1c1986f45"


def test_affine_preset_rows_digest():
    names = [n for n in preset_names(8) if n.endswith("~")]
    rows = repr([(n, preset(n).a) for n in names])
    assert hashlib.sha256(rows.encode()).hexdigest() == AFFINE_ROWS_DIGEST
