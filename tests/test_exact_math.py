import operator
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsagerkit.cartan import NotGCM, validate
from onsagerkit.exact_math import (
    BadInput,
    ExactMatrix,
    GaussianRational,
    I,
    IncrementalSpan,
    SparseElement,
    add_into,
    add_term,
    bilinear,
    exact_int,
    nullspace_basis,
    rank,
    signed_sum,
    span_rank,
)
from onsagerkit.chevalley import ChevElement
from onsagerkit.freelie import BracketExpr, FreeLieElement
from onsagerkit.loop import LoopElement
from onsagerkit.serre_coeffs import c0_closed_form, coeff_table


def test_gaussian_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * (1 / a) == GaussianRational(1)
    assert I * I == GaussianRational(-1)
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_rational


def test_gaussian_coercion_and_hash():
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert hash(GaussianRational(5)) == hash(Fraction(5))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_rational_axioms_random():
    rng = random.Random(11)

    def rand():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 20))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        # normalization is idempotent and canonical
        assert Fraction(a.numerator, a.denominator) == a
        assert a.denominator > 0


def test_rank_examples():
    assert rank(ExactMatrix.identity(2)) == 2
    assert rank(ExactMatrix(3, 4)) == 0
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_nullspace_examples():
    assert nullspace_basis(ExactMatrix.identity(2)) == []
    basis = nullspace_basis(ExactMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    # (1, -1) up to scale
    assert v[0] * GaussianRational(-1) == v[1]
    assert len(nullspace_basis(ExactMatrix.from_rows([[0, 0]]))) == 2


def test_span_rank_examples():
    assert span_rank([(1, 0), (0, 1)]) == 2
    assert span_rank([(1, 1), (2, 2)]) == 1
    assert span_rank([]) == 0


# integer, rational and Gaussian-rational entries: real matrices are
# eliminated over Q, the others over Q(i)
ENTRY_KINDS = [
    lambda rng: rng.randint(-3, 3),
    lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) + rng.randint(-2, 2) * I,
]


def test_rank_transpose_and_nullity_random():
    rng = random.Random(5)
    for entry in [kind for kind in ENTRY_KINDS for _ in range(40)]:
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(
            rows,
            cols,
            {
                (i, j): entry(rng)
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.6
            },
        )
        r = rank(m)
        assert r == rank(m.transpose())
        basis = nullspace_basis(m)
        assert r + len(basis) == cols
        # kernel vectors really are killed, and are sparse over the columns
        for v in basis:
            assert set(v) <= set(range(cols))
            assert all(type(x) in (int, Fraction, GaussianRational) and x for x in v.values())
            col = ExactMatrix(cols, 1, {(j, 0): x for j, x in v.items()})
            assert (m @ col).is_zero()


def test_matrix_algebra():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ ExactMatrix.identity(2) == a
    assert (a + b) - b == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert a.commutator(a).is_zero()
    assert (Fraction(1, 2) * a).entry(0, 1) == 1


@pytest.mark.parametrize("index", [(0.5, 1), (1, Fraction(1)), ("0", 0), (True, 0)])
def test_a_matrix_index_that_is_not_an_int_is_refused_when_built(index):
    with pytest.raises(TypeError, match="is not a pair of ints"):
        ExactMatrix(2, 2, {index: 1})


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_integer_input(flag):
    # bool is an int subclass, so an unguarded gate reads True as 1 and False
    # as 0: leaf(True) would print B1 and coeff_table(False, 2) give a = 0
    assert exact_int(flag) is None
    for build in (BracketExpr.leaf, FreeLieElement.generator):
        with pytest.raises(BadInput, match="generator label %r is not an integer" % flag):
            build(flag)
    for call in (lambda: coeff_table(flag, 2), lambda: coeff_table(-1, flag),
                 lambda: c0_closed_form(flag, 2), lambda: c0_closed_form(-1, flag)):
        with pytest.raises(BadInput, match="need integers a and r"):
            call()
    with pytest.raises(NotGCM, match=r"entry a\[0\]\[1\] = %r is not an integer" % flag):
        validate([[2, flag], [flag, 2]])


@pytest.mark.parametrize("index", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_a_matrix_index_out_of_range_is_refused_when_built(index):
    with pytest.raises(IndexError, match="outside 2x2 matrix"):
        ExactMatrix(2, 2, {index: 1})


def test_incremental_span_agrees_with_batch():
    rng = random.Random(7)
    vecs = []
    for _ in range(12):
        vecs.append({j: rng.randint(-2, 2) for j in range(4) if rng.random() < 0.7})
    span = IncrementalSpan()
    for v in vecs:
        span.add(v)
    assert span.rank == span_rank(vecs)


def test_incremental_span_chained_pivots():
    # regression: eliminating one pivot introduces a key with its own pivot
    span = IncrementalSpan()
    span.add({1: 1, 2: 1})
    span.add({2: 1, 3: 1})
    assert not span.add({1: 1, 3: -1})  # = first - second, via chained pivots
    assert span.rank == 2
    assert span.add({1: 1})
    assert span.rank == 3


def test_add_into_drops_cancelled_keys_in_place():
    acc = {"a": Fraction(1, 2), "b": 3}
    out = add_into(acc, {"a": Fraction(-1, 4), "b": 1, "c": I}, scale=-2)
    assert out is acc
    assert acc == {"a": Fraction(1), "b": 1, "c": -2 * I}
    add_into(acc, {"a": 1, "b": -1})
    assert acc == {"a": Fraction(2), "c": -2 * I}
    add_term(acc, "c", 2 * I)
    add_term(acc, "d", 0)
    assert acc == {"a": 2}


def test_reduced_rows_clear_other_pivots():
    span = IncrementalSpan()
    for v in ({0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}, {2: 5, 3: 1}):
        span.add({k: Fraction(c) for k, c in v.items()})
    rows = span.reduced_rows()
    assert sorted(rows) == [0, 1, 2]
    for p, row in rows.items():
        assert row[p] == 1
        assert all(q == p or q not in row for q in rows)
    # the span still reduces against the cleared rows
    assert not span.add({0: 1, 1: 2, 2: 3})


def test_integer_vectors_are_eliminated_exactly():
    # with float division the second row left a rounding residue: rank 2
    assert span_rank([[11, 11, 9], [77, 77, 63]]) == 1
    span = IncrementalSpan()
    span.add({0: 3, 1: 1})
    assert span.reduced_rows()[0][1] == Fraction(1, 3)


def test_floats_are_rejected():
    # float elimination left rank 2 here, although the exact rank is 1
    with pytest.raises(TypeError):
        span_rank([[0.1, 0.3], [0.3, 0.9]])
    span = IncrementalSpan()
    with pytest.raises(TypeError):
        span.add({0: 0.1, 1: 0.2})
    assert span.rank == 0
    span.add({0: 1})
    with pytest.raises(TypeError):
        span.reduce({0: 2, 1: 0.5})
    with pytest.raises(TypeError):
        span.add({1: 0.0})  # even a zero float
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[1, 0.5]])


def test_matrix_entries_are_narrowed_once():
    m = ExactMatrix.from_rows([[GaussianRational(3), Fraction(4, 2)], [Fraction(1, 2), 2 + I]])
    assert m.terms == {(0, 0): 3, (0, 1): 2, (1, 0): Fraction(1, 2), (1, 1): 2 + I}
    assert [type(m.terms[k]) for k in sorted(m.terms)] == [int, int, Fraction, GaussianRational]
    # entry() reads every entry, stored or not, as a GaussianRational
    assert all(type(m.entry(i, j)) is GaussianRational for i in range(2) for j in range(2))
    assert m.entry(0, 1) == GaussianRational(2) and not ExactMatrix(1, 1).entry(0, 0)
    # int and Gaussian inputs give equal matrices, and arithmetic narrows too
    g = ExactMatrix.from_rows([[GaussianRational(1), GaussianRational(2)], [GaussianRational(0), I]])
    a = ExactMatrix.from_rows([[1, 2], [0, I]])
    assert g == a
    assert type((a @ a).terms[(0, 0)]) is int
    assert ((I * a) * (-I)).terms == a.terms
    assert type(((I * a) * (-I)).terms[(0, 1)]) is int
    assert a.row_dicts() == [{0: 1, 1: 2}, {1: I}]


class _PivotOneSpan:
    """The pivot-1 eliminator the fraction-free one must agree with: every
    basis row is divided by its pivot entry."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        v = {k: c for k, c in vec.items() if c}
        while True:
            hits = [k for k in v if k in self.rows]
            if not hits:
                return v
            key = min(hits)
            add_into(v, self.rows[key], -v[key])

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot]
        if isinstance(inv, int):
            inv = Fraction(inv)
        self.rows[pivot] = {k: c / inv for k, c in v.items()}
        return True

    def reduced_rows(self):
        rows = self.rows
        for p in sorted(rows, reverse=True):
            for q, other in rows.items():
                if q < p and p in other:
                    add_into(other, rows[p], -other[p])
        return rows


_SMALL = st.integers(-3, 3)
_SCALARS = {
    "int": _SMALL,
    "fraction": st.builds(Fraction, _SMALL, st.integers(1, 4)),
    "gaussian": st.builds(lambda re, im: re + im * I, st.builds(Fraction, _SMALL, st.integers(1, 3)), _SMALL),
}
_SCALARS["mixed"] = st.one_of(*_SCALARS.values())


def _rows_of(scalar):
    return st.lists(st.dictionaries(st.integers(0, 6), scalar, max_size=5), min_size=1, max_size=10)


def _gauss(x):
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SCALARS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _rows_of(_SCALARS[kind]), _rows_of(_SCALARS[kind]))))
def test_fraction_free_span_matches_pivot_one_elimination(case):
    kind, vecs, probes = case
    span, ref = IncrementalSpan(), _PivotOneSpan()
    for v in vecs:
        assert span.add(v) == ref.add(v)
    assert span.rank == len(ref.rows)
    assert sorted(span._pivot_rows) == sorted(ref.rows)
    if kind == "int":
        # int rows are stored primitive, with a positive pivot
        for p, row in span._pivot_rows.items():
            assert all(type(c) is int for c in row.values())
            assert row[p] > 0 and gcd(*row.values()) == 1
    for probe in probes:
        before = dict(probe)
        got, want = span.reduce(probe), ref.reduce(probe)
        assert probe == before
        # a positive multiple of the pivot-1 residue, all int for int input
        assert sorted(got) == sorted(want)
        ratios = {_gauss(got[k]) / _gauss(want[k]) for k in got}
        assert len(ratios) <= 1 and all(r.is_rational and r.re > 0 for r in ratios)
        if kind == "int":
            assert all(type(c) is int for c in got.values())
    stored = {p: dict(row) for p, row in span._pivot_rows.items()}
    assert span.reduced_rows() == ref.reduced_rows()
    assert span._pivot_rows == stored  # reduced_rows leaves the basis as it was


def test_sparse_element_drops_cancelled_keys():
    x = SparseElement({"a": 1, "b": Fraction(-1, 2), "c": 0})
    assert x.terms == {"a": 1, "b": Fraction(-1, 2)}
    # coefficients stay exact: an int or a Fraction, never a float
    assert all(type(c) in (int, Fraction) for c in x.terms.values())
    assert type(x.terms["a"]) is int and type((3 * x).terms["a"]) is int
    with pytest.raises(TypeError):
        0.5 * x
    assert (x - x).terms == {}
    assert (0 * x).terms == {} and (x * 0).is_zero()
    y = SparseElement({"b": Fraction(1, 2), "d": 3})
    assert (x + y).terms == {"a": 1, "d": 3}
    assert -x + x == SparseElement()
    assert 2 * x == x + x


def test_elements_of_different_kinds_are_unequal():
    assert (ChevElement() == LoopElement()) is False
    assert ChevElement() != LoopElement()
    assert ChevElement({("h", 0): 1}) != SparseElement({("h", 0): 1})


# one coefficient c on one valid key of each kind; the span adds {0: c}
_HOLDERS = {
    "ChevElement": lambda c: ChevElement({("h", 0): c}),
    "LoopElement": lambda c: LoopElement({"c": c}),
    "FreeLieElement": lambda c: FreeLieElement({(1,): c}),
    "ExactMatrix": lambda c: ExactMatrix(1, 1, {(0, 0): c}),
    "IncrementalSpan.add": lambda c: IncrementalSpan().add({0: c}),
}


# c as the real or the imaginary part of a Gaussian rational
_PARTS = {
    "GaussianRational re": lambda c: GaussianRational(c),
    "GaussianRational im": lambda c: GaussianRational(0, c),
}


@pytest.mark.parametrize("bad", [0.5, 0.0, "1/2", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("kind", sorted(_HOLDERS) + sorted(_PARTS))
def test_inexact_scalars_are_a_type_error_everywhere(kind, bad):
    make = _HOLDERS.get(kind) or _PARTS[kind]
    with pytest.raises(TypeError):
        make(bad)
    if kind != "IncrementalSpan.add":
        x = make(1)
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x * bad


# each scalar with the type it is stored as: an int when integral, a
# GaussianRational only when not real
@pytest.mark.parametrize("c, stored_type", [
    (3, int), (Fraction(1, 2), Fraction), (Fraction(4, 2), int), (GaussianRational(3), int),
    (2 + I, GaussianRational)], ids=["int", "Fraction", "integral Fraction", "real Gaussian", "Gaussian"])
@pytest.mark.parametrize("kind", sorted(_HOLDERS))
def test_exact_scalars_are_admitted_everywhere(kind, c, stored_type):
    x = _HOLDERS[kind](c)
    if kind == "IncrementalSpan.add":
        assert x is True
        return
    (stored,) = x.terms.values()
    assert stored == c and type(stored) is stored_type
    assert c * _HOLDERS[kind](1) == x == _HOLDERS[kind](1) * c


# each element kind with one coefficient c on one key, and the key's text
_PRINTED = {
    "ChevElement": (lambda c: ChevElement({("e", (1, 1)): c}), "e(a1+a2)"),
    "LoopElement": (lambda c: LoopElement({(("h", 0), -2): c}), "h1[-2]"),
    "FreeLieElement": (lambda c: FreeLieElement({(1, 1, 2): c}), "(1.1.2)"),
}


@pytest.mark.parametrize("c, printed", [
    (1, "{}"), (-3, "-3*{}"), (Fraction(-1, 2), "-1/2*{}"), (GaussianRational(-1), "-{}"),
    (2 - I, "(2-1*i)*{}"), (I, "(1*i)*{}"), (0, "0")],
    ids=["int", "negative int", "Fraction", "real Gaussian", "Gaussian", "i", "no terms"])
@pytest.mark.parametrize("kind", sorted(_PRINTED))
def test_every_element_prints_as_a_signed_sum(kind, c, printed):
    make, text = _PRINTED[kind]
    x = make(c)
    assert str(x) == repr(x) == printed.format(text)


def test_a_sum_of_terms_prints_in_key_order():
    chev = ChevElement({("e", (1, 1)): 1, ("h", 1): -1, ("e", (0, 1)): Fraction(1, 2), ("h", 0): I})
    assert str(chev) == "(1*i)*h1-h2+1/2*e(a2)+e(a1+a2)"
    loop = LoopElement({(("e", (1, 0)), 1): 2, (("h", 0), -1): -1, "d": 1, "c": 1 - I})
    assert str(loop) == "-h1[-1]+2*e(a1)[1]+(1-1*i)*c+d"
    free = FreeLieElement({(1, 2): -1, (1,): I, (1, 1, 2): 3})
    assert str(free) == "(1*i)*(1)-(1.2)+3*(1.1.2)"
    assert signed_sum([]) == "0"
    with pytest.raises(TypeError):
        signed_sum([(0.5, "x")])


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_elements_of_different_kinds_do_not_add(op):
    chev, loop = ChevElement({("h", 0): 1}), LoopElement({"c": 1})
    for x, y in ((chev, loop), (loop, chev), (chev, SparseElement({("h", 0): 1}))):
        with pytest.raises(TypeError):
            op(x, y)


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_matrix_operands_keep_their_errors(op):
    with pytest.raises(ValueError, match="shape mismatch"):
        op(ExactMatrix.identity(2), ExactMatrix.identity(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        op(ExactMatrix(2, 3), ExactMatrix(3, 2))
    for other in (1, ChevElement({("h", 0): 1})):
        with pytest.raises(TypeError):
            op(ExactMatrix.identity(1), other)
    assert ExactMatrix(2, 3) != ExactMatrix(3, 2)


def test_bilinear_skips_empty_pairs():
    def pair(k1, k2):
        if k1 == k2:
            return None  # None and {} both mean a zero bracket
        if k1 > k2:
            return {}
        return {k1 + k2: 1}

    x = {"a": Fraction(2), "b": Fraction(3)}
    y = {"a": Fraction(5), "b": Fraction(7), "c": Fraction(1, 2)}
    assert bilinear(pair, x, y) == {"ab": 14, "ac": 1, "bc": Fraction(3, 2)}
    assert bilinear(pair, x, {"a": 1}) == {}
