"""Verification checks can fail, and say where: the fixed-basis structure
sweep and the matrix-realization rows."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import onsagerkit
from onsagerkit import chevalley, cli, verify
from onsagerkit.cartan import preset
from onsagerkit.characters import character_space
from onsagerkit.chevalley import MatrixRealization, StructureTable, build_chevalley, sp_structure_table
from onsagerkit.exact_math import IdentityViolation
from onsagerkit import onsager
from onsagerkit.loop import NotExpandable, YIndex, y_number
from onsagerkit.onsager import AffineRealization, FiniteRealization, realization_for
from onsagerkit.roots import AffineRoot, RootSystem, height
from onsagerkit.verify import _expected_y_bracket, check_affine_structure_constants, check_relations_killed

# [y(a2+d), y(a1)] = +-y(a1+a2+d) on C2~: one term, coefficient +-1.  The
# sweep visits the pair in this order only, since (0, 1) sorts before (1, 0)
PAIR = (YIndex(AffineRoot((0, 1), 1)), YIndex(AffineRoot((1, 0), 0)))


def _corrupted(change):
    """A C2~ realization whose basis_bracket applies change at PAIR only."""
    rz = realization_for(preset("C2~"))
    exact = rz.basis_bracket

    def basis_bracket(u, v):
        got = exact(u, v)
        return change(got) if (rz.index(u), rz.index(v)) == PAIR else got

    rz.basis_bracket = basis_bracket
    return rz


def _one_order_corrupted(change):
    """A C2~ realization on a fresh table whose memo entry for (h2, e_a1)
    is changed, while (e_a1, h2) is not.  The sweep visits each basis pair
    in one order, y(e_a1 + l delta) before y(l delta)^(2), so its kernel
    reads only the untouched transposed entry; the reverse visit alone read
    the changed one."""
    t = build_chevalley(preset("C2"))
    i, j = t.number[("h", 1)], t.number[("e", (1, 0))]
    t._memo[i * t.dim + j] = change(*t.entry(i, j))
    return AffineRealization(preset("C2~"), t)


# the FAIL detail of a one-order memo corruption of (h2, e_a1)
ONE_ORDER = "bracket memo entries [h2, e(a1)] and [e(a1), h2] are not antisymmetric"


def test_sweep_names_a_negated_pair():
    rz = _one_order_corrupted(lambda terms, form: (tuple((k, -c) for k, c in terms), form))
    _, ok, detail = check_affine_structure_constants(rz)
    assert not ok
    assert detail == ONE_ORDER


def test_sweep_reports_a_halved_coefficient():
    def halve(terms, form):
        (key, c), = terms
        assert c % 2
        return ((key, Fraction(c, 2)),), form

    _, ok, detail = check_affine_structure_constants(_one_order_corrupted(halve))
    assert not ok
    assert detail == ONE_ORDER


def test_sweep_names_a_pair_negated_at_its_first_visit():
    # the kernel's expansion negated at the pair's one visit differs from
    # the closed form there
    rz = _corrupted(lambda got: {k: -c for k, c in got.items()})
    _, ok, detail = check_affine_structure_constants(rz)
    assert not ok
    assert detail == "[%s, %s] expansion differs" % PAIR


def _neg(a):
    return tuple(-c for c in a)


def test_sweep_builds_no_index_objects(monkeypatch):
    # the sweep brackets by number; a YIndex is built only for a FAIL message
    rz = realization_for(preset("C3~"))
    made = []
    new = YIndex.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(YIndex, "__new__", counted)
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    assert made == []
    # the counter sees the index a FAIL message builds
    rz.index(rz.number(YIndex(AffineRoot((1, 0, 0), 1))))
    assert len(made) == 2


def _memo_corrupted(with_omega_image):
    """A C2~ realization on a fresh table whose memo entry for
    (e_a1, e_a2) holds -N[a1, a2]; with_omega_image also negates the entry
    for (e_{-a1}, e_{-a2}), so every bracket stays involution-fixed."""
    t = build_chevalley(preset("C2"))
    a, b = (1, 0), (0, 1)
    pairs = [(a, b), (_neg(a), _neg(b))] if with_omega_image else [(a, b)]
    for x, y in pairs:
        i, j = t.number[("e", x)], t.number[("e", y)]
        (k, n), = t.entry(i, j)[0]
        t._memo[i * t.dim + j] = (((k, -n),), 0)
    return AffineRealization(preset("C2~"), t)


# the first sweep pair that reads the corrupted entries: the sweep runs
# over the basis vectors, the roots in sorted order at levels 0..2 (level 0
# for positive roots only); y(-a1+d) = e_{-a1}[1] - e_{a1}[-1]
FIRST_READER = "[%s, %s]" % (YIndex(AffineRoot((-1, 0), 1)), YIndex(AffineRoot((0, -1), 1)))


def test_sweep_fails_on_a_corrupted_memo_entry():
    _, ok, detail = check_affine_structure_constants(_memo_corrupted(False))
    assert not ok
    assert detail == FIRST_READER + " does not expand over the fixed basis: element is not involution-fixed"


def test_sweep_and_brackets_see_a_consistently_corrupted_memo_entry():
    rz, true = _memo_corrupted(True), realization_for(preset("C2~"))
    _, ok, detail = check_affine_structure_constants(rz)
    assert not ok
    assert detail == FIRST_READER + " expansion differs"
    # the structconst expansions over its default window differ; the
    # character solve does not see a sign (it kills y_w either way)
    nums = [true.number(k) for k, _ in true.basis(rz.affine.delta_height + 1)]
    assert any(rz.basis_bracket(u, v) != true.basis_bracket(u, v) for u in nums for v in nums)
    H = 2 * rz.affine.delta_height + 2
    assert character_space(rz, H).basis == character_space(true, H).basis


@pytest.mark.parametrize("name", ["C2~", "G2~", "A2~"])
def test_flipped_sign_orbit_passes_the_sweep_and_fails_serre(name):
    # both sides of the sweep read N, so a table that keeps its sign laws but
    # has one sign orbit flipped passes it; the Serre relations catch it
    c = preset(name)
    t0 = build_chevalley(c.finite_part())
    n = dict(t0.N)
    a, b = min(n)
    for pair in ((a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))):
        n[pair] = -n[pair]
    rz = AffineRealization(c, StructureTable(t0.rs, n))
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    _, ok, detail = check_relations_killed(c, rz)
    assert not ok
    assert detail.startswith("nonzero image for generator pairs")


# ---------------------------------------------------------------------------
# the sweep over basis pairs against the sweep over every signed index
# ---------------------------------------------------------------------------

def _signed_indices(t, bound=2):
    """y_{alpha+l delta} for every root alpha and y_{l delta}^(i), l != 0,
    |l| <= bound, by number: each basis vector once as +y and once as -y."""
    levels = range(-bound, bound + 1)
    out = [y_number(t, ("e", a), l) for a in sorted(t.rs._all) for l in levels]
    out += [y_number(t, ("h", i), l) for i in range(t.rs.rank) for l in levels if l]
    return out


def signed_sweep(rz):
    """The reference sweep: the three checks of the row on every ordered
    pair of signed indices, so on each basis pair four times.  Returns
    (passed, pairs)."""
    t = rz.table
    indices = _signed_indices(t)
    for u in indices:
        for v in indices:
            try:
                got = rz.basis_bracket(u, v)
            except NotExpandable:
                return False, len(indices) ** 2
            if any(type(c) is not int and c.denominator != 1 for c in got.values()):
                return False, len(indices) ** 2
            if got != _expected_y_bracket(t, u, v):
                return False, len(indices) ** 2
    return True, len(indices) ** 2


def _negated(t, n):
    """The number of -y for the signed index n: y_{-gamma} = -y_gamma."""
    level, k = divmod(n, t.dim)
    return y_number(t, t.keys[t.partner[k]], -level)


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~", "B3~", "C3~"])
def test_both_sides_are_odd_in_each_argument(name):
    # the row brackets basis pairs only; over every signed pair, negating an
    # argument negates both the closed form and the kernel's expansion
    rz = realization_for(preset(name))
    t = rz.table
    indices = _signed_indices(t)
    assert sorted(indices) == sorted(_negated(t, n) for n in indices)
    for f in (lambda u, v: _expected_y_bracket(t, u, v), rz.basis_bracket):
        for u in indices:
            for v in indices:
                minus = {k: -c for k, c in f(u, v).items()}
                assert f(_negated(t, u), v) == minus, (rz.index(u), rz.index(v))
                assert f(u, _negated(t, v)) == minus, (rz.index(u), rz.index(v))


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~", "B3~", "C3~"])
def test_sweep_counts_the_signed_pairs(name):
    rz = realization_for(preset(name))
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    assert signed_sweep(rz) == (True, int(detail.split()[0]))


def test_the_closed_form_reads_no_memo_entry(monkeypatch):
    # on a fresh table, the closed form of every signed pair comes out with
    # the memo unreadable, and equals the kernel's expansion
    t = build_chevalley(preset("C3"))
    rz = AffineRealization(preset("C3~"), t)
    indices = _signed_indices(t)

    def unreadable(self, i, j):
        raise RuntimeError("memo entry (%d, %d) read" % (i, j))

    monkeypatch.setattr(StructureTable, "entry", unreadable)
    closed = {(u, v): _expected_y_bracket(t, u, v) for u in indices for v in indices}
    assert t._memo == [None] * (t.dim * t.dim)
    monkeypatch.undo()
    assert len(closed) == 102 ** 2
    for (u, v), want in closed.items():
        assert rz.basis_bracket(u, v) == want, (rz.index(u), rz.index(v))


def test_sweep_evaluates_the_closed_form_once_per_unordered_pair(monkeypatch):
    rz = realization_for(preset("C3~"))
    kernel_calls, closed_calls = [], []
    kernel, closed = onsager.k_bracket_expand, verify._expected_y_bracket
    monkeypatch.setattr(onsager, "k_bracket_expand",
                        lambda t, x, y: kernel_calls.append(1) or kernel(t, x, y))
    monkeypatch.setattr(verify, "_expected_y_bracket",
                        lambda t, u, v: closed_calls.append(1) or closed(t, u, v))
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    assert len(kernel_calls) == len(closed_calls) == 51 * 52 // 2 == 1326


@pytest.mark.parametrize("name, level_bound, dim", [("C3~", 2, 21), ("F4~", 1, 52), ("E6~", 1, 78)],
                         ids=["C3~", "F4~", "E6~"])
def test_the_closed_form_works_out_each_key_pair_once(monkeypatch, name, level_bound, dim):
    # one sweep on a fresh table builds the closed-form terms of each key
    # pair it meets once, so at most t.dim ** 2 times; a second sweep builds
    # none, at any rank (F4~ meets 1,378 key pairs, E6~ 3,081)
    t = build_chevalley(preset(name).finite_part())
    rz = AffineRealization(preset(name), t)
    met = set()
    kernel = onsager.k_bracket_expand
    monkeypatch.setattr(onsager, "k_bracket_expand",
                        lambda t, u, v: met.add((u % t.dim, v % t.dim)) or kernel(t, u, v))
    verify._closed_form_terms.cache_clear()
    for sweep in range(2):
        _, ok, detail = check_affine_structure_constants(rz, level_bound)
        assert ok, detail
        assert verify._closed_form_terms.cache_info().misses == len(met) <= t.dim ** 2 == dim ** 2


@pytest.mark.parametrize("name", ["A2~", "C3~"])
def test_both_sides_bracket_a_zero_vector_to_zero(name):
    # the number of h_i at level 0 is y_{0 delta}^(i) = 0: on each side its
    # terms at l + m and at l - m fold onto the same vectors and cancel
    rz = realization_for(preset(name))
    t = rz.table
    for i in range(t.rs.rank):
        for v in _signed_indices(t):
            for f in (lambda u, v: _expected_y_bracket(t, u, v), rz.basis_bracket):
                assert f(i, v) == f(v, i) == {}, (i, rz.index(v))


MUTATIONS = {
    "negated terms": lambda terms, form: (tuple((k, -c) for k, c in terms), form),
    "doubled terms": lambda terms, form: (tuple((k, 2 * c) for k, c in terms), form),
    "negated form": lambda terms, form: (terms, -form),
}

# memo mutations the sweep catches, per type: of one entry, and of an entry
# together with its omega image
CAUGHT = {"A1~": (14, 6), "A2~": (92, 42), "C2~": (122, 56), "G2~": (238, 112)}


@pytest.mark.parametrize("paired", [False, True], ids=["entry", "omega pair"])
@pytest.mark.parametrize("name", sorted(CAUGHT))
def test_the_same_memo_mutations_fail(name, paired):
    # every memo mutation that changes what it touches: the row fails
    # whenever the signed-index reference fails.  A mutation of one entry
    # breaks the involution, which the kernel sees, or the antisymmetry of
    # the memo; one applied alike to [x, y] and [omega x, omega y] keeps
    # every bracket fixed, so only the closed form or the antisymmetry check
    # can see it.  The row also fails on the negated form of an off-diagonal
    # (h_i, h_j) entry, which the reference passes (two per type of rank 2)
    t = build_chevalley(preset(name).finite_part())
    rz = AffineRealization(preset(name), t)
    for i in range(t.dim):
        for j in range(t.dim):
            t.entry(i, j)
    caught = 0
    for n in range(len(t._memo)):
        i, j = divmod(n, t.dim)
        slots = {n, t.partner[i] * t.dim + t.partner[j]} if paired else {n}
        if min(slots) != n or len(slots) < 1 + paired:
            continue
        true = {s: t._memo[s] for s in slots}
        for mutation, change in MUTATIONS.items():
            wrong = {s: change(*entry) for s, entry in true.items()}
            if wrong == true:
                continue
            for s in slots:
                t._memo[s] = wrong[s]
            try:
                ok = check_affine_structure_constants(rz)[1]
                assert not ok or signed_sweep(rz)[0], (t.keys[i], t.keys[j], mutation)
            finally:
                for s in slots:
                    t._memo[s] = true[s]
            caught += not ok
    assert caught == CAUGHT[name][paired]
    assert check_affine_structure_constants(rz)[1]


@pytest.mark.parametrize("name", ["A2~", "C2~", "G2~"])
def test_a_negated_off_diagonal_cartan_form_fails_the_row(name):
    # (h_i, h_j) enters the kernel only through the central coefficient of
    # y_{l delta}^(i) against y_{m delta}^(j), where its two terms cancel, so
    # the signed reference cannot see its sign; the antisymmetry check can
    t = build_chevalley(preset(name).finite_part())
    rz = AffineRealization(preset(name), t)
    for i, j in ((0, 1), (1, 0)):
        n = i * t.dim + j
        terms, form = true = t.entry(i, j)
        assert terms == () and form
        t._memo[n] = terms, -form
        try:
            assert signed_sweep(rz)[0]
            _, ok, detail = check_affine_structure_constants(rz)
            assert not ok
            assert detail == "bracket memo entries [h1, h2] and [h2, h1] are not antisymmetric"
        finally:
            t._memo[n] = true


# single memo-entry mutations that change a level-0 basis-pair bracket
FINITE_CAUGHT = {"G2": 144, "B3": 276}


@pytest.mark.parametrize("name", sorted(FINITE_CAUGHT))
def test_the_finite_row_fails_on_every_mutation_it_can_see(name):
    # the level-0 slice of the sweep is the finite structure-constant row;
    # every single memo mutation that changes the bracket of some pair of
    # finite basis vectors y_alpha (alpha > 0) fails it
    c = preset(name)
    t = build_chevalley(c)
    rz = FiniteRealization(c, t)
    nums = [rz.number(a) for a in t.rs.positive_roots]

    def brackets():
        out = []
        for u in nums:
            for v in nums:
                try:
                    out.append(rz.basis_bracket(u, v))
                except NotExpandable:
                    out.append(None)
        return out

    true_brackets = brackets()
    for i in range(t.dim):
        for j in range(t.dim):
            t.entry(i, j)
    caught = 0
    for n, true in enumerate(t._memo):
        for mutation, change in MUTATIONS.items():
            wrong = change(*true)
            if wrong == true:
                continue
            t._memo[n] = wrong
            try:
                if brackets() != true_brackets:
                    ok = check_affine_structure_constants(rz, 0)[1]
                    assert not ok, (t.keys[n // t.dim], t.keys[n % t.dim], mutation)
                    caught += 1
            finally:
                t._memo[n] = true
    assert caught == FINITE_CAUGHT[name]
    assert check_affine_structure_constants(rz, 0) == (
        "fixed-basis bracket expansions match closed forms", True,
        "%d index pairs, levels |l| <= 0" % (2 * len(nums)) ** 2)


def test_sweep_calls_the_kernel_once_per_basis_pair(monkeypatch):
    rz = realization_for(preset("C3~"))
    calls = []
    kernel = onsager.k_bracket_expand

    def counted(t, x, y):
        calls.append(1)
        return kernel(t, x, y)

    monkeypatch.setattr(onsager, "k_bracket_expand", counted)
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    assert len(calls) == 51 * 52 // 2 == 1326
    assert detail.startswith("%d index pairs" % (2 * 51) ** 2)
    calls.clear()
    assert signed_sweep(rz) == (True, 10404)
    assert len(calls) == 10404


# ---------------------------------------------------------------------------
# matrix-realization rows
# ---------------------------------------------------------------------------

# full verify output of the matrix rows that bench/golden.json does not cover
MATRIX_PINS = {
    "verify --preset C2": [0, (
        "PASS  inhomogeneous Serre relations evaluate to zero (2 relations)\n"
        "PASS  graded dimensions match root multiplicities (jmax=3) (dims [2, 1, 1] expected [2, 1, 1])\n"
        "PASS  evaluated bracket words span every level up to height 3 (rank 4 expected 4)\n"
        "PASS  character space dimension equals the even-column count (dim 1 expected 1 (window 3))\n"
        "PASS  gl_2 presentation through the fixed-subalgebra isomorphism (all 4 relation checks)\n"
        "PASS  symplectic realization matches its table and reconciles with the generic one (rank 2)\n"
    )],
    "verify --preset C4": [0, (
        "PASS  inhomogeneous Serre relations evaluate to zero (12 relations)\n"
        "PASS  graded dimensions match root multiplicities (jmax=7) (dims [4, 3, 3, 2, 2, 1, 1] expected [4, 3, 3, 2, 2, 1, 1])\n"
        "PASS  evaluated bracket words span every level up to height 7 (rank 16 expected 16)\n"
        "PASS  character space dimension equals the even-column count (dim 1 expected 1 (window 7))\n"
        "PASS  gl_4 presentation through the fixed-subalgebra isomorphism (all 11 relation checks)\n"
        "PASS  symplectic realization matches its table and reconciles with the generic one (rank 4)\n"
    )],
    "verify --preset A3": [0, (
        "PASS  inhomogeneous Serre relations evaluate to zero (6 relations)\n"
        "PASS  graded dimensions match root multiplicities (jmax=3) (dims [3, 2, 1] expected [3, 2, 1])\n"
        "PASS  evaluated bracket words span every level up to height 3 (rank 6 expected 6)\n"
        "PASS  character space dimension equals the even-column count (dim 0 expected 0 (window 3))\n"
        "PASS  special linear matrix realization is a bracket homomorphism (rank 3)\n"
    )],
    "verify --preset A4": [0, (
        "PASS  inhomogeneous Serre relations evaluate to zero (12 relations)\n"
        "PASS  graded dimensions match root multiplicities (jmax=4) (dims [4, 3, 2, 1] expected [4, 3, 2, 1])\n"
        "PASS  evaluated bracket words span every level up to height 4 (rank 10 expected 10)\n"
        "PASS  character space dimension equals the even-column count (dim 0 expected 0 (window 4))\n"
        "PASS  special linear matrix realization is a bracket homomorphism (rank 4)\n"
    )],
}

_TRUE_SIGNS = chevalley._read_signs
_TRUE_TABLE = chevalley.table_for


def _flipped_signs(generic, images):
    """The true sign vector with s_gamma = s_{-gamma} negated for the first
    positive root of height 2; the twisted table keeps its sign laws."""
    signs = dict(_TRUE_SIGNS(generic, images))
    gamma = next(a for a in generic.rs.positive_roots if height(a) == 2)
    signs[gamma] = signs[_neg(gamma)] = -signs[gamma]
    return signs


def _flipped_orbit_table(c):
    """The matrix's table with the sign orbit of its first N pair flipped."""
    t = _TRUE_TABLE(c)
    n = dict(t.N)
    a, b = min(n)
    for pair in ((a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))):
        n[pair] = -n[pair]
    return StructureTable(t.rs, n)


# case -> (the chevalley name replaced, its replacement, the rows that must FAIL)
MUTATED = {
    "verify --preset C3": ("_read_signs", _flipped_signs, ["gl_3 presentation", "symplectic realization"]),
    "verify --preset A3": ("table_for", _flipped_orbit_table, ["special linear matrix realization"]),
    "verify --preset C5": ("_read_signs", _flipped_signs, ["gl_5 presentation", "symplectic realization"]),
    "verify --preset A5": ("table_for", _flipped_orbit_table, ["special linear matrix realization"]),
}


_TRUE_ETA = verify.eta


def _doubled_k1(r, x):
    """eta with K_1, the image of the first simple fixed generator, doubled."""
    k = _TRUE_ETA(r, x)
    return 2 * k if x == FiniteRealization(preset("C%d" % r), sp_structure_table(r)).generator(1) else k


# with K_1 doubled only the (1, 2) relation [K1,[K1,K2]] = -K2 breaks: the
# (2, 1) and (1, 3) relations are linear in K_1, and the rest do not hold it
DOUBLED_K1 = [1, ["FAIL  gl_3 presentation through the fixed-subalgebra isomorphism (['(2)+(1.1.2) = 0'])"]]


def _clear_matrix_caches():
    for f in (chevalley._display, chevalley.sp_realization):
        f.cache_clear()


def _clear_all_tables():
    chevalley._TABLES.clear()
    _clear_matrix_caches()


def _run(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case.split())
    return [code, out.getvalue()]


@contextlib.contextmanager
def _replaced(attr, fake):
    true = getattr(chevalley, attr)
    _clear_matrix_caches()
    setattr(chevalley, attr, fake)
    try:
        yield
    finally:
        setattr(chevalley, attr, true)
        _clear_matrix_caches()


def matrix_cases():
    """[exit code, stdout] of each pinned case, then of each mutated case."""
    got = {case: _run(case) for case in MATRIX_PINS}
    for case, (attr, fake, _) in MUTATED.items():
        with _replaced(attr, fake):
            got["mutated " + case] = _run(case)
    with mock.patch.object(verify, "eta", _doubled_k1):
        got["doubled K1"] = _run("verify --preset C3")
    return got


def _check_matrix_cases(got):
    assert {case: got[case] for case in MATRIX_PINS} == MATRIX_PINS
    for case, (_, _, failing) in MUTATED.items():
        code, out = got["mutated " + case]
        assert code == 1, out
        fails = [line for line in out.splitlines() if not line.startswith("PASS  ")]
        assert len(fails) == len(failing), out
        for line, name in zip(fails, failing):
            assert line.startswith("FAIL  " + name), line
            assert "(bracket of images differs from image of bracket at [(" in line, line
    code, out = got["doubled K1"]
    assert [code, [line for line in out.splitlines() if not line.startswith("PASS  ")]] == DOUBLED_K1, out


def test_matrix_rows():
    _check_matrix_cases(matrix_cases())


def test_matrix_rows_under_optimize():
    # the realization check is an explicit raise and the gl_r row compares
    # without assert, so python -O still fails
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_verify\n"
        "print(json.dumps(test_verify.matrix_cases()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_matrix_cases(json.loads(proc.stdout))


def test_flipped_sign_keeps_the_sign_laws_and_fails_the_realization():
    true_n = chevalley.sp_structure_table(3).N
    with _replaced("_read_signs", _flipped_signs):
        t = chevalley.sp_structure_table(3)  # StructureTable checks the sign laws
        assert t.N != true_n
        with pytest.raises(IdentityViolation, match="bracket of images differs"):
            chevalley.sp_realization(3)
        with pytest.raises(IdentityViolation, match="bracket of images differs"):
            chevalley.eta(3, {t.number["e", (1, 0, 0)]: 1})


@pytest.mark.parametrize("case", ["verify --preset C3", "verify --preset A3",
                                  "mutated verify --preset C3", "mutated verify --preset A3"])
def test_each_matrix_realization_is_scanned_once(case, monkeypatch):
    # a failing realization is not scanned again by the next row that needs it
    scans = []
    scan = MatrixRealization.homomorphism_failures

    def counted(self):
        scans.append(self.dim)
        return scan(self)

    monkeypatch.setattr(MatrixRealization, "homomorphism_failures", counted)
    mutated = case.startswith("mutated ")
    case = case.replace("mutated ", "")
    with _replaced(*MUTATED[case][:2]) if mutated else contextlib.nullcontext():
        _clear_matrix_caches()
        try:
            assert _run(case)[0] == (1 if mutated else 0)
        finally:
            _clear_matrix_caches()
    assert len(scans) == 1


@pytest.mark.parametrize("case", ["verify --preset C3", "verify --preset A3"])
def test_one_table_per_matrix(case, monkeypatch):
    # the realization and the matrix rows share the table of the matrix
    builds = []
    build = chevalley.build_chevalley
    monkeypatch.setattr(chevalley, "build_chevalley", lambda c: builds.append(c.a) or build(c))
    _clear_all_tables()
    try:
        assert _run(case)[0] == 0
    finally:
        _clear_all_tables()
    assert len(builds) == 1


def test_every_chevalley_cache_is_hit_by_verify_c3():
    # a cache that verify --preset C3 never hits is not worth keeping
    caches = {name: f for name, f in vars(chevalley).items() if hasattr(f, "cache_info")}
    assert {"_display", "sp_realization"} <= set(caches)
    _clear_all_tables()
    for f in caches.values():
        f.cache_clear()
    try:
        assert _run("verify --preset C3")[0] == 0
        assert {name: f.cache_info().hits > 0 for name, f in caches.items()} == dict.fromkeys(caches, True)
    finally:
        _clear_all_tables()


@pytest.mark.parametrize("blocks", [("A1", "A1"), ("A3", "C2"), ("C2", "A3"), ("A5", "G2"), ("G2", "A5")])
def test_decomposable_finite_matrices_pass_in_either_order(blocks, tmp_path):
    x, y = (preset(b).a for b in blocks)
    rows = [list(r) + [0] * len(y) for r in x] + [[0] * len(x) + list(r) for r in y]
    path = tmp_path / "matrix.txt"
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--matrix-file", str(path)])
    lines = out.getvalue().splitlines()
    assert code == 0 and len(lines) == 4, out.getvalue()
    assert all(line.startswith("PASS  ") for line in lines), out.getvalue()


def test_explicit_tables_are_not_cached():
    t = build_chevalley(preset("C2"))
    assert AffineRealization(preset("C2~"), t).table is t
    assert chevalley.table_for(preset("C2")) is not t


# ---------------------------------------------------------------------------
# a structure table that cannot be built
# ---------------------------------------------------------------------------

def corrupted_build_case():
    """[exit code, stdout] of verify --preset C3 with (a3, a3) doubled, so
    build_chevalley derives N[(0,1,1), (1,1,0)] = -3, against the magnitude
    rule's 2."""
    norm2 = RootSystem.norm2

    def doubled(self, alpha):
        return 2 * norm2(self, alpha) if alpha == (0, 0, 1) else norm2(self, alpha)

    _clear_all_tables()
    RootSystem.norm2 = doubled
    try:
        return _run("verify --preset C3")
    finally:
        RootSystem.norm2 = norm2
        _clear_all_tables()


CORRUPTED_BUILD = [1, "FAIL  structure table and realization build "
                      "(magnitude rule fails at (0, 1, 1), (1, 1, 0) (N = -3))\n"]


def test_a_table_that_cannot_be_built_is_one_fail_row():
    assert corrupted_build_case() == CORRUPTED_BUILD


def test_a_table_that_cannot_be_built_fails_under_optimize():
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_verify\n"
        "print(json.dumps(test_verify.corrupted_build_case()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == CORRUPTED_BUILD
