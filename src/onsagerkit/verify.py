"""Named verification checks for a given Cartan matrix.

Each check returns (name, passed, detail).  The CLI `verify` subcommand runs
the applicable ones and reports one PASS/FAIL line per check; failures name
the identity that broke.

The affine structure sweep brackets basis pairs only, but reports the count
of signed index pairs, (2 * |basis|)^2: both sides of each check are odd in
each argument, so one basis pair settles the four signed pairs it stands for.
Both sides run once per unordered basis pair; the other order is settled by
the antisymmetry of the table's bracket memo and the sign laws of N (see
`check_affine_structure_constants`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .cartan import CartanMatrix, preset
from .characters import character_space, even_column_set
from .chevalley import _key_str, _vadd, eta, sl_realization, sp_realization, sp_structure_table, table_for
from .exact_math import ExactMatrix, I, IdentityViolation
from .loop import NotExpandable, bracket_loop, onsager_basis, y_number, y_vector
from .onsager import FiniteRealization, Realization, filtration_dims, psi_eval, realization_for, relations


def thread_count():
    """Always 1: the checks run serially, in order.

    The work is GIL-bound pure Python, so a thread pool did not pay.  Kept
    only because the benchmark harness records this value for every case.
    """
    return 1


def check_relations_killed(c: CartanMatrix, rz: Realization):
    rels = relations(c)
    bad = [pair for pair, rel in rels.items() if psi_eval(rz, rel)]
    name = "inhomogeneous Serre relations evaluate to zero"
    if bad:
        return name, False, "nonzero image for generator pairs %s" % (bad,)
    return name, True, "%d relations" % len(rels)


def check_word_span(rz: Realization, jmax, height):
    """Two rows read off one span of evaluated words up to max(jmax, height):
    the graded dimensions up to jmax, and the total rank up to height."""
    rep = filtration_dims(rz, max(jmax, height))
    dims, expected = rep.dims[:jmax], rep.expected[:jmax]
    rank, want = sum(rep.dims[:height]), sum(rep.expected[:height])
    return [
        ("graded dimensions match root multiplicities (jmax=%d)" % jmax,
         dims == expected, "dims %s expected %s" % (dims, expected)),
        ("evaluated bracket words span every level up to height %d" % height,
         rank == want, "rank %d expected %d" % (rank, want)),
    ]


def check_character_dimension(c: CartanMatrix, rz: Realization, H):
    space = character_space(rz, H)
    expected = len(even_column_set(c))
    name = "character space dimension equals the even-column count"
    return (
        name,
        space.dimension == expected,
        "dim %d expected %d (window %d)" % (space.dimension, expected, H),
    )


def check_onsager_structure(bound=4):
    """[A_k,A_l] = G_{l-k}, [G_m,G_n] = 0, [G_m,A_k] = 2(A_{k+m} - A_{k-m})."""
    t = table_for(preset("A1"))
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            if bracket_loop(t, onsager_basis(k)[0], onsager_basis(l)[0]) != onsager_basis(l - k)[1]:
                return "classical A/G bracket table", False, "[A_%d,A_%d] != G_%d" % (k, l, l - k)
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            if not bracket_loop(t, onsager_basis(m)[1], onsager_basis(n)[1]).is_zero():
                return "classical A/G bracket table", False, "[G_%d,G_%d] != 0" % (m, n)
        for k in range(-bound, bound + 1):
            lhs = bracket_loop(t, onsager_basis(m)[1], onsager_basis(k)[0])
            rhs = 2 * onsager_basis(k + m)[0] - 2 * onsager_basis(k - m)[0]
            if lhs != rhs:
                return (
                    "classical A/G bracket table",
                    False,
                    "[G_%d,A_%d] != 2A_%d - 2A_%d" % (m, k, k + m, k - m),
                )
    return "classical A/G bracket table", True, "|k|,|l|,m,n <= %d" % bound


def _expected_y_bracket(t, u, v):
    """Closed-form bracket of the fixed vectors numbered u and v (see
    `loop`), over the fixed basis by number:

        [y_{a+l d}, y_{b+m d}] = N(a,b) y_{a+b+(l+m)d} - N(a,-b) y_{a-b+(l-m)d},
        [y_{a+l d}, y_{a+m d}] = sum_i k_i(a) y_{(m-l)d}^(i),  and (m+l) for b = -a,
        [y_{l d}^(i), y_{a+m d}] = a(h_i) (y_{a+(l+m)d} - y_{a+(m-l)d}).

    A key pair's terms come from `_closed_form_terms`, never the bracket
    memo, and fold with y_vector at the levels l + m and l - m.
    """
    l, a = divmod(u, t.dim)
    m, b = divmod(v, t.dim)
    out = {}
    for terms, level in zip(_closed_form_terms(t, a, b), (l + m, l - m)):
        for k, coeff in terms:
            for n, c in y_vector(t, k, level).items():
                out[n] = out.get(n, 0) + c * coeff
    return {n: c for n, c in out.items() if c} if 0 in out.values() else out


@lru_cache(maxsize=None)
def _closed_form_terms(t, a, b):
    """The terms (k, coeff) at level l + m and at level l - m of the key pair
    numbered a, b, from N and the root system, never the bracket memo; a term
    at m - l is one on p_k at l - m, since y_vector(k, -l) = -y_vector(p_k, l)."""
    # the keys numbered below the rank are h_1..h_r, and [h_i, h_j] = 0
    rs, partner, number = t.rs, t.partner, t.number
    (_, u), (_, v) = t.keys[a], t.keys[b]
    sums = diffs = ()
    if a < rs.rank <= b:
        p = rs.pairing(v, a)
        sums, diffs = [(b, p)], [(partner[b], p)]
    elif b < rs.rank <= a:
        p = rs.pairing(u, b)
        sums, diffs = [(a, -p)], [(a, p)]
    elif rs.rank <= a == b:
        diffs = [(i, -k) for i, k in enumerate(rs.coroot_coords(u))]
    elif rs.rank <= b == partner[a]:
        sums = enumerate(rs.coroot_coords(u))
    elif rs.rank <= min(a, b):
        w = t.keys[partner[b]][1]
        n, n_p = t.N.get((u, v)), t.N.get((u, w))
        sums = [(number["e", _vadd(u, v)], n)] if n else ()
        diffs = [(number["e", _vadd(u, w)], -n_p)] if n_p else ()
    return tuple((k, c) for k, c in sums if c), tuple((k, c) for k, c in diffs if c)


def check_affine_structure_constants(rz: Realization, level_bound=2):
    """Fixed-basis bracket expansions against their closed forms, with
    integrality of every coefficient, on every pair of the vectors
    y_{alpha+l delta} (alpha any root) and y_{l delta}^(i) (l != 0) with
    |l| <= level_bound.

    The sweep brackets only the basis vectors among them (level > 0, or
    level 0 and alpha > 0; y_{l delta}^(i) at l > 0): the others are their
    negatives, y_{-gamma} = -y_gamma and y_{-l delta}^(i) = -y_{l delta}^(i),
    and both sides are odd in each argument.  The loop terms of -u are the
    negated terms of u, so the kernel reads the same four memo entries under
    the same certificate (see `loop.k_bracket_expand`); the closed form is
    odd through N(-a,-b) = -N(a,b), which the table checks when it is built.
    So each basis pair stands for the four signed pairs it covers, and the
    count reported is that of the signed pairs, (2 * |basis|)^2.

    Both sides run once per unordered basis pair (v at or after u in the
    sweep's order).  Each is odd under swapping its arguments: the closed
    form through N(b,a) = -N(a,b) and N(-a,-b) = -N(a,b) (Carter, Simple
    groups of Lie type, 1972, ch. 4), the kernel when the memo is
    antisymmetric, since on (v, u) it reads only the transposed entries of
    (u, v).  So after the pairs, every key pair's memo entries are checked
    for that: entry(j, i) holds the negated terms and the same form as
    entry(i, j).  This settles the reverse order of every pair, and also
    covers the entries the sweep never reads.

    Each side does its per-key-pair work once, the kernel's certificate and
    the closed form's terms, and then folds each level pair with y_vector.

    Both sides read the realization's structure table: the expansion through
    its bracket memo, the closed form through N and its root system.  So this
    checks the closed form relative to the table.  A table that keeps its sign
    laws but is wrong (say, one sign orbit of N flipped) still passes here;
    only a check on the algebra's relations, such as the Serre-relation check,
    can catch it.  A corrupted memo entry fails here.
    """
    t = rz.table
    name = "fixed-basis bracket expansions match closed forms"
    levels = range(-level_bound, level_bound + 1)
    basis = [y_number(t, ("e", alpha), l) for alpha in sorted(t.rs._all) for l in levels
             if l > 0 or (l == 0 and min(alpha) >= 0)]
    basis += [y_number(t, ("h", i), l) for i in range(t.rs.rank) for l in levels if l > 0]
    for pos, idx1 in enumerate(basis):
        for idx2 in basis[pos:]:
            try:
                got = rz.basis_bracket(idx1, idx2)
            except NotExpandable as exc:
                return name, False, "[%s, %s] does not expand over the fixed basis: %s" % (
                    rz.index(idx1), rz.index(idx2), exc)
            for coeff in got.values():
                if type(coeff) is not int and coeff.denominator != 1:
                    return name, False, "non-integer coefficient in [%s, %s]" % (rz.index(idx1), rz.index(idx2))
            if got != _expected_y_bracket(t, idx1, idx2):
                return name, False, "[%s, %s] expansion differs" % (rz.index(idx1), rz.index(idx2))
    for i in range(t.dim):
        for j in range(i + 1, t.dim):
            terms, form = t.entry(i, j)
            back, back_form = t.entry(j, i)
            if dict(back) != {k: -c for k, c in terms} or back_form != form:
                ki, kj = _key_str(t.keys[i]), _key_str(t.keys[j])
                return name, False, "bracket memo entries [%s, %s] and [%s, %s] are not antisymmetric" % (
                    ki, kj, kj, ki)
    return name, True, "%d index pairs, levels |l| <= %d" % ((2 * len(basis)) ** 2, level_bound)


def verify_gl_presentation(r):
    """Check the C_r relations at the images K_j = eta(Y_j) in gl_r of the
    generators of the realization on the displayed C_r table, plus the
    expression of K_r through the center and the diagonal elements, as
    (name, ok) pairs.

    Each relation is `psi_eval` of its `serre_relation`, with generator j
    sent to K_j and the matrix commutator as the bracket.  [K_i, K_j] = 0
    and [K_j, K_i] = 0 say the same, so a pair with a_ij = 0 is checked for
    i < j only.
    """
    if r < 2:
        raise ValueError("the gl_r presentation needs r >= 2, got %r" % (r,))
    rz = FiniteRealization(preset("C%d" % r), sp_structure_table(r))
    c = rz.cartan
    K = {j: eta(r, rz.generator(j)) for j in c.labels}
    gl = SimpleNamespace(generator=lambda j: K[j].terms,
                         bracket=lambda x, y: ExactMatrix(r, r, x).commutator(ExactMatrix(r, r, y)).terms)
    checks = [("%r = 0" % rel, not psi_eval(gl, rel))
              for (i, j), rel in relations(c).items() if i < j or c.entry(i, j)]
    # K_r = (i/r)(Z - sum_j j * (E_jj - E_{j+1,j+1}))
    Z = ExactMatrix.identity(r)
    acc = ExactMatrix(r, r)
    for j in range(1, r):
        acc = acc + j * (ExactMatrix(r, r, {(j - 1, j - 1): 1}) - ExactMatrix(r, r, {(j, j): 1}))
    rhs = (I * Fraction(1, r)) * (Z - acc)
    checks.append(("K%d = (i/%d)(Z - sum j*diag_j)" % (r, r), K[r] == rhs))
    checks.append(("K%d = i*E_%d%d" % (r, r, r), K[r] == ExactMatrix(r, r, {(r - 1, r - 1): I})))
    return checks


def check_matrix_realization(rz: Realization):
    """The matrix realization rows that `rz.matrix_rows` names: sl for A_r,
    sp and gl_r for the preset C_r, at every rank.  Building the matrix
    realization checks it, once: the IdentityViolation it raises is the FAIL
    detail of every row that needs it."""
    r = rz.cartan.n
    gl = "gl_%d presentation through the fixed-subalgebra isomorphism" % r
    if rz.matrix_rows == "sp":
        sp = "symplectic realization matches its table and reconciles with the generic one"
        build, names = sp_realization, [gl, sp]
    elif rz.matrix_rows == "sl":
        build, names = sl_realization, ["special linear matrix realization is a bracket homomorphism"]
    else:
        return []
    try:
        build(r)
    except IdentityViolation as exc:
        return [(row, False, str(exc)) for row in names]
    rows = [(row, True, "rank %d" % r) for row in names]
    if names[0] == gl:
        try:
            checks = verify_gl_presentation(r)
        except IdentityViolation as exc:
            rows[0] = gl, False, str(exc)
        else:
            failures = [row for row, ok in checks if not ok]
            rows[0] = gl, not failures, str(failures) if failures else "all %d relation checks" % len(checks)
    return rows


def verification_suite(c: CartanMatrix, jmax=None, height=None):
    """All applicable checks for a matrix, as (name, passed, detail) rows;
    NotRealized unless the matrix is finite or untwisted affine."""
    try:
        rz = realization_for(c)
    except IdentityViolation as exc:
        # building the structure table or the realization broke an identity
        return [("structure table and realization build", False, str(exc))]
    jmax = jmax or rz.verify_jmax
    height = height or rz.verify_height or jmax
    rows = [check_relations_killed(c, rz)]
    rows += check_word_span(rz, jmax, height)
    if rz.checks_characters:
        rows.append(check_character_dimension(c, rz, rz.character_window))
    rows += check_matrix_realization(rz)
    if rz.sweeps:
        rows.append(check_affine_structure_constants(rz))
    if rz.onsager_table:
        rows.append(check_onsager_structure())
    return rows
