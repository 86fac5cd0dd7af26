"""The numbered fixed-basis bracket against the element-level reference.

`Realization.basis_bracket` brackets two fixed-basis vectors by number
through the table's numbered memo (`loop.k_bracket_expand`).  The reference
builds both vectors as loop or Chevalley elements, brackets them term by
term and reads the coordinates back with `y_coordinates` (the loop one, or
the finite one below).  The same reference checks psi on whole bracket
words.
"""

import ast
import random
from pathlib import Path

import pytest

import onsagerkit

from onsagerkit import loop
from onsagerkit.cartan import preset, preset_names
from onsagerkit.chevalley import _omega_key, build_chevalley
from onsagerkit.loop import (
    NotExpandable,
    YIndex,
    _four_entry_expand,
    bracket_loop,
    k_bracket_expand,
    y_affine,
    y_coordinates,
    y_index,
    y_number,
    y_vector,
)
from onsagerkit.onsager import FiniteRealization, all_bracket_words, psi_eval, realization_for
from onsagerkit.roots import AffineRoot
from test_onsager import element_generators
from test_verify import MUTATIONS


def finite_coordinates(x):
    """Coordinates of a fixed Chevalley element over y_alpha, alpha > 0;
    NotExpandable for any other element."""
    out = {}
    for key, c in x.terms.items():
        # omega sends key to -_omega_key(key), and fixes no Cartan term
        if x.terms.get(_omega_key(key)) != -c:
            raise NotExpandable("element is not involution-fixed")
        if all(v >= 0 for v in key[1]):
            out[key[1]] = c
    return out


def _by_key(rz, coords):
    return {rz.index(n): c for n, c in coords.items()}


def _sweep_indices(rz, bound=2):
    """y_{alpha + l delta} for every root alpha and y_{l delta}^(i), l != 0,
    with |l| <= bound."""
    rs = rz.table.rs
    out = [YIndex(AffineRoot(a, l)) for a in sorted(rs._all) for l in range(-bound, bound + 1)]
    out += [YIndex(AffineRoot((0,) * rs.rank, l), i)
            for i in range(1, rs.rank + 1) for l in range(-bound, bound + 1) if l]
    return out


def _check_affine_pairs(rz, pairs):
    t, rank = rz.table, rz.affine.rank
    for u, v in pairs:
        want = y_coordinates(bracket_loop(t, y_affine(u), y_affine(v)), rank)
        got = rz.basis_bracket(rz.number(u), rz.number(v))
        assert _by_key(rz, got) == want, (u, v)
        assert all(type(c) is int for c in got.values()), (u, v)


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~", "B3~", "C3~"])
def test_affine_kernel_matches_the_element_bracket_on_every_pair(name):
    rz = realization_for(preset(name))
    indices = _sweep_indices(rz)
    _check_affine_pairs(rz, [(u, v) for u in indices for v in indices])


@pytest.mark.parametrize("name", ["F4~", "E6~"])
def test_affine_kernel_matches_the_element_bracket_on_a_sample(name):
    rz = realization_for(preset(name))
    indices = _sweep_indices(rz)
    rng = random.Random(20261018)
    _check_affine_pairs(rz, [(rng.choice(indices), rng.choice(indices)) for _ in range(2000)])


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~", "B3~", "C3~", "D4~"])
def test_affine_kernel_is_height_graded(name):
    # [y_u, y_v] has terms only at heights h_u + h_v and |h_u - h_v|, and
    # one above the window H exactly when h_u + h_v > H and the table entry
    # of the two leading keys is nonzero
    rz = realization_for(preset(name))
    t, rs, hd = rz.table, rz.affine, rz.affine.delta_height
    for H in (hd + 1, 2 * hd + 1, 2 * hd + 2):
        window = [(rz.number(key), h) for key, h in rz.basis(H)]
        for pos, (u, hu) in enumerate(window):
            for v, hv in window[pos:]:
                heights = {rs.affine_height(rz.index(n).gamma) for n in rz.basis_bracket(u, v)}
                assert heights <= {hu + hv, abs(hu - hv)}, (H, rz.index(u), rz.index(v))
                leading = t.entry(u % t.dim, v % t.dim)[0]
                assert (max(heights, default=0) > H) == (hu + hv > H and bool(leading)), (H, u, v)


@pytest.mark.parametrize("name", ["G2", "C3", "F4"])
def test_finite_kernel_matches_the_element_bracket(name):
    rz = FiniteRealization(preset(name))
    t = rz.table
    for u in t.rs.positive_roots:
        for v in t.rs.positive_roots:
            want = finite_coordinates(t.bracket(t.y_basis(u), t.y_basis(v)))
            assert _by_key(rz, rz.basis_bracket(rz.number(u), rz.number(v))) == want, (u, v)


def test_finite_reference_rejects_unfixed_elements():
    t = FiniteRealization(preset("A2")).table
    assert finite_coordinates(t.y_basis((1, 1))) == {(1, 1): 1}
    for x in (t.h(0), t.e((1, 0)), t.e((-1, -1))):
        with pytest.raises(NotExpandable):
            finite_coordinates(x)


@pytest.mark.parametrize("name", ["A1~", "C2~", "G2~"])
def test_psi_matches_the_element_bracket_on_every_short_bracketing(name):
    # psi through the numbered kernel against bracket_loop over the element
    # generators, on every bracketing of every word up to length 5
    rz = realization_for(preset(name))
    t, rank = rz.table, rz.affine.rank
    gens = element_generators(rz)
    images = {}

    def element_psi(e):
        if e.is_leaf:
            return gens[e.label]
        key = str(e)
        if key not in images:
            images[key] = bracket_loop(t, element_psi(e.left), element_psi(e.right))
        return images[key]

    count = 0
    for j in range(1, 6):
        for e in all_bracket_words(rz.labels, j):
            want = y_coordinates(element_psi(e), rank)
            assert _by_key(rz, psi_eval(rz, e)) == want, str(e)
            count += 1
    assert count == sum(len(all_bracket_words(rz.labels, j)) for j in range(1, 6))


@pytest.mark.parametrize("name", preset_names(max_rank=4))
def test_numbering_round_trips_over_the_basis(name):
    c = preset(name)
    rz = realization_for(c)
    H = 2 * rz.affine.delta_height + 2 if name.endswith("~") else rz.table.rs.max_height
    keys = [k for k, _ in rz.basis(H)]
    nums = [rz.number(k) for k in keys]
    assert len(set(nums)) == len(nums)
    assert [rz.index(n) for n in nums] == keys
    # y_index reads a finite number as its root at level 0
    affine = keys if name.endswith("~") else [YIndex(AffineRoot(k, 0)) for k in keys]
    assert [y_index(rz.table, n) for n in nums] == affine


def test_kernel_rejects_a_non_fixed_input():
    # each NotExpandable branch, reached through one corrupted memo entry of
    # a fresh C2~ table (the shared table must stay exact)
    a, minus_a, b = ("e", (1, 0)), ("e", (-1, 0)), ("e", (0, 1))

    def corrupted(k1, k2, change):
        t = build_chevalley(preset("C2~").finite_part())
        i, j = t.number[k1], t.number[k2]
        t._memo[i * t.dim + j] = change(*t.entry(i, j))
        return t

    # [y_{a+d}, y_{a+d}] = 0: the central parts of [e_a[1], e_{-a}[-1]] and
    # [e_{-a}[-1], e_a[1]] cancel, unless the form (e_a, e_{-a}) is off
    t = corrupted(a, minus_a, lambda terms, form: (terms, 2 * form))
    y = y_number(t, a, 1)
    with pytest.raises(NotExpandable, match="central"):
        k_bracket_expand(t, y, y)
    # [y_a, y_{b+d}] without e_{a+b}[1] keeps its partner term e_{-a-b}[-1]
    t = corrupted(a, b, lambda terms, form: ((), form))
    with pytest.raises(NotExpandable, match="involution-fixed"):
        k_bracket_expand(t, y_number(t, a, 0), y_number(t, b, 1))
    # [y_a, y_a] = 0: the level-0 Cartan terms -h_a and +h_a cancel, unless
    # [e_a, e_{-a}] is off; h_a[0] is its own omega partner
    t = corrupted(a, minus_a, lambda terms, form: (tuple((k, 2 * c) for k, c in terms), form))
    y = y_number(t, a, 0)
    with pytest.raises(NotExpandable, match="involution-fixed"):
        k_bracket_expand(t, y, y)
    # the fixed vectors themselves expand
    t = build_chevalley(preset("C2~").finite_part())
    assert k_bracket_expand(t, y_number(t, a, 0), y_number(t, b, 1))


def _outcome(expand, t, u, v):
    """What expand returns for the pair, or the message it raises."""
    try:
        return expand(t, u, v)
    except NotExpandable as exc:
        return "NotExpandable: %s" % exc


def _signed_numbers(t, bound):
    """Every root at the levels |l| <= bound and every h_i at the levels
    0 < |l| <= bound, by number: the signed fixed vectors."""
    rank = t.rs.rank
    return [l * t.dim + k for l in range(-bound, bound + 1) for k in range(t.dim) if l or k >= rank]


@pytest.mark.parametrize("name, bound", [("A1~", 3), ("A2~", 3), ("C2~", 3), ("G2~", 3), ("B3~", 3),
                                         ("C3~", 3), ("D4~", 3), ("F4~", 3), ("G2", 0), ("B3", 0),
                                         ("E6", 0)])
def test_kernel_matches_the_four_entry_computation_on_every_pair(name, bound, monkeypatch):
    # on a fresh table every key pair passes its certificate, so the
    # four-entry computation never runs inside the kernel
    c = preset(name)
    t = build_chevalley(c.finite_part() if name.endswith("~") else c)
    full = _four_entry_expand
    nums = _signed_numbers(t, bound)

    def refused(t, u, v):
        raise AssertionError("pair (%d, %d) failed its certificate" % (u, v))

    monkeypatch.setattr(loop, "_four_entry_expand", refused)
    for u in nums:
        for v in nums:
            assert k_bracket_expand(t, u, v) == full(t, u, v), (u, v)


def test_kernel_follows_every_memo_mutation():
    # each MUTATIONS change of each C2~ memo slot, made after every pair was
    # bracketed, so that the certificates of the true entries exist: every
    # signed pair whose key pair reads the slot returns or raises what the
    # four-entry computation does, and expands again once the slot is back
    t = build_chevalley(preset("C2"))
    nums = _signed_numbers(t, 3)
    readers = {}
    for u in nums:
        for v in nums:
            k_bracket_expand(t, u, v)
            readers.setdefault((u % t.dim, v % t.dim), []).append((u, v))
    assert None not in t._memo
    outcomes = {"raised": 0, "returned": 0}
    for n, true in enumerate(t._memo):
        i, j = divmod(n, t.dim)
        pi, pj = t.partner[i], t.partner[j]
        pairs = [p for keys in {(i, j), (i, pj), (pi, j), (pi, pj)} for p in readers[keys]]
        for mutation, change in MUTATIONS.items():
            wrong = change(*true)
            if wrong == true:
                continue
            t._memo[n] = wrong
            try:
                for u, v in pairs:
                    got = _outcome(k_bracket_expand, t, u, v)
                    assert got == _outcome(_four_entry_expand, t, u, v), (t.keys[i], t.keys[j], mutation, u, v)
                    outcomes["raised" if isinstance(got, str) else "returned"] += 1
            finally:
                t._memo[n] = true
            for u, v in pairs:
                assert k_bracket_expand(t, u, v) == _four_entry_expand(t, u, v), (u, v)
    assert outcomes["raised"] and outcomes["returned"], outcomes


def test_a_replaced_memo_slot_voids_the_certificate():
    # [y_a, y_{b+d}] on C2~ with a = a1, b = a1 + a2 reads four memo slots,
    # each with one term; a negated slot breaks the omega-equivariance the
    # certificate holds, even after the pair was certified
    t = build_chevalley(preset("C2"))
    a, b = ("e", (1, 0)), ("e", (1, 1))
    u, v = y_number(t, a, 0), y_number(t, b, 1)
    want = k_bracket_expand(t, u, v)
    assert want == _four_entry_expand(t, u, v) != {}
    ku, kv = t.number[a], t.number[b]
    pu, pv = t.partner[ku], t.partner[kv]
    for i, j in ((ku, kv), (ku, pv), (pu, kv), (pu, pv)):
        n = i * t.dim + j
        true = t._memo[n]
        t._memo[n] = MUTATIONS["negated terms"](*true)
        assert t._memo[n] != true
        with pytest.raises(NotExpandable) as full:
            _four_entry_expand(t, u, v)
        with pytest.raises(NotExpandable, match="involution-fixed") as caught:
            k_bracket_expand(t, u, v)
        assert str(caught.value) == str(full.value)
        t._memo[n] = true
        assert k_bracket_expand(t, u, v) == want


def test_each_key_pair_is_certified_once(monkeypatch):
    # one certificate covers the key pairs (k_u or p_u, k_v or p_v), which
    # read the same four entries: C3 has 3 Cartan keys and 9 partner pairs
    # of root keys, so its 441 key pairs fall into 9 * 9 + 2 * 3 * 9 + 3 * 3
    # = 144 classes, and a pass over every signed pair certifies each once;
    # a second pass certifies none
    t = build_chevalley(preset("C3"))
    nums = _signed_numbers(t, 2)
    certified = []
    certify = loop._certify
    monkeypatch.setattr(loop, "_certify", lambda t, ku, kv: certified.append((ku, kv)) or certify(t, ku, kv))
    first = [k_bracket_expand(t, u, v) for u in nums for v in nums]
    assert len(certified) == len(set(certified)) == 144
    certified.clear()
    assert [k_bracket_expand(t, u, v) for u in nums for v in nums] == first
    assert certified == []


def test_a_certified_pair_drops_cancelled_terms():
    # an omega-equivariant memo whose [e_a, e_b] holds e_{a+b} and e_{-a-b}
    # passes the certificate; at level 0 the two terms fold onto y_{a+b}
    # and cancel, and the four-entry computation leaves no term either
    t = build_chevalley(preset("C2"))
    a, b = t.number[("e", (1, 0))], t.number[("e", (0, 1))]
    k = t.number[("e", (1, 1))]
    t._memo[a * t.dim + b] = ((k, 1), (t.partner[k], 1)), 0
    t._memo[t.partner[a] * t.dim + t.partner[b]] = ((t.partner[k], -1), (k, -1)), 0
    assert k_bracket_expand(t, a, b) == _four_entry_expand(t, a, b) == {}


@pytest.mark.parametrize("name", ["A1~", "C2~", "G2~"])
def test_y_vector_matches_the_loop_element(name):
    # the sign helper against y_coordinates of the element-built vector, on
    # every key and level |l| <= 2, both signs of every root
    rz = realization_for(preset(name))
    t = rz.table
    zero = (0,) * rz.affine.rank
    for kind, v in t.keys:
        for level in range(-2, 3):
            if kind == "h":
                idx = YIndex(AffineRoot(zero, level), v + 1)
            else:
                idx = YIndex(AffineRoot(v, level))
            got = {rz.index(n): c for n, c in y_vector(t, t.number[(kind, v)], level).items()}
            assert got == y_coordinates(y_affine(idx), rz.affine.rank), idx
            # y_index reads the number of any key at any level, either sign
            assert y_index(t, t.number[(kind, v)] + level * t.dim) == idx


# the loop element algebra is the tests' reference; the library's checks, its
# realizations and the CLI never go through it: every element of the fixed
# subalgebra they touch is a realization's {basis number: coeff} vector.  The
# classical A/G row alone still brackets Onsager's A_m and G_m as loop
# elements, and only it may import them.
ELEMENT_NAMES = {"bracket_loop", "LoopElement", "onsager_basis", "y_affine", "y_coordinates", "omega_tilde",
                 "loop_form", "e_at", "h_at"}
# nor do the checks and the CLI write a finite fixed element as a ChevElement
CHEV_NAMES = {"ChevElement", "y_basis", "y_any", "omega"}
GUARDED = {"verify.py": ELEMENT_NAMES | CHEV_NAMES, "cli.py": ELEMENT_NAMES | CHEV_NAMES,
           "characters.py": ELEMENT_NAMES, "onsager.py": ELEMENT_NAMES}
ELEMENT_ROWS = {"verify.py": {"check_onsager_structure"}}


def _names(node):
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.alias):
            named.add(sub.name)
    return named


@pytest.mark.parametrize("module", sorted(GUARDED))
def test_no_loop_elements_in_the_checks(module):
    tree = ast.parse((Path(onsagerkit.__file__).parent / module).read_text())
    row_names = ELEMENT_ROWS.get(module, set())
    rows = [node for node in tree.body if getattr(node, "name", None) in row_names]
    assert len(rows) == len(row_names)
    allowed = set().union(*map(_names, rows)) & ELEMENT_NAMES
    for node in tree.body:
        named = _names(node) & GUARDED[module]
        if node in rows:
            named -= ELEMENT_NAMES
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named -= allowed
        assert not named, "%s line %d names %s" % (module, node.lineno, sorted(named))
