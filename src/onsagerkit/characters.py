"""One-dimensional representations of the fixed subalgebra.

A character kills every bracket, so its values on the fixed basis solve the
linear system chi([u, v]) = 0 over all basis pairs whose bracket stays inside
a height window.  The solution space has one free parameter per generator
whose Cartan column is even; for the symplectic types the solved functional
has closed-form values, reproduced here and cross-checked against the linear
solve.  The fixed basis, its default window, its bracket, which matrices
have a closed form and with which generator values all come from the
realization and its class, so nothing here branches on the kind of matrix.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .cartan import CartanMatrix, preset
from .chevalley import sp_structure_table
from .exact_math import BadInput, ExactMatrix, IncrementalSpan, add_into, nullspace_basis
from .loop import y_index
from .onsager import Realization, realization_class
from .roots import AffineRoot


class WindowTooSmall(BadInput):
    """Height window leaves some basis vector untouched by any constraint."""


class NotCType(ValueError):
    """A rank, root or imaginary slot outside the type-C closed form."""


def even_column_set(c: CartanMatrix):
    """Labels j with a_ij even for every i."""
    n = c.n
    out = []
    for j in range(n):
        if all(c.a[i][j] % 2 == 0 for i in range(n)):
            out.append(c.labels[j])
    return frozenset(out)


class CharacterSpace(namedtuple("CharacterSpace", "window keys basis generator_keys")):
    """Solution space of the abelianization constraints on a height window: its
    ordered keys, functionals {key: int or Fraction} and each generator label's key."""

    __slots__ = ()

    @property
    def dimension(self):
        return len(self.basis)


def character_space(rz: Realization, H: int) -> CharacterSpace:
    """Solve chi([u, v]) = 0 over all window pairs; return the solution basis.

    The solve runs on basis numbers and reports the space on basis keys.
    Each distinct in-window bracket row is offered once to one span, and
    only the rows that grew it, which span every row met, are solved.
    Bracketing stops at full rank, which loses nothing: the space is then
    {0}, and each window vector, a pivot, appears in a row met.  A window at
    or above the realization's top height holds the whole algebra, so the
    solve is exact; a window below a finite top raises WindowTooSmall.  A
    window of an infinite basis raises WindowTooSmall unless some in-window
    bracket lands in it and every basis vector of height <= H-1 appears in
    the expansion of one.
    """
    top = rz.top_height
    if top is not None and H < top:
        raise WindowTooSmall("window %d is below the top height %d of the basis" % (H, top))
    keyed = rz.basis(H)
    keys = [k for k, _ in keyed]
    nums = [rz.number(k) for k in keys]
    col = {n: j for j, n in enumerate(nums)}
    # many brackets repeat a row: the span sees each distinct one once
    seen = set()
    span = IncrementalSpan()
    rows = []
    for u, v in combinations(nums, 2):
        coords = rz.basis_bracket(u, v)
        if not coords or not coords.keys() <= col.keys():
            continue
        row = frozenset(coords.items())
        if row in seen:
            continue
        seen.add(row)
        if span.add({col[n]: c for n, c in coords.items()}):
            rows.append(coords)
            if span.rank == len(keys):
                break
    if top is None:
        if not rows:
            raise WindowTooSmall("no bracket of two basis vectors lands in window %d" % H)
        # every row met is a combination of these, so touches no vector they miss
        missing = {n for n, (_, h) in zip(nums, keyed) if h <= H - 1}.difference(*rows)
        if missing:
            raise WindowTooSmall(
                "window %d leaves %d basis vectors unconstrained, e.g. %s"
                % (H, len(missing), min((rz.index(n) for n in missing), key=str))
            )
    matrix = ExactMatrix(len(rows), len(keys), {
        (r, col[n]): c for r, row in enumerate(rows) for n, c in row.items()
    })
    basis = [{keys[j]: c for j, c in vec.items()} for vec in nullspace_basis(matrix)]
    return CharacterSpace(H, keys, basis, {lab: rz.index(n) for lab, n in rz.generators.items()})


def character_from_values(space: CharacterSpace, values: dict):
    """The unique functional in the solved space with the given generator
    values (scalars may be rational or Gaussian rational).

    Solves for the coefficients x_j over space.basis: one row per generator,
    with the value in column nb = len(space.basis).  A pivot at nb means no
    combination attains the values; free coefficients are 0.  A label
    outside the realization's raises ValueError.
    """
    nb = len(space.basis)
    span = IncrementalSpan()
    for lab in sorted(values):
        key = space.generator_keys.get(lab)
        if key is None:
            raise ValueError("generator label %r outside %r" % (lab, tuple(space.generator_keys)))
        row = {j: b[key] for j, b in enumerate(space.basis) if key in b}
        row[nb] = values[lab]
        span.add(row)
    rows = span.reduced_rows()
    if nb in rows:
        raise ValueError("generator values are not attained by any character")
    out = {}
    for j in sorted(rows):
        x = rows[j].get(nb)
        if x:
            add_into(out, space.basis[j], x)
    return out


# ---------------------------------------------------------------------------
# closed forms for the symplectic types
# ---------------------------------------------------------------------------

def chi_affine(r, s, t, gamma: AffineRoot, i=1):
    """Character normalized by chi(Y_0) = s, chi(Y_r) = t on the affine
    type-C fixed basis; at level 0 it is the finite type-C character
    normalized by chi(Y_r) = t.

    Long finite part alpha at even delta level: sign(alpha) * t; at odd
    level: -sign(alpha) * s; short finite parts and imaginary roots: 0.
    The finite part is read in eps coordinates (alpha_k = eps_k - eps_{k+1},
    alpha_r = 2 eps_r): a root is +-eps_k +- eps_l (k != l), long iff +-2 eps_k.
    """
    if r < 1:
        raise NotCType("type C has rank r >= 1, got %r" % (r,))
    if len(gamma.finite) != r:
        raise NotCType("root has rank %d, expected %d" % (len(gamma.finite), r))
    if gamma.is_imaginary:
        if gamma.level == 0:
            raise NotCType("zero is not a root")
        if not 1 <= i <= r:
            raise NotCType("imaginary slot %d outside 1..%d" % (i, r))
        return 0
    sums = (0, *gamma.finite[:-1], 2 * gamma.finite[-1])
    eps = [abs(b - a) for a, b in zip(sums, sums[1:]) if b != a]
    if sorted(eps) not in ([2], [1, 1]):
        raise NotCType("%r is not a type-C%d root" % (gamma.finite, r))
    if eps != [2]:
        return 0
    sign = 1 if all(c >= 0 for c in gamma.finite) else -1
    if gamma.level % 2 == 0:
        return sign * t
    return -1 * sign * s


def symplectic_closed_form(c: CartanMatrix):
    """(realization, generator values, closed form) for the preset C_r with
    r >= 2 and for C_r~, as the realization class's `symplectic_rank` finds
    them; None for any other finite or affine matrix.

    The realization is on the displayed symplectic table, the basis the
    closed form refers to.  The values (the class's SYMPLECTIC_VALUES
    chi(Y_0), chi(Y_r), and 0 on every other generator) are keyed by the
    preset's labels, which a --matrix-file with the same rows does not
    share (it is labelled 1..n).  A key is read as `loop.y_index` of its
    number: a finite key at level 0, where chi(Y_0) does not enter.
    """
    kind = realization_class(c)
    r = kind.symplectic_rank(c)
    if r is None:
        return None
    rz = kind(preset(kind.SYMPLECTIC % r), sp_structure_table(r))
    s, t = kind.SYMPLECTIC_VALUES
    values = {lab: {0: s, r: t}.get(lab, 0) for lab in rz.labels}
    return rz, values, lambda key: chi_affine(r, s, t, *y_index(rz.table, rz.number(key)))
