"""One-dimensional representations of the fixed subalgebra.

A character kills every bracket, so its values on the fixed basis solve the
linear system chi([u, v]) = 0 over all basis pairs whose bracket stays inside
a height window.  The solution space has one free parameter per generator
whose Cartan column is even; for the symplectic types the solved functional
has closed-form values, reproduced here and cross-checked against the linear
solve.  The fixed basis, its window and its bracket come from the
realization, so the solve does not branch on the kind of matrix.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .cartan import CartanMatrix, preset
from .chevalley import sp_structure_table
from .exact_math import BadInput, ExactMatrix, IdentityViolation, IncrementalSpan, add_into, nullspace_basis
from .onsager import AffineRealization, FiniteRealization, Realization
from .roots import AffineRoot, RootSystem


class WindowTooSmall(BadInput):
    """Height window leaves some basis vector untouched by any constraint."""


class NotCType(ValueError):
    pass


class NotCAffine(ValueError):
    pass


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
    ordered keys, functionals {key: Fraction} and each generator label's key."""

    __slots__ = ()

    @property
    def dimension(self):
        return len(self.basis)


def character_space(rz: Realization, H: int) -> CharacterSpace:
    """Solve chi([u, v]) = 0 over all window pairs; return the solution basis.

    The solve runs on basis numbers, one row per distinct in-window
    bracket; the space is reported on basis keys.  A window at or above the
    realization's top height holds the whole algebra, so the solve is exact;
    a window below a finite top raises WindowTooSmall.  A window of an
    infinite basis raises WindowTooSmall unless some in-window bracket lands
    in it and every basis vector of height <= H-1 appears in the expansion
    of one.
    """
    top = rz.top_height
    if top is not None and H < top:
        raise WindowTooSmall("window %d is below the top height %d of the basis" % (H, top))
    keyed = rz.basis(H)
    keys = [k for k, _ in keyed]
    nums = [rz.number(k) for k in keys]
    col = {n: j for j, n in enumerate(nums)}
    # the distinct rows, in the order first met: many brackets repeat a row
    rows = {}
    touched = set()
    for u, v in combinations(nums, 2):
        coords = rz.basis_bracket(u, v)
        if not coords:
            continue
        if any(n not in col for n in coords):
            continue
        touched.update(coords)
        rows.setdefault(tuple(sorted((col[n], c) for n, c in coords.items())))
    if top is None:
        if not rows:
            raise WindowTooSmall("no bracket of two basis vectors lands in window %d" % H)
        missing = {n for n, (_, h) in zip(nums, keyed) if h <= H - 1} - touched
        if missing:
            raise WindowTooSmall(
                "window %d leaves %d basis vectors unconstrained, e.g. %s"
                % (H, len(missing), min((rz.index(n) for n in missing), key=str))
            )
    matrix = ExactMatrix(len(rows), len(keys), {
        (r, j): c for r, row in enumerate(rows) for j, c in row
    })
    basis = []
    for vec in nullspace_basis(matrix):
        func = {}
        for j, k in enumerate(keys):
            if vec[j]:
                if not vec[j].is_rational:
                    raise IdentityViolation("non-real character value at %s" % (k,))
                func[k] = vec[j].re
        basis.append(func)
    return CharacterSpace(H, keys, basis, {lab: rz.index(n) for lab, n in rz.generators.items()})


class Character(namedtuple("Character", "values functional")):
    """A one-dimensional representation, determined by its values on the
    generators (necessarily zero off the even-column set): values maps
    generator labels, functional fixed-basis keys, to scalars."""

    __slots__ = ()

    def __call__(self, key):
        return self.functional.get(key, 0)


def solve_character(rz: Realization, H: int, values: dict) -> Character:
    """The character with the given generator values, from the window solve."""
    allowed = even_column_set(rz.cartan)
    for label, val in values.items():
        if val and label not in allowed:
            raise ValueError(
                "generator %r is outside the even-column set %s; its value must be 0"
                % (label, sorted(allowed))
            )
    space = character_space(rz, H)
    func = character_from_values(space, values)
    return Character(dict(values), func)


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

@lru_cache(maxsize=None)
def _c_rootsystem(r):
    return RootSystem(preset("C%d" % r))


def chi_finite(r, t, alpha):
    """Character normalized by chi(Y_r) = t on the type-C fixed basis:
    t on long positive roots, 0 on short ones."""
    rs = _c_rootsystem(r)
    alpha = tuple(alpha)
    if len(alpha) != r or not rs.is_positive(alpha):
        raise NotCType("%r is not a positive type-C%d root" % (alpha, r))
    return t if rs.is_long(alpha) else 0


def chi_affine(r, s, t, gamma: AffineRoot, i=1):
    """Character normalized by chi(Y_0) = s, chi(Y_r) = t on the affine
    type-C fixed basis.

    Long finite part alpha at even delta level: sign(alpha) * t; at odd
    level: -sign(alpha) * s; short finite parts and imaginary roots: 0.
    """
    rs = _c_rootsystem(r)
    if len(gamma.finite) != r:
        raise NotCAffine("root has rank %d, expected %d" % (len(gamma.finite), r))
    if gamma.is_imaginary:
        if gamma.level == 0:
            raise NotCAffine("zero is not a root")
        if not 1 <= i <= r:
            raise NotCAffine("imaginary slot %d outside 1..%d" % (i, r))
        return 0
    if not rs.is_root(gamma.finite):
        raise NotCAffine("%r is not a type-C%d root" % (gamma.finite, r))
    if not rs.is_long(gamma.finite):
        return 0
    sign = 1 if all(c >= 0 for c in gamma.finite) else -1
    if gamma.level % 2 == 0:
        return sign * t
    return -1 * sign * s


def finite_character_realization(r):
    """Type-C realization on the displayed symplectic table (the basis the
    closed form refers to)."""
    return FiniteRealization(preset("C%d" % r), sp_structure_table(r))


def affine_character_realization(r):
    return AffineRealization(preset("C%d~" % r), sp_structure_table(r))
