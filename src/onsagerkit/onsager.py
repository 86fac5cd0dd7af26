"""The generalized Onsager algebra: relations, evaluation, graded dimensions.

The quotient algebra itself is never materialized; the evaluation map onto
the fixed subalgebra (finite Chevalley or affine loop realization) together
with exact rank computations carries all verification.  Bracket words are
right-nested by default, which suffices to span every filtration level; an
all-bracketings mode exists for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import FINITE, UNTWISTED_AFFINE, CartanMatrix, NotAffine
from .chevalley import StructureTable, _vneg, build_chevalley
from .exact_math import IncrementalSpan
from .freelie import BracketExpr, FreeLieElement, lyndon_bracketing
from .loop import NotExpandable, bracket_loop, e_at, from_finite, omega_tilde, y_coordinates
from .roots import AffineData, height
from .serre_coeffs import serre_relation


class Realization:
    """Images of the generators inside the fixed subalgebra.

    Finite kind: Y_i = e_i - f_i in the Chevalley realization (labels 1..n).
    Affine kind: Y_0 = E_0[1] - F_0[-1] with E_0 = e_{-theta}, F_0 = e_theta,
    and Y_i = (e_i - f_i)[0] (labels 0..r).
    """

    def __init__(self, kind, cartan, table, affine=None, generators=None):
        self.kind = kind
        self.cartan = cartan
        self.table = table
        self.affine = affine
        self.generators = generators

    @property
    def labels(self):
        return self.cartan.labels

    def bracket(self, x, y):
        if self.kind == "finite":
            return self.table.bracket(x, y)
        return bracket_loop(self.table, x, y)

    def generator(self, label):
        try:
            return self.generators[label]
        except KeyError:
            raise IndexError("generator label %r outside %r" % (label, self.labels))

    def y_coordinates(self, x):
        """Coordinates over the fixed basis (positive roots / affine indices);
        raises NotExpandable for an element outside the fixed subalgebra."""
        if self.kind == "finite":
            out = {}
            for (kind, a), c in x.terms.items():
                if kind == "h":
                    raise NotExpandable("element has a Cartan part: not in the fixed subalgebra")
                if x.terms.get(("e", _vneg(a))) != -c:
                    raise NotExpandable("element is not involution-fixed")
                if all(v >= 0 for v in a):
                    out[a] = c
            return out
        return y_coordinates(x, self.affine.rank)


def finite_realization(c: CartanMatrix, table: StructureTable = None) -> Realization:
    if table is None:
        table = build_chevalley(c)
    gens = {}
    for pos, label in enumerate(c.labels):
        simple = tuple(1 if k == pos else 0 for k in range(c.n))
        gens[label] = table.y_basis(simple)
        assert table.omega(gens[label]) == gens[label]
    return Realization("finite", c, table, generators=gens)


def affine_realization(c: CartanMatrix, table: StructureTable = None) -> Realization:
    if c.kind != UNTWISTED_AFFINE:
        raise NotAffine("affine realization needs an untwisted affine matrix")
    aff = AffineData(c)
    if table is None:
        table = build_chevalley(aff.finite_cartan)
    theta = aff.theta
    gens = {}
    finite_pos = 0
    for pos, label in enumerate(c.labels):
        if pos == c.affine_node:
            # e_0 = e_{-theta}[1], f_0 = e_theta[-1]
            neg_theta = tuple(-v for v in theta)
            gens[label] = e_at(neg_theta, 1) - e_at(theta, -1)
        else:
            simple = tuple(1 if k == finite_pos else 0 for k in range(aff.rank))
            gens[label] = from_finite(table.y_basis(simple), 0)
            finite_pos += 1
    assert all(omega_tilde(g) == g for g in gens.values())
    return Realization("affine", c, table, affine=aff, generators=gens)


def realization_for(c: CartanMatrix, table=None) -> Realization:
    if c.kind == FINITE:
        return finite_realization(c, table)
    return affine_realization(c, table)


def relations(c: CartanMatrix):
    """The defining relations, one per ordered pair of distinct labels."""
    out = []
    for i in c.labels:
        for j in c.labels:
            if i != j:
                out.append(serre_relation(c, i, j))
    return out


def psi_eval(rz: Realization, e):
    """Homomorphic evaluation: generator labels map to the Y images."""
    if isinstance(e, BracketExpr):
        if e.is_leaf:
            return rz.generator(e.label)
        return rz.bracket(psi_eval(rz, e.left), psi_eval(rz, e.right))
    if isinstance(e, FreeLieElement):
        acc = None
        for word, coeff in e.terms.items():
            val = coeff * psi_eval(rz, lyndon_bracketing(word))
            acc = val if acc is None else acc + val
        if acc is None:
            gen0 = rz.generator(rz.labels[0])
            return 0 * gen0
        return acc
    raise TypeError("cannot evaluate %r" % (e,))


@dataclass
class FiltrationReport:
    jmax: int
    dims: list
    expected: list

    @property
    def matches(self):
        return self.dims == self.expected

    def __str__(self):
        tag = "match" if self.matches else "MISMATCH"
        return "filtration dims %s expected %s [%s]" % (self.dims, self.expected, tag)


@dataclass
class GenerationReport:
    height: int
    rank: int
    expected: int

    @property
    def matches(self):
        return self.rank == self.expected


def _expected_height_mults(rz: Realization, jmax):
    if rz.kind == "finite":
        rs = rz.table.rs
        return [sum(1 for a in rs.positive_roots if height(a) == j) for j in range(1, jmax + 1)]
    mults = rz.affine.mult_by_height(jmax)
    return [mults.get(j, 0) for j in range(1, jmax + 1)]


def _span_ranks(rz: Realization, jmax):
    """Ranks of the spans L_1 <= L_2 <= ... of evaluated right-nested words.

    Word images of length j+1 are [Y_i, w] over length-j words, and
    L_{j+1} = L_j + sum_i [Y_i, L_j], so it suffices to bracket generators
    against the word images that extended the span at the previous level;
    every vector added is still the image of an actual bracket word.
    """
    gens = [rz.generators[lab] for lab in rz.labels]
    span = IncrementalSpan()
    ranks = []
    fresh = []
    for x in gens:
        if span.add(rz.y_coordinates(x)):
            fresh.append(x)
    ranks.append(span.rank)
    for _ in range(2, jmax + 1):
        nxt = []
        for g in gens:
            for w in fresh:
                x = rz.bracket(g, w)
                if span.add(rz.y_coordinates(x)):
                    nxt.append(x)
        fresh = nxt
        ranks.append(span.rank)
    return ranks


def filtration_dims(rz: Realization, jmax: int) -> FiltrationReport:
    """dims[j] = dim L_j - dim L_{j-1} from evaluated right-nested words,
    compared with the graded multiplicities of the root system."""
    ranks = _span_ranks(rz, jmax)
    dims = [ranks[0]] + [ranks[j] - ranks[j - 1] for j in range(1, jmax)]
    return FiltrationReport(jmax, dims, _expected_height_mults(rz, jmax))


def generation_check(rz: Realization, H: int) -> GenerationReport:
    """Rank of words of length <= H against the count of fixed-basis vectors
    of height <= H (surjectivity of evaluation onto each level)."""
    ranks = _span_ranks(rz, H)
    expected = sum(_expected_height_mults(rz, H))
    return GenerationReport(H, ranks[-1], expected)


def all_bracket_words(labels, length):
    """Every full bracketing of every word of the given length (slow mode)."""
    if length == 1:
        return [BracketExpr.leaf(lab) for lab in labels]
    out = []
    for k in range(1, length):
        for left in all_bracket_words(labels, k):
            for right in all_bracket_words(labels, length - k):
                out.append(BracketExpr.node(left, right))
    return out


def filtration_dims_all_words(rz: Realization, jmax: int) -> FiltrationReport:
    """Cross-validation mode: spans from all bracketings, not only the
    right-nested generating family."""
    span = IncrementalSpan()
    dims = []
    prev = 0
    for j in range(1, jmax + 1):
        for expr in all_bracket_words(rz.labels, j):
            span.add(rz.y_coordinates(psi_eval(rz, expr)))
        dims.append(span.rank - prev)
        prev = span.rank
    return FiltrationReport(jmax, dims, _expected_height_mults(rz, jmax))
