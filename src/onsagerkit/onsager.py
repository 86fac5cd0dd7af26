"""The generalized Onsager algebra: relations, evaluation, graded dimensions.

The quotient algebra itself is never materialized; the evaluation map onto
the fixed subalgebra (finite Chevalley or affine loop realization) together
with exact rank computations carries all verification.  The realization
classes are the one place that knows how the fixed basis is indexed for each
kind of matrix; `realization_for` picks the class.  Bracket words are
right-nested by default, which suffices to span every filtration level; an
all-bracketings mode exists for cross-validation.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import FINITE, UNTWISTED_AFFINE, CartanMatrix
from .chevalley import StructureTable, _vneg, table_for
from .exact_math import BadInput, IncrementalSpan, add_into, bilinear
from .freelie import BracketExpr, FreeLieElement, lyndon_bracketing
from .loop import YIndex, k_bracket_expand, y_key, y_number
from .roots import AffineData, AffineRoot, height
from .serre_coeffs import serre_relation


class NotRealized(BadInput):
    """The matrix is neither finite nor untwisted affine, so it has no
    realization here."""


class Realization:
    """Images of the generators inside the fixed subalgebra, and the fixed
    basis their brackets expand over.

    A fixed vector is an int dict {basis number: coeff} (numbers as in
    `loop`), and each generator Y_i is one basis number (`generators` maps
    label -> number).  `basis_bracket(u, v)` is `loop.k_bracket_expand` on
    the realization's table: it brackets the basis vectors numbered u and v
    and expands the result over the basis by number, and raises
    NotExpandable when the result is not fixed.  `bracket` extends it to
    fixed vectors.  A subclass fixes the basis keys: `basis(H)` (the keys of
    height <= H with their heights, in (height, key) order), `top_height`
    (the largest height of a basis key, None when the basis is infinite),
    and `number(key)`/`index(n)`, which translate between a key and its
    number; keys are built only to report a result.
    """

    def __init__(self, cartan, table, generators):
        self.cartan = cartan
        self.table = table
        self.generators = generators  # label -> basis number

    @property
    def labels(self):
        return self.cartan.labels

    def generator(self, label):
        try:
            return {self.generators[label]: 1}
        except KeyError:
            raise IndexError("generator label %r outside %r" % (label, self.labels))

    def basis_bracket(self, u, v):
        return k_bracket_expand(self.table, u, v)

    def bracket(self, x, y):
        return bilinear(self.basis_bracket, x, y)

    def height_mults(self, jmax):
        """Number of basis vectors at each height 1..jmax."""
        mults = [0] * jmax
        for _, h in self.basis(jmax):
            mults[h - 1] += 1
        return mults


class FiniteRealization(Realization):
    """Y_i = e_i - f_i in the Chevalley realization (labels 1..n), over the
    fixed basis y_alpha = e_alpha - e_{-alpha}, keyed by positive roots."""

    def __init__(self, c: CartanMatrix, table: StructureTable = None):
        if table is None:
            table = table_for(c)
        gens = {label: y_number(table, ("e", tuple(int(k == pos) for k in range(c.n))), 0)
                for pos, label in enumerate(c.labels)}
        super().__init__(c, table, gens)

    def basis(self, H):
        return [(a, height(a)) for a in self.table.rs.positive_roots if height(a) <= H]

    @property
    def top_height(self):
        return self.table.rs.max_height

    def number(self, alpha):
        return y_number(self.table, ("e", alpha), 0)

    def index(self, n):
        return y_key(self.table, n)[0][1]


class AffineRealization(Realization):
    """Y_0 = E_0[1] - F_0[-1] with E_0 = e_{-theta}, F_0 = e_theta, and
    Y_i = (e_i - f_i)[0], over the loop fixed basis keyed by YIndex."""

    top_height = None

    def __init__(self, c: CartanMatrix, table: StructureTable = None):
        self.affine = aff = AffineData(c)
        if table is None:
            table = table_for(aff.finite_cartan)
        gens = {}
        finite_pos = 0
        for pos, label in enumerate(c.labels):
            if pos == c.affine_node:
                gens[label] = y_number(table, ("e", _vneg(aff.theta)), 1)
            else:
                gens[label] = y_number(table, ("e", tuple(int(k == finite_pos) for k in range(aff.rank))), 0)
                finite_pos += 1
        super().__init__(c, table, gens)

    def basis(self, H):
        aff = self.affine
        return [(YIndex(g, i), aff.height(g)) for g, m in aff.positive_up_to(H) for i in range(1, m + 1)]

    def number(self, idx):
        gamma = idx.gamma
        key = ("h", idx.i - 1) if gamma.is_imaginary else ("e", gamma.finite)
        return y_number(self.table, key, gamma.level)

    def index(self, n):
        (kind, v), level = y_key(self.table, n)
        if kind == "h":
            return YIndex(AffineRoot((0,) * self.affine.rank, level), v + 1)
        return YIndex(AffineRoot(v, level))


def realization_for(c: CartanMatrix, table=None) -> Realization:
    """The realization of a finite or untwisted affine matrix; NotRealized
    for any other kind."""
    if c.kind == FINITE:
        return FiniteRealization(c, table)
    if c.kind == UNTWISTED_AFFINE:
        return AffineRealization(c, table)
    raise NotRealized("a realization needs a finite or untwisted affine matrix; "
                      "this one classifies as %s" % c.kind)


def relations(c: CartanMatrix):
    """The defining relations, one per ordered pair of distinct labels."""
    out = []
    for i in c.labels:
        for j in c.labels:
            if i != j:
                out.append(serre_relation(c, i, j))
    return out


def psi_eval(rz: Realization, e):
    """Homomorphic evaluation: generator labels map to the Y images; the
    image is an int dict over basis numbers."""
    if isinstance(e, BracketExpr):
        if e.is_leaf:
            return rz.generator(e.label)
        return rz.bracket(psi_eval(rz, e.left), psi_eval(rz, e.right))
    if isinstance(e, FreeLieElement):
        acc = {}
        for word, coeff in e.terms.items():
            add_into(acc, psi_eval(rz, lyndon_bracketing(word)), coeff)
        return acc
    raise TypeError("cannot evaluate %r" % (e,))


class FiltrationReport(namedtuple("FiltrationReport", "jmax dims expected")):
    __slots__ = ()

    @property
    def matches(self):
        return self.dims == self.expected


class GenerationReport(namedtuple("GenerationReport", "height rank expected")):
    __slots__ = ()

    @property
    def matches(self):
        return self.rank == self.expected


def filtration_dims(rz: Realization, jmax: int) -> FiltrationReport:
    """dims[j] = dim L_j - dim L_{j-1} for the spans L_1 <= L_2 <= ... of
    evaluated right-nested words, compared with the graded multiplicities of
    the fixed basis.

    Word images of length j+1 are [Y_i, w] over length-j words, and
    L_{j+1} = L_j + sum_i [Y_i, L_j], so it suffices to bracket generators
    against the word images that extended the span at the previous level;
    every vector added is still the image of an actual bracket word.
    """
    gens = [rz.generator(lab) for lab in rz.labels]
    span = IncrementalSpan()
    fresh = [x for x in gens if span.add(x)]
    dims = [span.rank]
    for _ in range(2, jmax + 1):
        prev = span.rank
        nxt = []
        for g in gens:
            for w in fresh:
                x = rz.bracket(g, w)
                if span.add(x):
                    nxt.append(x)
        fresh = nxt
        dims.append(span.rank - prev)
    return FiltrationReport(jmax, dims, rz.height_mults(jmax))


def generation_check(rz: Realization, H: int) -> GenerationReport:
    """Rank of words of length <= H against the count of fixed-basis vectors
    of height <= H (surjectivity of evaluation onto each level)."""
    rep = filtration_dims(rz, H)
    return GenerationReport(H, sum(rep.dims), sum(rep.expected))


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
    right-nested generating family.

    The span receives psi_eval of each entry of all_bracket_words(rz.labels, j)
    for j = 1..jmax, in that order, but no tree is evaluated from its leaves:
    a bracketing of length j brackets one of length k with one of length j-k,
    so the images of every bracketing shorter than jmax are kept, in
    all_bracket_words order, and each image costs one bracket of two stored
    halves.
    """
    span = IncrementalSpan()
    images = {}
    dims = []
    for j in range(1, jmax + 1):
        prev = span.rank
        if j == 1:
            level = (rz.generator(lab) for lab in rz.labels)
        else:
            level = (rz.bracket(x, y) for k in range(1, j) for x in images[k] for y in images[j - k])
        if j < jmax:
            level = images[j] = list(level)
        for x in level:
            span.add(x)
        dims.append(span.rank - prev)
    return FiltrationReport(jmax, dims, rz.height_mults(jmax))
