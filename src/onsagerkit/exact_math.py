"""Exact scalars and exact sparse linear algebra over the Gaussian rationals.

Every scalar enters through one rule, `_exact`: an int, a Fraction or a
GaussianRational, stored as an int or Fraction when real and as a
GaussianRational only when not; a float, a string or any other number is a
TypeError, also as a part of a GaussianRational.  `exact_int` is the gate
for inputs that must be integers.  Sparse vectors are plain dicts mapping
coordinate keys to nonzero exact scalars.  `add_into` and `add_term` are the
one place where they are summed, `bilinear` extends a bracket or product on
basis-key pairs to vectors, `SparseElement` is the one element arithmetic
(matrices included: `ExactMatrix` is an element keyed by (row, col)),
`signed_sum` is the one printer of a signed sum (of every element and CLI
report), and `IncrementalSpan` is the one eliminator, which eliminates
integer vectors without dividing.  Elements and matrices are immutable after
construction.  No floating point appears anywhere; all downstream identities
are checked as bit-exact equalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class IdentityViolation(Exception):
    """A mathematical identity the package checks does not hold.

    Raised explicitly, so the check survives python -O, and deliberately not
    a BadInput, which the CLI reports as bad input.
    """


class BadInput(ValueError):
    """The input is not one the program accepts: the only error the CLI
    reports as bad input (exit status 2).  Any other ValueError is a fault."""


def _gaussian_operand(method):
    """method with its operand as a GaussianRational, or NotImplemented
    when the operand is not an exact scalar."""
    def coerced(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else method(self, other)
    return coerced


class GaussianRational:
    """a + b*i with rational a, b.  Field arithmetic, hashable, immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("expected int or Fraction parts, got %r and %r" % (re, im))
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm2(self):
        """(a+bi)(a-bi) as a Fraction."""
        return self.re * self.re + self.im * self.im

    @property
    def is_rational(self):
        return self.im == 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @_gaussian_operand
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_gaussian_operand
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_gaussian_operand
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_gaussian_operand
    def __rsub__(self, other):
        return GaussianRational(other.re - self.re, other.im - self.im)

    @_gaussian_operand
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_gaussian_operand
    def __truediv__(self, other):
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    @_gaussian_operand
    def __rtruediv__(self, other):
        return other / self

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (self.re, sign, abs(self.im))


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


_EXACT = (int, Fraction, GaussianRational)


def _exact(x):
    """x as an int or Fraction when real, as a GaussianRational only when
    not; TypeError for anything but an exact scalar."""
    if isinstance(x, GaussianRational):
        if x.im:
            return x
        x = x.re
    elif not isinstance(x, (int, Fraction)):
        raise TypeError("expected an exact scalar (int, Fraction or GaussianRational), got %r" % (x,))
    return x.numerator if x.denominator == 1 else x


def exact_int(x):
    """x as an int when it is an int or an integral Fraction, else None; a
    bool is no integer here."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        return None
    return x.numerator


I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# sparse vectors: dicts mapping coordinate keys to nonzero exact scalars
# ---------------------------------------------------------------------------

def add_term(acc, key, c):
    """acc[key] += c in place, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_into(acc, vec, scale=1):
    """acc += scale * vec in place, dropping keys whose sum is zero; returns acc."""
    terms = vec.items() if scale == 1 else ((k, scale * c) for k, c in vec.items())
    for k, c in terms:
        s = acc.get(k, 0) + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def bilinear(pair, x, y):
    """sum of x[k1] * y[k2] * pair(k1, k2) over both supports, as a new
    sparse vector; pair returns a sparse vector, empty (or None) to skip."""
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            v = pair(k1, k2)
            if v:
                add_into(out, v, c1 * c2)
    return out


def signed_sum(parts):
    """(coefficient, text) parts as one signed sum, e.g. "x-2*y+1/2*z+(1-2*i)*w":
    a real unit coefficient prints as a bare sign, a non-real one in
    parentheses, and no parts print "0"; any coefficient `_exact` admits."""
    bits = []
    for c, text in parts:
        c = _exact(c)
        if isinstance(c, GaussianRational):
            bits.append("+(%r)*%s" % (c, text))
        else:
            bits.append("%s%s%s" % ("+" if c > 0 else "-", "" if abs(c) == 1 else "%s*" % abs(c), text))
    return "".join(bits).removeprefix("+") or "0"


class SparseElement:
    """Exact combination of basis keys: terms maps key -> nonzero exact
    scalar, admitted by `_exact`.  Integer coefficients stay ints, so
    integral brackets run in int arithmetic.

    The one implementation of element arithmetic.  Subclasses fix the key
    format and keep only their constructors and printers; `_new` builds a
    result of the caller's type.  Elements of different subclasses never
    compare equal, and adding or subtracting them is a TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, c in (terms or {}).items()
                      if (v := c if type(c) is int else _exact(c))}

    def _new(self, terms):
        return type(self)(terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other, scale=1):
        if type(other) is not type(self):
            return NotImplemented
        return self._new(add_into(dict(self.terms), other.terms, scale))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        if type(scalar) is not int:
            scalar = _exact(scalar)
        return self._new({k: scalar * c for k, c in self.terms.items()})

    __mul__ = __rmul__


class ExactMatrix(SparseElement):
    """Sparse matrix over the Gaussian rationals: an element keyed by
    (row, col), so zero entries are never stored.  Real entries are stored
    as int or Fraction, so a rational matrix is multiplied and eliminated
    over Q; entry() still reads every entry as a GaussianRational."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols, entries=None):
        for i, j in entries or ():
            if type(i) is not int or type(j) is not int:
                raise TypeError("entry index (%r, %r) is not a pair of ints" % (i, j))
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError("entry (%d, %d) outside %dx%d matrix" % (i, j, rows, cols))
        super().__init__(entries)
        self.rows = rows
        self.cols = cols

    def _new(self, terms):
        return ExactMatrix(self.rows, self.cols, terms)

    @classmethod
    def from_rows(cls, data):
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entry(self, i, j):
        return _coerce(self.terms.get((i, j), 0))

    def __eq__(self, other):
        same = super().__eq__(other)
        return same if same is NotImplemented else same and (self.rows, self.cols) == (other.rows, other.cols)

    def __add__(self, other, scale=1):
        if isinstance(other, ExactMatrix) and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return super().__add__(other, scale)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        by_row = {}
        for (i, k), v in self.terms.items():
            by_row.setdefault(i, []).append((k, v))
        by_col = {}
        for (k, j), v in other.terms.items():
            by_col.setdefault(k, []).append((j, v))
        out = {}
        for i, left in by_row.items():
            for k, v in left:
                for j, w in by_col.get(k, ()):
                    add_term(out, (i, j), v * w)
        return ExactMatrix(self.rows, other.cols, out)

    def transpose(self):
        return ExactMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.terms.items()})

    def block(self, r0, r1, c0, c1):
        return ExactMatrix(r1 - r0, c1 - c0, {(i - r0, j - c0): v for (i, j), v in self.terms.items()
                                              if r0 <= i < r1 and c0 <= j < c1})

    def commutator(self, other):
        return self @ other - other @ self

    def row_dicts(self):
        """The rows as sparse vectors of the stored entries: int or Fraction
        when real, GaussianRational only when not."""
        out = [{} for _ in range(self.rows)]
        for (i, j), v in self.terms.items():
            out[i][j] = v
        return out

    def __repr__(self):
        return "ExactMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.terms))


def _eliminate(v, row, key):
    """Clear key from v in place by v <- m*v - b*row with m > 0: m = 1 when
    row[key] = 1, else (an int row) m = a/g and b = v[key]/g for a = row[key]
    and g = gcd(a, v[key]), so int vectors are eliminated without dividing."""
    a = row[key]
    b = v[key]
    if a != 1:
        if type(b) is int:  # else g = 1
            g = gcd(a, b)
            a //= g
            b //= g
        if a != 1:
            for k in v:
                v[k] *= a
    add_into(v, row, -b)


def _basis_row(v, pivot):
    """v as a basis row: primitive with a positive pivot when all its
    entries are int, divided by its pivot otherwise."""
    if all(type(c) is int for c in v.values()):
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        return v if g == 1 else {k: c // g for k, c in v.items()}
    p = v[pivot]
    if isinstance(p, int):
        p = Fraction(p)  # int / int would be a float
    return {k: c / p for k, c in v.items()}


class IncrementalSpan:
    """Echelon basis of a growing span of sparse vectors, over any exact field.

    Vectors are dicts mapping comparable coordinate keys to nonzero exact
    scalars (int, Fraction or GaussianRational; anything else is a
    TypeError).  Each basis row has its minimum key as its pivot.  A row of
    ints is stored primitive (content 1, positive pivot) and eliminated
    fraction-free (Bareiss), so integer input stays int; any other row is
    stored with 1 at its pivot.  This is the package's only eliminator:
    rank, nullspace, determinant and the character solve are all read off
    it.
    """

    def __init__(self):
        self._pivot_rows = {}  # pivot key -> primitive int row, or row with 1 at the pivot

    @property
    def rank(self):
        return len(self._pivot_rows)

    def reduce(self, vec):
        """Residue of vec after elimination against the current basis, up to
        a positive scalar multiple; it holds no pivot key, and it is all int
        when vec is.  vec itself is not modified."""
        for t in set(map(type, vec.values())):
            if not issubclass(t, _EXACT):
                raise TypeError("expected exact scalars (int, Fraction or GaussianRational), got %s"
                                % t.__name__)
        v = {k: c for k, c in vec.items() if c}
        rows = self._pivot_rows
        # Eliminating the smallest pivot key can only introduce larger keys
        # (pivot rows have their minimum at the pivot), so this terminates.
        while True:
            hits = [k for k in v if k in rows]
            if not hits:
                return v
            key = min(hits)
            _eliminate(v, rows[key], key)

    def add(self, vec):
        """Add vec to the span; returns True iff the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        self._pivot_rows[pivot] = _basis_row(v, pivot)
        return True

    def reduced_rows(self):
        """The basis in reduced echelon form with 1 at each pivot, as a new
        {pivot key: row}: each pivot key appears only in its own row.  The
        span and later add/reduce calls are unaffected.
        """
        cleared = {}
        # a row holds no key below its pivot, so clearing the largest pivot
        # first leaves each cleared row with no pivot key but its own, and
        # clearing one pivot key from a row brings in no other
        for p in sorted(self._pivot_rows, reverse=True):
            row = dict(self._pivot_rows[p])
            for q in [q for q in row if q in cleared]:
                _eliminate(row, cleared[q], q)
            cleared[p] = _basis_row(row, p)
        # a row whose pivot is not 1 is all int
        return {p: row if row[p] == 1 else {k: Fraction(c, row[p]) for k, c in row.items()}
                for p, row in cleared.items()}


def span_rank(vectors):
    """Rank of the matrix whose rows are the given vectors.

    Vectors may be dicts over a shared (comparable) coordinate index set, or
    plain sequences.
    """
    span = IncrementalSpan()
    for v in vectors:
        if not isinstance(v, dict):
            v = {j: c for j, c in enumerate(v)}
        span.add(v)
    return span.rank


def rank(m):
    """Rank of an ExactMatrix over the Gaussian rationals, by exact elimination."""
    return span_rank(m.row_dicts())


def nullspace_basis(m):
    """Basis of the right kernel of an ExactMatrix, as sparse {column: value}
    vectors like IncrementalSpan's rows.

    One vector per free column f of the reduced echelon form: 1 at f, minus
    the f-entry of each pivot row at that row's pivot.  Empty list iff
    rank = cols.
    """
    span = IncrementalSpan()
    for row in m.row_dicts():
        span.add(row)
    pivots = span.reduced_rows()
    return [{f: 1, **{p: -row[f] for p, row in pivots.items() if f in row}}
            for f in range(m.cols) if f not in pivots]
