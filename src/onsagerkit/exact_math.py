"""Exact scalars and exact sparse linear algebra over the Gaussian rationals.

Scalars and matrices are immutable after construction.  Sparse vectors are
plain dicts mapping coordinate keys to nonzero exact scalars: `int` while the
arithmetic is integral, `Fraction` or `GaussianRational` once something
divides.  `add_into` and `add_term` are the one place where they are summed,
`bilinear` extends a bracket or product on basis-key pairs to vectors,
`SparseElement` is the one implementation of element arithmetic,
`signed_sum` is the one printer of a signed sum, and `IncrementalSpan` is
the one eliminator.  No floating point appears
anywhere; all downstream identities are checked as bit-exact equalities.
"""

from __future__ import annotations

from fractions import Fraction


class IdentityViolation(Exception):
    """A mathematical identity the package checks does not hold.

    Raised explicitly, so the check survives python -O, and deliberately not
    a BadInput, which the CLI reports as bad input.
    """


class BadInput(ValueError):
    """The input is not one the program accepts: the only error the CLI
    reports as bad input (exit status 2).  Any other ValueError is a fault."""


class GaussianRational:
    """a + b*i with rational a, b.  Field arithmetic, hashable, immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
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

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
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


I = GaussianRational(0, 1)
ZERO = GaussianRational(0)
ONE = GaussianRational(1)


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
    """(coefficient, text) parts as one signed sum, e.g. "x-2*y+1/2*z": a
    unit coefficient prints as a bare sign, and no parts print "0"."""
    s = "".join("%s%s%s" % ("+" if c > 0 else "-", "" if abs(c) == 1 else "%s*" % abs(c), text)
                for c, text in parts)
    return s.removeprefix("+") or "0"


class SparseElement:
    """Exact rational combination of basis keys: terms maps key -> nonzero
    int or Fraction.  Integer coefficients stay ints, so integral brackets
    run in int arithmetic; any other scalar becomes an exact Fraction.

    The one implementation of element arithmetic.  Subclasses fix the key
    format and keep only their constructors and printers; elements of
    different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c if type(c) is int or type(c) is Fraction else Fraction(c)
                      for k, c in (terms or {}).items() if c}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return type(self)(add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return type(self)(add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        if type(scalar) is not int:
            scalar = Fraction(scalar)
        return type(self)({k: scalar * c for k, c in self.terms.items()})

    __mul__ = __rmul__


class ExactMatrix:
    """Sparse matrix over the Gaussian rationals; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        store = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError("entry (%d, %d) outside %dx%d matrix" % (i, j, rows, cols))
                g = _coerce(v)
                if g is None:
                    raise TypeError("matrix entries must be exact scalars, got %r" % (v,))
                if g:
                    store[(i, j)] = g
        self.entries = store

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entry(self, i, j):
        return self.entries.get((i, j), ZERO)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(self.rows, self.cols, add_into(dict(self.entries), other.entries))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        g = _coerce(scalar)
        if g is None:
            return NotImplemented
        if not g:
            return ExactMatrix(self.rows, self.cols)
        return ExactMatrix(self.rows, self.cols, {k: v * g for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        by_col = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v))
        out = {}
        for i, left in by_row.items():
            for k, v in left:
                for j, w in by_col.get(k, ()):
                    add_term(out, (i, j), v * w)
        return ExactMatrix(self.rows, other.cols, out)

    def transpose(self):
        return ExactMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def block(self, r0, r1, c0, c1):
        out = {}
        for (i, j), v in self.entries.items():
            if r0 <= i < r1 and c0 <= j < c1:
                out[(i - r0, j - c0)] = v
        return ExactMatrix(r1 - r0, c1 - c0, out)

    def commutator(self, other):
        return self @ other - other @ self

    def row_dicts(self):
        """The rows as sparse vectors.  Real entries are narrowed to int or
        Fraction, so a rational matrix is eliminated over Q; only non-real
        entries stay GaussianRational."""
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            if not v.im:
                v = v.re.numerator if v.re.denominator == 1 else v.re
            out[i][j] = v
        return out

    def __repr__(self):
        return "ExactMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


class IncrementalSpan:
    """Echelon basis of a growing span of sparse vectors, over any exact field.

    Vectors are dicts mapping comparable coordinate keys to nonzero scalars.
    Each basis row has its minimum key (the pivot) with coefficient 1.  This
    is the package's only eliminator: rank, nullspace, determinant and the
    character solve are all read off it.
    """

    def __init__(self):
        self._pivot_rows = {}  # pivot key -> row dict with 1 at the pivot

    @property
    def rank(self):
        return len(self._pivot_rows)

    def reduce(self, vec):
        """Residue of vec after elimination against the current basis; it
        holds no pivot key.  vec itself is not modified."""
        v = {k: c for k, c in vec.items() if c}
        # Eliminating the smallest pivot key can only introduce larger keys
        # (pivot rows have their minimum at the pivot), so this terminates.
        while True:
            hits = [k for k in v if k in self._pivot_rows]
            if not hits:
                return v
            key = min(hits)
            add_into(v, self._pivot_rows[key], -v[key])

    def add(self, vec):
        """Add vec to the span; returns True iff the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot]
        if isinstance(inv, int):
            inv = Fraction(inv)  # int / int would be a float
        row = {k: c / inv for k, c in v.items()}
        self._pivot_rows[pivot] = row
        return True

    def reduced_rows(self):
        """The basis in reduced echelon form, as {pivot key: row}.

        Back-substitutes in place, so afterwards each pivot key appears only
        in its own row; the span and later add/reduce calls are unaffected.
        """
        rows = self._pivot_rows
        # a row holds no key below its pivot, so only rows with a smaller
        # pivot can hold p, and clearing the largest pivot first never brings
        # a cleared pivot back
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q, other in rows.items():
                if q < p and p in other:
                    add_into(other, row, -other[p])
        return rows


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
    """Basis of the right kernel of an ExactMatrix, as dense tuples.

    One vector per free column f of the reduced echelon form: 1 at f, minus
    the f-entry of each pivot row at that row's pivot.  Empty list iff
    rank = cols.
    """
    span = IncrementalSpan()
    for row in m.row_dicts():
        span.add(row)
    pivots = span.reduced_rows()
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for p, row in pivots.items():
            coeff = row.get(f)
            if coeff:
                vec[p] = _coerce(-coeff)
        basis.append(tuple(vec))
    return basis
