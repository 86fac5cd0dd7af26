"""Free Lie algebra over the rationals in the Lyndon basis.

Generators carry integer labels (any distinct integers; finite realizations
use 1..n, affine ones 0..r).  Words are label tuples; a word is Lyndon when
it is strictly smaller than each of its proper suffixes.  Elements are
combinations of the standard bracketings P_w of Lyndon words w, and the
bracket is computed on the words themselves: [P_u, P_v] is P_uv when (u, v)
is the standard factorization of uv, and otherwise is rewritten by Jacobi
through u's standard factorization, memoized per word pair.  Bracket
expressions fold through that bracket.  Nothing divides, so integer
coefficients stay ints and rational ones stay exact.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .exact_math import BadInput, IdentityViolation, SparseElement, add_into, bilinear, exact_int, signed_sum


class ParseError(BadInput):
    """Bracket-expression syntax error; `pos` is the byte offset."""

    def __init__(self, message, pos):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


class UnbalancedBracketError(ParseError):
    pass


class NotALieElement(Exception):
    """A word met by the Lyndon-word bracket is not Lyndon, so the operand
    is not written in the Lyndon basis.

    A bug signal, not bad input: every element the program builds is in the
    Lyndon basis.  So it is deliberately not a BadInput, which the CLI
    reports as a usage error.
    """


def _label(label):
    """A generator label as an int; BadInput unless it is an int or an
    integral Fraction."""
    n = exact_int(label)
    if n is None:
        raise BadInput("generator label %r is not an integer" % (label,))
    return n


class BracketExpr(namedtuple("BracketExpr", "label left right", defaults=(None, None, None))):
    """Binary bracket tree; leaves hold generator labels."""

    __slots__ = ()

    def __new__(cls, label=None, left=None, right=None):
        if (label is None) == (left is None or right is None):
            raise ValueError("either a label or both children")
        return super().__new__(cls, label if label is None else _label(label), left, right)

    @classmethod
    def _make(cls, iterable):  # so _replace checks the shape and label too
        return cls(*iterable)

    @classmethod
    def leaf(cls, label):  # gated here too, so leaf(None) is a bad label, not a bad shape
        return cls(label=_label(label))

    @classmethod
    def node(cls, left, right):
        return cls(left=left, right=right)

    @property
    def is_leaf(self):
        return self.label is not None

    def labels(self):
        if self.is_leaf:
            return {self.label}
        return self.left.labels() | self.right.labels()

    def __repr__(self):
        if self.is_leaf:
            return "B%d" % self.label
        return "[%r,%r]" % (self.left, self.right)


def ad_power(i, j, s):
    """(ad B_i)^s B_j as a BracketExpr."""
    expr = BracketExpr.leaf(j)
    for _ in range(s):
        expr = BracketExpr.node(BracketExpr.leaf(i), expr)
    return expr


# parsing, BracketExpr.labels and psi_eval recurse once per level, so a
# deeper tree would run into the interpreter's recursion limit
MAX_NESTING = 256


def parse_bracket(text) -> BracketExpr:
    """Parse "B<nat>" | "[" expr "," expr "]" with optional whitespace and
    at most MAX_NESTING levels of brackets; <nat> is decimal digits."""

    def skip_ws(pos):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    def parse_expr(pos, depth):
        pos = skip_ws(pos)
        if pos >= len(text):
            raise UnbalancedBracketError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "B":
            start = pos + 1
            end = start
            while end < len(text) and text[end].isdecimal():
                end += 1
            if end == start:
                raise ParseError("expected digits after 'B'", start)
            try:
                label = int(text[start:end])
            except ValueError:
                # longer than the interpreter's int string-conversion limit
                raise ParseError("label of %d digits is too long" % (end - start), start) from None
            return BracketExpr.leaf(label), end
        if ch == "[":
            if depth == MAX_NESTING:
                raise ParseError("brackets nested deeper than %d" % MAX_NESTING, pos)
            left, pos = parse_expr(pos + 1, depth + 1)
            pos = skip_ws(pos)
            if pos >= len(text) or text[pos] != ",":
                raise ParseError("expected ','", pos)
            right, pos = parse_expr(pos + 1, depth + 1)
            pos = skip_ws(pos)
            if pos >= len(text) or text[pos] != "]":
                raise UnbalancedBracketError("expected ']'", pos)
            return BracketExpr.node(left, right), pos + 1
        if ch == "]":
            raise UnbalancedBracketError("unmatched ']'", pos)
        raise ParseError("expected 'B<n>' or '['", pos)

    expr, pos = parse_expr(0, 0)
    pos = skip_ws(pos)
    if pos != len(text):
        if text[pos] == "]":
            raise UnbalancedBracketError("unmatched ']'", pos)
        raise ParseError("trailing input", pos)
    return expr


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(word):
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(labels, length):
    """All Lyndon words of the given length over the sorted label alphabet
    (Duval's generation)."""
    alphabet = sorted(set(labels))
    k = len(alphabet)
    out = []
    w = [-1] if k else []
    while w:
        w[-1] += 1
        m = len(w)
        if m == length:
            out.append(tuple(alphabet[c] for c in w))
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()
    return out


def standard_factorization(word):
    """(u, v) with word = u + v and v the longest proper Lyndon suffix."""
    if len(word) < 2:
        raise ValueError("a word of length %d has no standard factorization" % len(word))
    # every one-letter suffix is Lyndon, so the search always succeeds
    i = next(i for i in range(1, len(word)) if is_lyndon(word[i:]))
    return word[:i], word[i:]


def lyndon_bracketing(word) -> BracketExpr:
    """Standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return BracketExpr.leaf(word[0])
    u, v = standard_factorization(word)
    return BracketExpr.node(lyndon_bracketing(u), lyndon_bracketing(v))


# Memoized; callers only read the returned dicts, never mutate them.
@functools.lru_cache(maxsize=None)
def _word_bracket(u, v):
    """[P_u, P_v] in the Lyndon basis (dict word -> int), for Lyndon words u
    and v with standard bracketings P_u and P_v.

    For u < v, uv is Lyndon with standard factorization (u, v) when u is a
    letter or u = u1 u2 (standard factorization) has u2 >= v; then the
    bracket is P_uv.  Otherwise P_u = [P_u1, P_u2] and Jacobi gives
    [P_u1, [P_u2, P_v]] - [P_u2, [P_u1, P_v]] (Reutenauer, Free Lie
    Algebras, 1993, ch. 5).  Never divides, so coefficients are ints.
    """
    for w in (u, v):
        if not is_lyndon(w):
            raise NotALieElement("word %r is not Lyndon: not a Lie basis element" % (w,))
    if u == v:
        out = {}
    elif u > v:
        out = {w: -c for w, c in _word_bracket(v, u).items()}
    elif len(u) == 1 or standard_factorization(u)[1] >= v:
        out = {u + v: 1}
    else:
        u1, u2 = standard_factorization(u)
        out = add_into(bilinear(_word_bracket, {u1: 1}, _word_bracket(u2, v)),
                       bilinear(_word_bracket, {u2: 1}, _word_bracket(u1, v)), -1)
    return out


class FreeLieElement(SparseElement):
    """Exact-rational combination of Lyndon basis words (label tuples)."""

    __slots__ = ()

    @classmethod
    def generator(cls, label):
        return cls({(_label(label),): 1})

    def __repr__(self):
        return signed_sum((self.terms[w], "(%s)" % ".".join(map(str, w)))
                          for w in sorted(self.terms, key=lambda t: (len(t), t)))


def to_lyndon(expr: BracketExpr) -> FreeLieElement:
    """Image of a bracket expression in the Lyndon basis."""

    def fold(e):
        if e.is_leaf:
            return FreeLieElement.generator(e.label)
        return lie_bracket(fold(e.left), fold(e.right))

    return fold(expr)


def lie_bracket(x: FreeLieElement, y: FreeLieElement) -> FreeLieElement:
    """Bilinear bracket, result in Lyndon normal form."""
    return FreeLieElement(bilinear(_word_bracket, x.terms, y.terms))


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(n, d):
    """Dimension of the degree-d component of the free Lie algebra on n
    generators: (1/d) sum_{e | d} mu(e) n^(d/e)."""
    if n < 1 or d < 1:
        raise ValueError("witt_dimension needs n, d >= 1, got %r, %r" % (n, d))
    total = sum(_mobius(e) * n ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise IdentityViolation("Witt sum %d is not divisible by %d" % (total, d))
    return total // d
