import functools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onsagerkit
from onsagerkit.exact_math import BadInput, span_rank
from onsagerkit.freelie import (
    MAX_NESTING,
    BracketExpr,
    FreeLieElement,
    NotALieElement,
    ParseError,
    UnbalancedBracketError,
    ad_power,
    is_lyndon,
    lie_bracket,
    lyndon_bracketing,
    lyndon_words,
    parse_bracket,
    standard_factorization,
    to_lyndon,
    witt_dimension,
)


def test_parse_examples():
    e = parse_bracket("[B1,[B1,B2]]")
    assert e == BracketExpr.node(
        BracketExpr.leaf(1), BracketExpr.node(BracketExpr.leaf(1), BracketExpr.leaf(2))
    )
    assert parse_bracket("B3") == BracketExpr.leaf(3)
    assert parse_bracket(" [ B1 , B2 ] ") == BracketExpr.node(BracketExpr.leaf(1), BracketExpr.leaf(2))


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_bracket("[B1 B2]")
    assert err.value.pos == 4
    with pytest.raises(UnbalancedBracketError):
        parse_bracket("[B1,B2")
    with pytest.raises(UnbalancedBracketError):
        parse_bracket("[B1,B2]]")
    with pytest.raises(ParseError):
        parse_bracket("B")
    with pytest.raises(ParseError):
        parse_bracket("")
    # a label is decimal digits: "²" is a digit but no decimal one
    with pytest.raises(ParseError) as err:
        parse_bracket("B²")
    assert err.value.pos == 1
    for text, message, pos in (("[B1,]", "unmatched ']'", 4), ("[C1,B2]", "expected 'B<n>' or '['", 1),
                               ("B1B2", "trailing input", 2)):
        with pytest.raises(ParseError) as err:
            parse_bracket(text)
        assert (str(err.value), err.value.pos) == ("%s (at offset %d)" % (message, pos), pos)
    assert parse_bracket("B\u0661") == BracketExpr.leaf(1)  # ARABIC-INDIC DIGIT ONE
    # a label is an integer, never truncated (1.7 made B1) or parsed ("3")
    for label in (1.7, "3", Fraction(1, 2), None):
        message = re.escape("generator label %r is not an integer" % (label,))
        with pytest.raises(BadInput, match=message):
            BracketExpr.leaf(label)
        with pytest.raises(BadInput, match=message):
            FreeLieElement.generator(label)
    assert BracketExpr.leaf(Fraction(4, 2)).label == 2 and FreeLieElement.generator(Fraction(3)).terms == {(3,): 1}


def _nested(depth):
    """[[...[B2,B1],...,B1],B1] with the given bracket depth."""
    return "[" * depth + "B2" + ",B1]" * depth


def test_parse_nesting_bound():
    assert parse_bracket(_nested(MAX_NESTING)).labels() == {1, 2}
    for depth in (MAX_NESTING + 1, 990):
        with pytest.raises(ParseError, match=r"nested deeper than %d \(at offset %d\)" % (MAX_NESTING, MAX_NESTING)):
            parse_bracket(_nested(depth))
    # the bound counts open brackets on one path, not brackets in all
    wide = "[" + ",".join([_nested(MAX_NESTING - 1)] * 2) + "]"
    assert parse_bracket(wide).labels() == {1, 2}


def test_lyndon_predicates():
    assert is_lyndon((1, 2))
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
    assert lyndon_words((), 2) == [] and lyndon_words((), 1) == []


def test_to_lyndon_examples():
    assert to_lyndon(parse_bracket("[B1,B2]")).terms == {(1, 2): Fraction(1)}
    assert to_lyndon(parse_bracket("[B2,B1]")).terms == {(1, 2): Fraction(-1)}


def test_jacobi_all_triples_of_generators():
    for x in range(1, 4):
        for y in range(1, 4):
            for z in range(1, 4):
                total = (
                    to_lyndon(parse_bracket("[B%d,[B%d,B%d]]" % (x, y, z)))
                    + to_lyndon(parse_bracket("[B%d,[B%d,B%d]]" % (y, z, x)))
                    + to_lyndon(parse_bracket("[B%d,[B%d,B%d]]" % (z, x, y)))
                )
                assert total.is_zero()


def _random_expr(rng, degree, ngens):
    if degree == 1:
        return BracketExpr.leaf(rng.randint(1, ngens))
    k = rng.randint(1, degree - 1)
    return BracketExpr.node(_random_expr(rng, k, ngens), _random_expr(rng, degree - k, ngens))


def test_antisymmetry_random():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randint(1, 5)
        x = _random_expr(rng, d, 3)
        y = _random_expr(rng, rng.randint(1, 5 - 0), 3)
        s = to_lyndon(BracketExpr.node(x, y)) + to_lyndon(BracketExpr.node(y, x))
        assert s.is_zero()


def test_jacobi_random():
    rng = random.Random(4)
    for _ in range(40):
        x = _random_expr(rng, rng.randint(1, 2), 3)
        y = _random_expr(rng, rng.randint(1, 2), 3)
        z = _random_expr(rng, rng.randint(1, 2), 3)
        total = (
            to_lyndon(BracketExpr.node(x, BracketExpr.node(y, z)))
            + to_lyndon(BracketExpr.node(y, BracketExpr.node(z, x)))
            + to_lyndon(BracketExpr.node(z, BracketExpr.node(x, y)))
        )
        assert total.is_zero()


def test_degree_preservation():
    rng = random.Random(9)
    for _ in range(40):
        d = rng.randint(1, 6)
        e = _random_expr(rng, d, 3)
        img = to_lyndon(e)
        assert all(len(w) == d for w in img.terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lyndon_counts_are_witt_numbers(n):
    for d in range(1, 7):
        words = lyndon_words(range(1, n + 1), d)
        assert len(words) == witt_dimension(n, d)
        assert all(is_lyndon(w) for w in words)


def test_witt_examples():
    assert witt_dimension(2, 1) == 2
    assert witt_dimension(2, 3) == 2
    assert witt_dimension(3, 2) == 3
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(2, 5) == 6


def test_lie_bracket_basic():
    b1 = FreeLieElement.generator(1)
    b2 = FreeLieElement.generator(2)
    assert lie_bracket(b1, b1).is_zero()
    assert lie_bracket(b1, b2).terms == {(1, 2): Fraction(1)}
    x = lie_bracket(b1, b2) + 2 * b1
    assert lie_bracket(x, x).is_zero()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bracketings_span_witt_dimension(d):
    # all full bracketings of all words of degree d over 2 generators span
    # exactly the Witt number of independent elements
    from onsagerkit.onsager import all_bracket_words

    vecs = [to_lyndon(e).terms for e in all_bracket_words((1, 2), d)]
    assert span_rank(vecs) == witt_dimension(2, d)


def test_lyndon_bracketing_roundtrip():
    # the normal form of the standard bracketing of a Lyndon word is the word
    for w in lyndon_words((1, 2), 5):
        img = to_lyndon(lyndon_bracketing(w))
        assert img.terms == {w: Fraction(1)}


def test_ad_power():
    e = ad_power(1, 2, 2)
    assert e == parse_bracket("[B1,[B1,B2]]")
    assert ad_power(1, 2, 0) == BracketExpr.leaf(2)


WORDS = [w for n in (1, 2, 3) for w in lyndon_words((1, 2, 3), n)]
COEFFS = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))
ELEMENTS = st.dictionaries(st.sampled_from(WORDS), COEFFS, max_size=4).map(FreeLieElement)


@functools.lru_cache(maxsize=None)
def _expand(word):
    """Associative expansion of the standard bracketing of a Lyndon word, as
    {word: Fraction}; an independent reference for the Lyndon-word bracket."""
    if len(word) == 1:
        return {word: Fraction(1)}
    u, v = standard_factorization(word)
    return _commutator(_expand(u), _expand(v))


def _commutator(p, q):
    out = {}
    for a, b, sign in ((p, q, 1), (q, p, -1)):
        for u, x in a.items():
            for v, y in b.items():
                out[u + v] = out.get(u + v, 0) + sign * x * y
    return out


def _peel(comm):
    """Lyndon coordinates of an associative Lie element: repeatedly peel the
    (length, lex)-smallest word, whose expansion has coefficient 1 on itself."""
    comm = dict(comm)
    out = {}
    while any(comm.values()):
        w = min((t for t, c in comm.items() if c), key=lambda t: (len(t), t))
        out[w] = c = comm[w]
        for v, k in _expand(w).items():
            comm[v] = comm.get(v, 0) - c * k
    return FreeLieElement(out)


def _assoc(e):
    out = {}
    for w, c in e.terms.items():
        for v, k in _expand(w).items():
            out[v] = out.get(v, 0) + Fraction(c) * k
    return out


def _reference_bracket(x, y):
    """All-Fraction bracket: associative commutator, then peel leading words."""
    return _peel(_commutator(_assoc(x), _assoc(y)))


def _reference_tree(e):
    """All-Fraction associative expansion of a bracket expression."""
    if e.is_leaf:
        return {(e.label,): Fraction(1)}
    return _commutator(_reference_tree(e.left), _reference_tree(e.right))


@pytest.mark.parametrize("labels, length", [((1, 2), n) for n in range(1, 6)]
                         + [((1, 2, 3), n) for n in range(1, 5)])
def test_to_lyndon_matches_fraction_reference(labels, length):
    from onsagerkit.onsager import all_bracket_words

    for expr in all_bracket_words(labels, length):
        assert to_lyndon(expr) == _peel(_reference_tree(expr)), expr


@settings(max_examples=150, deadline=None)
@given(ELEMENTS, ELEMENTS)
def test_lie_bracket_matches_fraction_reference(x, y):
    z = lie_bracket(x, y)
    assert z == _reference_bracket(x, y)
    assert z == -lie_bracket(y, x)
    assert all(type(c) in (int, Fraction) for c in z.terms.values())


def test_lie_bracket_of_integer_elements_stays_integer():
    x = FreeLieElement({(1,): 2, (1, 2): -3})
    y = FreeLieElement({(2,): 1, (1, 3): 5})
    assert all(type(c) is int for c in lie_bracket(x, y).terms.values())


def test_standard_factorization_rejects_short_words():
    with pytest.raises(ValueError):
        standard_factorization((1,))


def test_non_lie_leading_word_raises_under_optimize():
    # an internal fault: raised explicitly (so it survives python -O) and not
    # a ValueError, which the CLI would report as bad input; (2, 1) is not
    # Lyndon, and standard_factorization alone would split it silently
    assert not issubclass(NotALieElement, ValueError)
    with pytest.raises(NotALieElement):
        lie_bracket(FreeLieElement({(2, 1): 1}), FreeLieElement.generator(1))
    with pytest.raises(NotALieElement):
        lie_bracket(FreeLieElement.generator(3), FreeLieElement({(2, 1): 1}))
    code = (
        "from onsagerkit.freelie import FreeLieElement, NotALieElement, lie_bracket\n"
        "try:\n"
        "    lie_bracket(FreeLieElement({(2, 1): 1}), FreeLieElement.generator(1))\n"
        "except NotALieElement:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onsagerkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
