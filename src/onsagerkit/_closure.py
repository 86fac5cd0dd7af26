"""Reflection closure of the simple roots of an integer Cartan matrix.

Shared low-level helper: both the Cartan-matrix presets (which need the
highest root to extend a finite matrix to its affine companion) and the root
system module build on it.
"""

from __future__ import annotations

_CLOSURE_CAP = 250000


def root_closure(a):
    """All roots of the finite-type matrix `a`, closed under simple reflections.

    Roots are integer tuples over the simple roots.  s_i(v) = v - <v, i> a_i
    with pairing <v, i> = sum_j v_j a[i][j].  Only terminates for finite type;
    a generous cap guards against misuse.
    """
    n = len(a)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                pairing = sum(v[j] * a[i][j] for j in range(n))
                if pairing == 0:
                    continue
                w = tuple(v[j] - (pairing if j == i else 0) for j in range(n))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if len(seen) > _CLOSURE_CAP:
            raise RuntimeError("reflection closure did not terminate: matrix is not of finite type")
    return seen


def positive_roots(a):
    """Positive roots of a finite-type matrix, sorted by (height, coords)."""
    pos = [v for v in root_closure(a) if all(c >= 0 for c in v)]
    pos.sort(key=lambda v: (sum(v), v))
    return pos


def highest_root(a):
    """The unique maximal-height root of a finite-type indecomposable matrix."""
    pos = positive_roots(a)
    top = pos[-1]
    same = [v for v in pos if sum(v) == sum(top)]
    if len(same) != 1:
        raise ValueError("no unique highest root: matrix is decomposable")
    return top
