"""The fixed-basis structure sweep can fail, and says where."""

from fractions import Fraction

import pytest

from onsagerkit.cartan import preset
from onsagerkit.chevalley import StructureTable, build_chevalley
from onsagerkit.loop import YIndex
from onsagerkit.onsager import AffineRealization, realization_for
from onsagerkit.roots import AffineRoot
from onsagerkit.verify import check_affine_structure_constants, check_relations_killed

# [y(a1), y(a2+d)] = +-y(a1+a2+d) on C2~: one term, coefficient +-1
PAIR = (YIndex(AffineRoot((1, 0), 0)), YIndex(AffineRoot((0, 1), 1)))


def _corrupted(change):
    """A C2~ realization whose basis_bracket applies change at PAIR only."""
    rz = realization_for(preset("C2~"))
    exact = rz.basis_bracket

    def basis_bracket(u, v):
        got = exact(u, v)
        return change(got) if (u, v) == PAIR else got

    rz.basis_bracket = basis_bracket
    return rz


def test_sweep_names_a_negated_pair():
    rz = _corrupted(lambda got: {k: -c for k, c in got.items()})
    _, ok, detail = check_affine_structure_constants(rz)
    assert not ok
    assert detail == "[%s, %s] expansion differs" % PAIR


def test_sweep_reports_a_halved_coefficient():
    def halve(got):
        (key, c), = got.items()
        assert c % 2
        return {key: Fraction(c, 2)}

    _, ok, detail = check_affine_structure_constants(_corrupted(halve))
    assert not ok
    assert detail == "non-integer coefficient in [%s, %s]" % PAIR


def _neg(a):
    return tuple(-c for c in a)


@pytest.mark.parametrize("name", ["C2~", "G2~", "A2~"])
def test_flipped_sign_orbit_passes_the_sweep_and_fails_serre(name):
    # both sides of the sweep read N, so a table that keeps its sign laws but
    # has one sign orbit flipped passes it; the Serre relations catch it
    c = preset(name)
    t0 = build_chevalley(c.finite_part())
    n = dict(t0.N)
    a, b = min(n)
    for pair in ((a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))):
        n[pair] = -n[pair]
    rz = AffineRealization(c, StructureTable(t0.rs, n))
    _, ok, detail = check_affine_structure_constants(rz)
    assert ok, detail
    _, ok, detail = check_relations_killed(c, rz)
    assert not ok
    assert detail.startswith("nonzero image for generator pairs")
