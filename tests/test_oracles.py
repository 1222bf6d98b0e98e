"""The engine against values that do not come from a state sum: Jones's
closed form for torus knots and the Fox-colouring determinant, on links
of up to 99 crossings, far beyond bracket_naive."""

import random

import pytest

from oracles import fox_determinant, torus_jones, value_at_zeta_squared
from knotgraph.bracket import p_eval
from knotgraph.catalog import braid_closure, named_diagram
from knotgraph.diagram import disjoint_union
from knotgraph.ring import LaurentPoly


@pytest.fixture(autouse=True)
def _no_cap(monkeypatch):
    monkeypatch.setenv("MAX_CROSSINGS", "200")


def _torus(p, q):
    """T(p, q) as the closure of the positive braid (s1 ... s(p-1))^q."""
    return braid_closure(p, [(i, 1) for i in range(1, p)] * q)


def _corrupt(poly):
    """poly with its top coefficient raised by one."""
    return poly + LaurentPoly.monomial(poly.max_exp())


def test_torus_knots_t_p_p_plus_1_match_jones():
    for p in range(2, 10):
        assert p_eval(_torus(p, p + 1)) == torus_jones(p, p + 1), p


def test_torus_knots_t_2_n_match_jones():
    for n in range(3, 100, 2):
        assert p_eval(_torus(2, n)) == torus_jones(2, n), n


def test_jones_oracle_rejects_a_corrupted_coefficient():
    assert torus_jones(2, 3) == p_eval(named_diagram("trefoil+"))
    for p, q in ((2, 3), (2, 51), (5, 6)):
        assert _corrupt(p_eval(_torus(p, q))) != torus_jones(p, q)


def _seeded_links(rng, want_knots, want_links):
    """Closures of random 3- and 4-strand braid words of 40-90 letters,
    sorted into knots and links until there are enough of each."""
    knots, links = [], []
    while len(knots) < want_knots or len(links) < want_links:
        strands = rng.randint(3, 4)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(40, 90))]
        d = braid_closure(strands, word)
        (knots if d.components() == 1 else links).append(d)
    return knots[:want_knots] + links[:want_links]


def test_determinant_matches_p_at_zeta_on_seeded_knots_and_links():
    for d in _seeded_links(random.Random(5), 8, 8):
        det = fox_determinant(d)
        assert det > 0 or d.components() > 1
        assert value_at_zeta_squared(p_eval(d)) == det * det


def test_split_links_have_determinant_zero():
    # one component crosses the other twice, over both times: it never
    # passes under, so the matrix has a column too many
    over = braid_closure(2, [(1, 1), (1, -1)])
    knot = _seeded_links(random.Random(6), 1, 0)[0]
    for d in (over, disjoint_union(knot, over), disjoint_union(knot, knot)):
        assert fox_determinant(d) == 0
        assert value_at_zeta_squared(p_eval(d)) == 0


def test_determinant_oracle_rejects_a_corrupted_coefficient():
    """Raising one coefficient moves the real or the imaginary part of
    P(zeta) by one, which always changes |P(zeta)|^2."""
    assert fox_determinant(named_diagram("trefoil+")) == 3
    assert fox_determinant(named_diagram("figure-eight")) == 5
    for d in _seeded_links(random.Random(7), 3, 3):
        det = fox_determinant(d)
        assert value_at_zeta_squared(_corrupt(p_eval(d))) != det * det
