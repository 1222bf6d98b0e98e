"""The engine against values that do not come from a state sum: Jones's
closed form for torus knots, the Fox-colouring determinant and the
Polyak-Viro count of c2, on links of up to 110 crossings, far beyond
bracket_naive; and graphs against the sl2 weight system of their chord
diagrams."""

import random
from fractions import Fraction

import pytest

from conftest import disjoint_union
from oracles import (crossing_sign, fox_determinant, gauss_code,
                     polyak_viro_c2, sl2_weight, torus_jones,
                     value_at_zeta_squared)
from knotgraph.bracket import p_eval
from knotgraph.catalog import braid_closure, named_diagram
from knotgraph.diagram import replace_kind
from knotgraph.graphinv import CASIMIR_PLAIN, VASSILIEV, eval_graph
from knotgraph.ring import LaurentPoly, poly_series


@pytest.fixture(autouse=True)
def _no_cap(monkeypatch):
    monkeypatch.setenv("MAX_CROSSINGS", "200")


def _torus(p, q):
    """T(p, q) as the closure of the positive braid (s1 ... s(p-1))^q."""
    return braid_closure(p, [(i, 1) for i in range(1, p)] * q)


def _corrupt(poly):
    """poly with its top coefficient raised by one."""
    return poly + LaurentPoly.monomial(poly.terms[0][0])


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


def _seeded_knots(rng, count, low, high, max_strands=4):
    """Closures of random 2- to max_strands-strand braid words of low-high
    letters that are knots."""
    knots = []
    while len(knots) < count:
        strands = rng.randint(2, max_strands)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(low, high))]
        d = braid_closure(strands, word)
        if d.components() == 1 and d.nodes:
            knots.append(d)
    return knots


def _c2_cases():
    """(Gauss code, crossing signs, h^2 coefficient of p_eval) of seeded
    knots of 5-40 and of 40-110 crossings."""
    knots = (_seeded_knots(random.Random(3), 20, 5, 40)
             + _seeded_knots(random.Random(17), 10, 40, 110))
    for d in knots:
        sign = {x: crossing_sign(d, x) for x in d.crossings()}
        yield gauss_code(d), sign, poly_series(p_eval(d), 2).coeffs[2]


def test_h2_coefficient_is_minus_48_c2_on_seeded_knots():
    trefoil = named_diagram("trefoil+")
    assert polyak_viro_c2(gauss_code(trefoil),
                          {x: 1 for x in trefoil.crossings()}) == 1
    nonzero = 0
    for code, sign, h2 in _c2_cases():
        c2 = polyak_viro_c2(code, sign)
        assert h2 == -48 * c2, (len(sign), c2, h2)
        nonzero += c2 != 0
    assert nonzero >= 20


def test_c2_oracle_rejects_a_flipped_crossing_sign():
    """On every knot, the count with some one crossing's sign flipped
    fails the h^2 check."""
    for code, sign, h2 in _c2_cases():
        assert any(h2 != -48 * polyak_viro_c2(code, dict(sign, **{x: -s}))
                   for x, s in sign.items())


def test_sl2_weight_of_small_chord_diagrams():
    """j isolated chords give dim V * c^j with the Casimir value c = 3/2;
    two interlaced chords give 1/2 - 2 - 2 + 2 over S = {}, {a}, {b},
    {a, b} (1, 2, 2 and 1 circles)."""
    for j in range(1, 5):
        assert sl2_weight("aabbccdd"[:2 * j]) == 2 * Fraction(3, 2) ** j
    assert sl2_weight("abab") == Fraction(-3, 2)


def _weight_cases():
    """(graph, vertex count j, chord order) for 120 seeded braid-closure
    knots of 2-5 strands and 6-20 crossings, j in 1..8 of them drawn as
    rigid vertices.  The chord order is the knot's Gauss code, read
    before its crossings become vertices, restricted to the vertices."""
    rng = random.Random(29)
    for d in _seeded_knots(rng, 120, 6, 20, max_strands=5):
        j = rng.randint(1, min(8, len(d.crossings())))
        vertices = set(rng.sample(d.crossings(), j))
        g = d
        for v in vertices:
            g = replace_kind(g, v, "Vert")
        yield g, j, [x for x, _ in gauss_code(d) if x in vertices]


def _z_series(g, j):
    return poly_series(eval_graph(g, VASSILIEV, level="z").as_poly(),
                       j + 1).coeffs


def test_top_coefficient_is_the_sl2_weight_system():
    """The paper's finite-type claim, exactly: a one-component graph with
    j rigid vertices has a z series under VASSILIEV that vanishes below
    h^j, and its h^j coefficient is 2^(2j-1) W(D) for the chord diagram
    D of its vertices."""
    counts = set()
    for g, j, chords in _weight_cases():
        coeffs = _z_series(g, j)
        assert coeffs[:j] == (0,) * j, (j, chords)
        assert coeffs[j] == 2 ** (2 * j - 1) * sl2_weight(chords), chords
        counts.add(j)
    assert counts == set(range(1, 9))


def test_weight_system_check_fails_off_the_casimir():
    """Negative controls: with P + 1/2 in place of the Casimir P - 1/2 the
    h^j coefficient differs on every graph, and CASIMIR_PLAIN, which is
    not of finite type, has a nonzero value at A = 1 (so a nonzero h^0
    coefficient) on every graph."""
    for g, j, chords in _weight_cases():
        assert _z_series(g, j)[j] != 2 ** (2 * j - 1) * sl2_weight(
            chords, Fraction(1, 2)), chords
        value = eval_graph(g, CASIMIR_PLAIN, level="z").as_poly()
        assert value.eval_at_one() != 0, chords
