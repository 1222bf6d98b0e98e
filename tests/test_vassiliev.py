"""Tests for the series expansion and its finite-type vanishing."""

import random
from fractions import Fraction

import pytest

from knotgraph import catalog, vassiliev
from knotgraph.diagram import replace_kind
from knotgraph.graphinv import VASSILIEV, eval_graph
from knotgraph.ring import DELTA_POS, ONE, Series, rf, series_at_exp
from knotgraph.vassiliev import (VassilievReport, vanishing_order_check,
                                 vassiliev_series)


def test_links_start_at_one():
    for name in ("unknot", "two-circles", "kink+", "kink-", "hopf+",
                 "trefoil+", "figure-eight"):
        rep = vassiliev_series(catalog.named_diagram(name), 3)
        assert rep.series.coeffs[0] == 1, name


def test_unknot_series_is_constant():
    rep = vassiliev_series(catalog.named_diagram("unknot"), 4)
    assert rep.series == Series.const(1, 4)
    assert rep.vanishing_order == 0


def test_one_vertex_graph_series():
    rep = vassiliev_series(catalog.named_diagram("G_b_vertex"), 4)
    assert rep.series.coeffs == (0, -6, 24, -72, 160)
    assert rep.vanishing_order == 1
    assert rep.vanishes_below(1)
    assert not rep.vanishes_below(2)


def test_two_vertex_graph_series():
    rep = vassiliev_series(catalog.named_diagram("gb_2vert"), 4)
    assert rep.series.coeffs == (0, 0, 48, 0, 320)
    assert rep.vanishing_order == 2


def test_identically_zero_series_report():
    rep = vassiliev_series(catalog.named_diagram("G_a_vertex"), 4)
    assert rep.series.valuation() is None
    assert rep.vanishing_order is None
    assert rep.vanishes_below(7)


def test_vanishing_below_vertex_count():
    for j in (1, 2, 3):
        out = vanishing_order_check(j)
        assert out["failures"] == [], j
        assert all(isinstance(r, VassilievReport)
                   for r in out["reports"].values())


def test_vanishing_check_lists_each_graph_that_fails(monkeypatch):
    """Negative control: a series that does not vanish for the second
    two-vertex graph puts it, and only it, on the failures list."""
    real = vassiliev.vassiliev_series
    calls = []

    def stand_in(g, order):
        calls.append(g)
        return real(catalog.named_diagram("trefoil+") if len(calls) == 2
                    else g, order)

    monkeypatch.setattr(vassiliev, "vassiliev_series", stand_in)
    out = vanishing_order_check(2)
    assert out["failures"] == ["gb_2vert"]
    assert out["reports"]["gb_2vert"].vanishing_order == 0
    assert len(calls) == 8


def test_vanishing_check_rejects_unknown_counts():
    with pytest.raises(ValueError):
        vanishing_order_check(9)


def test_series_coefficients_are_exact_fractions():
    rep = vassiliev_series(catalog.named_diagram("trefoil+"), 5)
    assert all(isinstance(c, Fraction) for c in rep.series.coeffs)
    assert rep.series.coeffs[0] == 1
    assert rep.series.coeffs[1] == 0


def _braid_graph(rng, strands: int, crossings: int, vertices: int):
    """The closure of a random braid word with `vertices` of its letters
    drawn as rigid vertices."""
    word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
            for _ in range(crossings)]
    g = catalog.braid_closure(strands, word)
    for node in rng.sample(sorted(g.node_ids()), vertices):
        g = replace_kind(g, node, "Vert")
    return g


def test_series_matches_the_rational_function_route():
    """vassiliev_series divides the value's series by the unit series of
    (A^2 + A^-2)^(c-1); the reference divides the rational functions
    first and expands the quotient.  For c > 1 both quotients that are
    polynomials and quotients that are not occur."""
    rng = random.Random(71)
    seen, exact = set(), set()
    for _ in range(40):
        strands = rng.randint(2, 5)
        g = _braid_graph(rng, strands, rng.randint(3, 9), rng.randint(0, 3))
        c = g.components()
        seen.add(c)
        value = eval_graph(g, VASSILIEV) / rf(DELTA_POS ** (c - 1))
        if c > 1:
            exact.add(value.den == ONE)
        for order in range(13):
            rep = vassiliev_series(g, order)
            assert rep.series == series_at_exp(value, order)
            assert rep.series.render() == series_at_exp(value, order).render()
    assert seen >= {1, 2, 3, 4} and exact == {True, False}


def test_weight_system_ignores_crossing_changes():
    """The h^j coefficient of a j-vertex graph is its weight system: a
    crossing change alters the graph by a (j+1)-vertex graph, whose
    series vanishes below h^(j+1) (Bar-Natan, Topology 34, 1995).  The
    h^(j+1) coefficient is the negative control: it changes somewhere."""
    flip = {"XPos": "XNeg", "XNeg": "XPos"}
    rng = random.Random(73)
    for j in (1, 2, 3, 5, 8):
        nonzero = changed = 0
        for _ in range(8):
            g = _braid_graph(rng, rng.randint(2, 4), j + rng.randint(2, 6), j)
            before = vassiliev_series(g, j + 1).series.coeffs
            for node in rng.sample(g.crossings(), 2):
                h = replace_kind(g, node, flip[g.node_map()[node]])
                after = vassiliev_series(h, j + 1).series.coeffs
                assert after[:j + 1] == before[:j + 1], (j, node)
                nonzero += before[j] != 0
                changed += after[j + 1] != before[j + 1]
        assert nonzero > 0 and changed > 0, j


def test_k_vertices_kill_every_coefficient_below_h_k(monkeypatch):
    """A graph with k vertices has a series vanishing below h^k.  Braid
    closures on 3-5 strands with k + 8 crossings, k of them drawn as
    vertices.  Negative control: with one vertex put back as its
    crossing, some graph per k has valuation exactly k - 1."""
    monkeypatch.setenv("MAX_CROSSINGS", "64")
    rng = random.Random(7)
    for k in (4, 8, 12, 16, 20):
        sharp = 0
        for _ in range(10):
            strands = rng.randint(3, 5)
            link = catalog.braid_closure(
                strands, [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                          for _ in range(k + 8)])
            nodes = rng.sample(sorted(link.node_ids()), k)
            g = link
            for node in nodes:
                g = replace_kind(g, node, "Vert")
            assert vassiliev_series(g, k + 1).vanishes_below(k), k
            h = replace_kind(g, nodes[0], link.node_map()[nodes[0]])
            sharp += vassiliev_series(h, k + 1).vanishing_order == k - 1
        assert sharp > 0, k
