"""Tests for the local moves: validity, invertibility, and invariance of
the writhe-normalised value."""

import itertools
import random

import pytest

from conftest import grow_with_moves, random_braid_link, random_vertex_graph
from knotgraph import catalog, moves
from knotgraph.bracket import naive_profile, p_eval
from knotgraph.corpus import corpus_diagrams
from knotgraph.graphinv import CASIMIR_PLAIN, VASSILIEV, eval_graph
from knotgraph.moves import (KINK_VARIANTS, MoveError, MoveSpec,
                             applicable_moves, apply_move, find_r1_minus,
                             find_r2_minus, find_slides,
                             r1_minus, r1_plus, r2_minus, r2_plus,
                             random_walk, slide)


def _staged_graphs(rng, count):
    """Vertex graphs with a strand pushed across two arcs at a vertex,
    which stages R4 and R5 sites."""
    for _ in range(count):
        base = random_vertex_graph(rng, steps=rng.randint(0, 1))
        v = rng.choice(base.vertices())
        at_v = [a for a in base.arcs if v in (a[0][0], a[1][0])]
        if len(at_v) >= 2:
            yield r2_plus(base, *rng.sample(at_v, 2))


def test_curl_insert_and_remove_are_inverse():
    rng = random.Random(21)
    for _ in range(10):
        d = random_braid_link(rng)
        arc = rng.choice(d.arcs)
        variant = rng.choice(sorted(KINK_VARIANTS))
        kinked = r1_plus(d, arc, variant)
        assert kinked.validate() == []
        assert len(kinked.crossings()) == len(d.crossings()) + 1
        sites = find_r1_minus(kinked)
        assert sites
        back = [r1_minus(kinked, s.site[0]) for s in sites]
        assert any(b.same_as(d) for b in back)


def test_slide_insert_and_remove_are_inverse():
    rng = random.Random(22)
    for _ in range(10):
        d = random_braid_link(rng)
        a1, a2 = rng.sample(list(d.arcs), 2)
        pushed = r2_plus(d, a1, a2)
        assert pushed.validate() == []
        assert len(pushed.crossings()) == len(d.crossings()) + 2
        assert any(r2_minus(pushed, *s.site).same_as(d)
                   for s in find_r2_minus(pushed))


def test_r1_minus_rejects_non_curls():
    d = catalog.named_diagram("trefoil+")
    with pytest.raises(MoveError):
        r1_minus(d, "c0")


def test_r1_minus_rejects_rigid_vertices():
    """Rigid-vertex isotopy has no R1 move at a vertex, so R1- refuses
    every vertex, one with a loop on adjacent ports too, and still
    removes a crossing's kink."""
    diagrams = corpus_diagrams()
    looped = 0
    for name in ("G_a_vertex", "G_a_composite", "ga_2vert", "flower3"):
        g = diagrams[name + ".dg"]
        for v in g.vertices():
            looped += any(a == b == v for (a, _), (b, _) in g.arcs)
            with pytest.raises(MoveError):
                r1_minus(g, v)
            with pytest.raises(MoveError):
                apply_move(g, MoveSpec("R1-", (v,)))
    assert looped >= 4
    d = catalog.named_diagram("trefoil+")
    kinked = r1_plus(d, d.arcs[0], "-b")
    k = next(n for n in kinked.node_ids() if n not in d.node_ids())
    assert r1_minus(kinked, k).same_as(d)
    assert apply_move(kinked, MoveSpec("R1-", (k,))).same_as(d)


def test_r2_minus_rejects_non_cancelling_pairs():
    d = catalog.named_diagram("hopf+")
    with pytest.raises(MoveError):
        r2_minus(d, "n0", "n1")


def test_triangle_slide_preserves_the_value():
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        d = grow_with_moves(rng, random_braid_link(rng), 2, cap=6)
        sites = [m for m in find_slides(d) if m.move == "R3"]
        if not sites:
            continue
        found += 1
        m = rng.choice(sites)
        after = slide(d, m)
        assert after.validate() == []
        assert p_eval(after) == p_eval(d)
    assert found >= 10


def test_vertex_slides_preserve_all_schemes():
    found4 = found5 = 0
    for g in _staged_graphs(random.Random(24), 25):
        assert g.validate() == []
        for label in ("R4", "R5"):
            for m in [m for m in find_slides(g) if m.move == label][:2]:
                after = apply_move(g, m)
                assert after.validate() == []
                for scheme in (VASSILIEV, CASIMIR_PLAIN):
                    assert eval_graph(after, scheme) == eval_graph(g, scheme)
                if label == "R4":
                    found4 += 1
                else:
                    found5 += 1
    assert found4 >= 5 and found5 >= 5


def test_self_inverse_moves_round_trip():
    rng = random.Random(25)
    for _ in range(25):
        g = random_vertex_graph(rng, steps=1)
        for m in applicable_moves(g):
            if m.move not in ("R3", "R4", "R5"):
                continue
            after = apply_move(g, m)
            assert any(apply_move(after, s).same_as(g)
                       for s in find_slides(after) if s.move == m.move)


def test_random_walks_preserve_the_normalised_value():
    rng = random.Random(27)
    for _ in range(40):
        d = random_braid_link(rng)
        before = p_eval(d)
        after = random_walk(d, 4, rng)
        assert after.validate() == []
        assert p_eval(after) == before


def test_applicable_moves_all_apply():
    rng = random.Random(28)
    graphs = [random_vertex_graph(rng, steps=1) for _ in range(10)]
    graphs += [grow_with_moves(rng, random_braid_link(rng, 6, 4), 2)
               for _ in range(30)]
    r2_sites = 0
    for g in graphs:
        for m in applicable_moves(g):
            assert apply_move(g, m).validate() == []
            if m.move == "R2-":
                # find_r2_minus does not test this; its docstring says why
                a, b = m.site
                (p1, q1), (p2, q2) = [(t[1], h[1]) for t, h in g.arcs
                                      if (t[0], h[0]) == (a, b)]
                assert (p1 - p2) % 4 in (1, 3) and (q1 - q2) % 4 in (1, 3)
                r2_sites += 1
    assert r2_sites >= 20


def test_find_slides_matches_subset_oracle():
    """The finder returns exactly the 2- and 3-subsets of arcs that the
    slide predicate labels, once each, in (label, nodes) order."""
    rng = random.Random(59)
    diagrams = [random_vertex_graph(rng, steps=2) for _ in range(12)]
    diagrams += [grow_with_moves(rng, random_braid_link(rng, 6, 4), 3)
                 for _ in range(12)]
    diagrams += list(_staged_graphs(rng, 12))
    labels = set()
    for d in diagrams:
        kinds = d.node_map()
        oracle = {(label, frozenset(site))
                  for k in (2, 3) for site in itertools.combinations(d.arcs, k)
                  for label in [moves._slide_label(kinds, site)] if label}
        found = find_slides(d)
        sites = [(m.move, frozenset(m.site)) for m in found]
        assert len(set(sites)) == len(sites)
        assert set(sites) == oracle
        rank = {n: i for i, n in enumerate(d.vertices() + d.crossings())}
        keys = [(m.move, sorted(rank[n] for n in {e[0] for a in m.site
                                                  for e in a}))
                for m in found]
        assert keys == sorted(keys)
        labels.update(m.move for m in found)
    assert labels == {"R3", "R4", "R5"}


def test_slide_rejects_bad_sites():
    g, m = next((g, m) for g in _staged_graphs(random.Random(24), 25)
                for m in find_slides(g) if m.move == "R4")
    assert apply_move(g, m).validate() == []
    # the label must match the site
    for label in ("R3", "R5"):
        with pytest.raises(MoveError):
            apply_move(g, MoveSpec(label, m.site))
    # arcs that form no triangle: the third arc does not join a and b
    ab = {n for n, _ in m.site[2]}
    other = next(a for a in g.arcs if {n for n, _ in a} != ab)
    with pytest.raises(MoveError):
        apply_move(g, MoveSpec("R4", m.site[:2] + (other,)))
    # a site arc missing from the diagram
    with pytest.raises(MoveError):
        apply_move(g, MoveSpec("R4", m.site[:2] + ((("zz", 0), ("zz", 2)),)))


def test_r2_plus_refuses_one_arc_twice():
    d = catalog.named_diagram("hopf+")
    with pytest.raises(MoveError, match="^R2 needs two distinct arcs$"):
        r2_plus(d, d.arcs[0], d.arcs[0])


def test_apply_move_refuses_an_unknown_move():
    d = catalog.named_diagram("hopf+")
    with pytest.raises(MoveError, match="^unknown move 'R6'$"):
        apply_move(d, MoveSpec("R6", (d.arcs[0],)))


def test_tangle_profiles_match_brute_force(monkeypatch):
    """Every open-tangle state sum the R3/R4/R5 site search asks for,
    before and after the swap, equals the brute-force one, term by term."""
    engine = moves.contract
    asked = []

    def checked(tables, arcs):
        got = engine(tables, arcs)
        asked.append((dict(tables), list(arcs), got))
        return got

    monkeypatch.setattr(moves, "contract", checked)
    rng = random.Random(57)
    found = set()
    for trial in range(30):
        if trial % 2:
            d = random_vertex_graph(rng, steps=2)
        else:
            d = grow_with_moves(rng, random_braid_link(rng, 6, 4), 3)
        found.update(m.move for m in applicable_moves(d)
                     if m.move in ("R3", "R4", "R5"))
    assert found == {"R3", "R4", "R5"}
    assert len(asked) > 100
    for tables, arcs, got in asked:
        assert got == naive_profile(tables, arcs)
