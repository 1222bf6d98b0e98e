"""Tests for the state-sum engine: values, relations, and the agreement
between the naive and the dynamic-programming evaluators."""

import random
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (disjoint_union, grow_with_moves, mirror,
                      random_braid_link, random_vertex_graph, raw,
                      reverse_component, trace_components)
from oracles import crossing_sign, torus_jones
from knotgraph import bracket, catalog, moves
from knotgraph.bracket import (CROSSING_TABLES, bracket_naive, contract,
                               max_crossings, naive_profile, p_eval, z_eval)
from knotgraph.bracket import _absorb_twists, _node_order, _plan
from knotgraph.diagram import (Diagram, DiagramError, replace_kind,
                               vertex_ports)
from knotgraph.graphinv import (CASIMIR_MARKED, CASIMIR_PLAIN, VASSILIEV,
                                ResolutionScheme, eval_graph,
                                eval_with_casimir_marks, resolve_vertices,
                                vertex_to_crossing, vertex_unfold)
from knotgraph.moves import KINK_VARIANTS, find_r2_minus, r1_plus, r2_plus
from knotgraph.ring import (A, A_INV, DELTA_POS, LOOP, RF_ZERO, LaurentPoly,
                            RingError, _exact_div, _terms, _times, parse_poly,
                            rf)

_LOOP = _terms(LOOP)
# the (A, 2, -3A^-1) scheme: no vertex weight vanishes
_GENERAL = ResolutionScheme(rf(A), rf(LaurentPoly.const(2)),
                            rf(A_INV.scale(-3)))


def test_crossingless_values():
    assert z_eval(catalog.named_diagram("unknot")).render() == "1"
    assert z_eval(catalog.named_diagram("two-circles")) == DELTA_POS
    assert p_eval(catalog.named_diagram("unknot")).render() == "1"


def test_reference_values():
    expect = {
        "kink+": "A^3",
        "kink-": "A^-3",
        "hopf+": "A^4 + A^-4",
        "hopf-": "A^4 + A^-4",
        "trefoil+": "A^5 + A^-3 + -1*A^-7",
        "trefoil-": "-1*A^7 + A^3 + A^-5",
        "figure-eight": "A^8 + -1*A^4 + 1 + -1*A^-4 + A^-8",
    }
    for name, text in expect.items():
        assert z_eval(catalog.named_diagram(name)) == parse_poly(text), name


def test_writhe_normalised_values():
    assert p_eval(catalog.named_diagram("kink+")).render() == "1"
    assert p_eval(catalog.named_diagram("kink-")).render() == "1"
    tre = parse_poly("A^-4 + A^-12 + -1*A^-16")
    assert p_eval(catalog.named_diagram("trefoil+")) == tre
    assert p_eval(catalog.named_diagram("trefoil+_alt")) == tre
    assert p_eval(catalog.named_diagram("trefoil-")) == tre.substitute_inverse()


def test_naive_and_dp_agree_on_random_links():
    rng = random.Random(11)
    for _ in range(30):
        d = grow_with_moves(rng, random_braid_link(rng), rng.randint(0, 2),
                            cap=6)
        assert z_eval(d) == bracket_naive(d)


def test_mirror_inverts_the_variable():
    rng = random.Random(12)
    for _ in range(15):
        d = random_braid_link(rng)
        assert z_eval(mirror(d)) == z_eval(d).substitute_inverse()
        assert p_eval(mirror(d)) == p_eval(d).substitute_inverse()


def test_component_reversal_preserves_the_value():
    rng = random.Random(13)
    for _ in range(10):
        d = random_braid_link(rng)
        r = reverse_component(d, rng.randrange(len(trace_components(d))))
        assert z_eval(r) == z_eval(d)


def test_crossing_replacement_relation():
    # A*raw(+) - A^-1*raw(-) = (A^2 - A^-2)*raw(oriented smoothing)
    rng = random.Random(14)
    for _ in range(40):
        d = random_braid_link(rng)
        c = rng.choice(d.crossings())
        g = replace_kind(d, c, "Vert")
        lhs = A * raw(vertex_to_crossing(g, c, +1)) \
            - A_INV * raw(vertex_to_crossing(g, c, -1))
        rhs = (A * A - A_INV * A_INV) * raw(vertex_unfold(g, c))
        assert lhs == rhs


def test_curl_multiplies_by_a_cubed():
    rng = random.Random(15)
    for _ in range(20):
        d = random_braid_link(rng)
        arc = rng.choice(d.arcs)
        variant = rng.choice(sorted(KINK_VARIANTS))
        sign = 1 if variant.startswith("+") else -1
        kinked = r1_plus(d, arc, variant)
        assert z_eval(kinked) == z_eval(d) * LaurentPoly.monomial(3 * sign)
        assert p_eval(kinked) == p_eval(d)


def test_extra_circle_multiplies_by_the_loop_value():
    rng = random.Random(16)
    for _ in range(15):
        d = random_braid_link(rng)
        plus = Diagram.make(d.node_map(), d.arcs, d.free_loops + 1)
        assert z_eval(plus) == z_eval(d) * DELTA_POS


def test_rejects_vertices():
    with pytest.raises(DiagramError):
        z_eval(catalog.named_diagram("G_a_vertex"))


def test_crossing_cap(monkeypatch):
    monkeypatch.setenv("MAX_CROSSINGS", "2")
    assert max_crossings() == 2
    with pytest.raises(DiagramError):
        z_eval(catalog.named_diagram("trefoil+"))
    hopf = catalog.named_diagram("hopf+")
    assert z_eval(hopf) == parse_poly("A^4 + A^-4")
    # each free loop counts: hopf+ with one loop is 3 at cap 2
    with pytest.raises(DiagramError):
        z_eval(Diagram.make(hopf.node_map(), hopf.arcs, 1))
    with pytest.raises(DiagramError):
        bracket_naive(Diagram.make(hopf.node_map(), hopf.arcs, 1))
    monkeypatch.delenv("MAX_CROSSINGS")
    with pytest.raises(DiagramError):
        z_eval(Diagram.make(hopf.node_map(), hopf.arcs, 10 ** 11))


def _split_or_looped(rng, kind):
    """A seeded link of up to 10 crossings on 2-4 strands: a plain braid
    closure, a split one (the frontier empties between the parts) or one
    with free loops."""
    if kind == "split":
        return disjoint_union(random_braid_link(rng, 5, 4),
                              random_braid_link(rng, 5, 4))
    d = random_braid_link(rng, 10, 4)
    if kind == "loops":
        d = Diagram.make(d.node_map(), d.arcs, rng.randint(1, 2))
    return d


def test_naive_and_dp_agree_on_wider_links():
    rng = random.Random(17)
    sizes = []
    for kind in ("link", "split", "loops") * 14:
        d = _split_or_looped(rng, kind)
        sizes.append(len(d.nodes))
        assert z_eval(d) == bracket_naive(d)
    assert max(sizes) == 10


def test_values_keep_fraction_coefficients():
    value = z_eval(catalog.named_diagram("trefoil+"))
    assert value.terms and all(type(c) is Fraction for _, c in value.terms)


@given(st.dictionaries(st.integers(-12, 12),
                       st.integers(-9, 9) | st.fractions(max_denominator=5),
                       max_size=6))
def test_loop_division_is_exact(p):
    p = {e: c for e, c in p.items() if c}
    assert _exact_div(_times(p, _LOOP), _LOOP) == p
    if p:
        with pytest.raises(RingError):
            _exact_div(_times(p, _LOOP) | {max(p) + 9: 1}, _LOOP)


def test_loop_division_rejects_non_multiples():
    assert _exact_div({4: 1, 0: 1}, _LOOP) == {2: -1}  # A^4 + 1 = -A^2 LOOP
    for bad in ({0: 1}, {2: 1}, {4: 1, 0: 2}, {6: 1, -2: 1}):
        with pytest.raises(RingError):
            _exact_div(bad, _LOOP)


def _last_reached(at, arcs):
    """The last node that a breadth-first search from the first node in
    sorted order reaches, taking each node's neighbours in arc order."""
    nbrs = {n: [] for n in at}
    for (a, _), (b, _) in arcs:
        if a != b:
            nbrs[a].append(b)
            nbrs[b].append(a)
    queue = deque(sorted(at)[:1])
    seen = set(queue)
    last = None
    while queue:
        last = queue.popleft()
        for m in nbrs[last]:
            if m not in seen:
                seen.add(m)
                queue.append(m)
    return last


def _greedy_from(at, arcs, start):
    """The greedy order from start (None: the least growth first)
    recomputed from scratch at every step: each waiting node's growth is
    summed over its arcs again, and each of its ports on no arc, a
    boundary end that stays open, counts +1.  Also returns the frontier
    after each step."""
    remaining = sorted(at)
    processed = set()
    open_arcs = set()
    boundary = 0
    order, widths = [], []

    def growth(n):
        return 4 - len(at[n]) + sum(
            -1 if ai in open_arcs else 1 for ai in set(at[n].values())
            if not arcs[ai][0][0] == arcs[ai][1][0] == n)

    while remaining:
        if order or start is None:
            best = min(remaining, key=growth)
        else:
            best = start
        order.append(best)
        remaining.remove(best)
        processed.add(best)
        boundary += 4 - len(at[best])
        for ai in set(at[best].values()):
            (a, _), (b, _) = arcs[ai]
            if a in processed and b in processed:
                open_arcs.discard(ai)
            else:
                open_arcs.add(ai)
        widths.append(len(open_arcs) + boundary)
    return order, widths


def _greedy_order(at, arcs):
    """The greedy order from _last_reached, or from the least-growth node
    where that one is narrower at its widest step."""
    if not at:
        return []
    near, far = (_greedy_from(at, arcs, start)
                 for start in (None, _last_reached(at, arcs)))
    return near[0] if max(near[1]) < max(far[1]) else far[0]


def _ports_at(nodes, arcs):
    at = {n: {} for n in nodes}
    for ai, arc in enumerate(arcs):
        for n, p in arc:
            at[n][p] = ai
    return at


def _graph_and_tangles(rng):
    """The node sets and arcs of a seeded vertex graph and of two open
    tangles cut from it, whose ports on no arc are boundary ends."""
    g = random_vertex_graph(rng, rng.randint(0, 3))
    cases = [(g.node_ids(), g.arcs)]
    # some of the nodes and the arcs between them: each end of an arc to
    # another node is a boundary port
    part = [n for n in g.node_ids() if rng.random() < 0.6]
    inner = [a for a in g.arcs if a[0][0] in part and a[1][0] in part]
    cases.append((part, inner))
    # the same nodes with some inner arcs cut too
    cases.append((part, [a for a in inner if rng.random() < 0.7]))
    return cases


def test_incremental_order_matches_greedy_oracle():
    rng = random.Random(18)
    cases = []
    for _ in range(60):
        d = random_braid_link(rng, 12, 5)
        cases.append((d.node_ids(), d.arcs))
    for _ in range(40):
        cases += _graph_and_tangles(rng)
    # split links: the search from node 0 never leaves its own part
    for _ in range(10):
        d = disjoint_union(random_braid_link(rng, 6, 4),
                           random_braid_link(rng, 6, 4))
        cases.append((d.node_ids(), d.arcs))
    # one node: kinks, a vertex with a petal, and a crossing of the Hopf
    # link cut out with its four ports as boundary ends
    for name in ("kink+", "kink-", "G_a_vertex"):
        d = catalog.named_diagram(name)
        cases.append((d.node_ids(), d.arcs))
    cases.append((["n0"], []))
    for nodes, arcs in cases:
        at = _ports_at(nodes, arcs)
        assert _node_order(at, arcs) == _greedy_order(at, arcs)


def test_boundary_ports_may_outnumber_arcs():
    """A lone crossing is four boundary ports and no arc, and a crossing
    with a self-loop two ports and one arc, so the frontier holds more
    ends than the tangle has arcs.  The order and its widest frontier are
    the oracle's, and the state sum is the brute-force one."""
    loops = ([], [(("c", 2), ("c", 1))], [(("c", 0), ("c", 3))],
             [(("c", 0), ("c", 2))])
    cases = [({"c": kind}, arcs) for kind in CROSSING_TABLES for arcs in loops]
    # two crossings: apart, or joined by one arc
    cases += [({"c": "XPos", "d": "XNeg"}, arcs)
              for arcs in ([], [(("c", 0), ("d", 1))])]
    for kinds, arcs in cases:
        at = _ports_at(kinds, arcs)
        steps = _plan(at, arcs)[0]
        assert [step[0] for step in steps] == _greedy_order(at, arcs)
        assert (max(step[6] for step in steps)
                == max(_greedy_from(at, arcs, None)[1]) > len(arcs))
        tables = {n: CROSSING_TABLES[k] for n, k in kinds.items()}
        assert contract(tables, arcs) == naive_profile(tables, arcs)


def test_plan_is_never_wider_than_from_the_least_growth_node():
    """On wide braid closures a start at _last_reached often widens the
    frontier.  The plan's widest frontier is never above that of the
    greedy from the least-growth node, and sometimes below it."""
    rng = random.Random(20)
    far_wider = narrower = 0
    for _ in range(16):
        strands = rng.randint(6, 10)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(60, 150))]
        d = catalog.braid_closure(strands, word)
        at = _ports_at(d.node_ids(), d.arcs)
        widest = max(step[6] for step in _plan(at, d.arcs)[0])
        near = max(_greedy_from(at, d.arcs, None)[1])
        far = max(_greedy_from(at, d.arcs, _last_reached(at, d.arcs))[1])
        assert widest == min(near, far)
        far_wider += far > near
        narrower += widest < near
    assert far_wider >= 4 and narrower >= 2


def _shuffled_orders(seed):
    """A stand-in for _node_order that returns a seeded random
    permutation of the nodes: any permutation is a valid order."""
    rng = random.Random(seed)

    def order(at, arcs):
        nodes = sorted(at)
        rng.shuffle(nodes)
        return nodes
    return order


def _kinked_or_looped(rng):
    """A seeded braid closure with up to two kinks and free loops."""
    d = random_braid_link(rng, 8, 4)
    for _ in range(rng.randint(0, 2)):
        d = r1_plus(d, rng.choice(d.arcs), rng.choice(sorted(KINK_VARIANTS)))
    return Diagram.make(d.node_map(), d.arcs, rng.randint(0, 2))


def test_random_node_orders_give_the_greedy_values(monkeypatch):
    """The value must not depend on the node order: links with kinks and
    free loops, vertex graphs under three schemes, and every open tangle
    that the slide search contracts."""
    rng = random.Random(19)
    links = [_kinked_or_looped(rng) for _ in range(25)]
    links += [disjoint_union(random_braid_link(rng, 5, 4),
                             random_braid_link(rng, 5, 4)) for _ in range(5)]
    graphs = [random_vertex_graph(rng, rng.randint(0, 3)) for _ in range(25)]
    tangles = []

    def recorded(tables, arcs):
        tangles.append((dict(tables), list(arcs)))
        return contract(tables, arcs)

    with monkeypatch.context() as m:
        m.setattr(moves, "contract", recorded)
        for d in graphs + links:
            moves.find_slides(d)
    assert len(tangles) > 50

    def values():
        return ([z_eval(d) for d in links],
                [eval_graph(g, s, level) for g in graphs
                 for s, level in ((VASSILIEV, "p"), (CASIMIR_PLAIN, "z"),
                                  (_GENERAL, "p"))],
                [contract(tables, arcs) for tables, arcs in tangles])

    greedy = values()
    for seed in range(3):
        monkeypatch.setattr(bracket, "_node_order", _shuffled_orders(seed))
        assert values() == greedy


def test_plan_gives_each_open_arc_its_own_slot():
    """Replaying the plan on links with kinks, vertex graphs and open
    tangles: a closing port frees the slot its arc holds, an opening port
    (on an arc, or a boundary end on none) takes a slot no open arc or
    end holds, the recorded width is the number of open arcs and placed
    boundary ends, and there are no more slots than the widest frontier
    needs.  A step's getters read what its fixed tuple and port map say,
    and it clears exactly the freed slots no opening port takes.  The
    slots left open are the boundary ends, each named by its end."""
    rng = random.Random(20)
    cases = []
    for _ in range(20):
        d = _kinked_or_looped(rng)
        cases.append((d.node_ids(), d.arcs))
        cases += _graph_and_tangles(rng)
    for nodes, arcs in cases:
        at = _ports_at(nodes, arcs)
        steps, ends, width = _plan(at, arcs)
        assert [step[0] for step in steps] == _node_order(at, arcs)
        held, placed, widths = {}, set(), []
        probe = tuple(range(5 + width))
        for node, fixed, mates_of, port_at, dest_of, cleared, w in steps:
            placed.add(node)
            closing = {p: s for s, p in enumerate(port_at[:-5]) if p >= 0}
            opening = {p: fixed[p] for p in range(4) if fixed[p] >= 0}
            loops = [(p, -2 - fixed[p]) for p in range(4) if fixed[p] < -1]
            assert port_at[-5:] == [3, 2, 1, 0, -1] and fixed[4] == -1
            for p in range(4):
                s = closing.get(p)
                assert dest_of(probe)[p] == (p if s is None else 5 + s)
                assert mates_of(probe)[p] == (
                    5 + s if s is not None else p if fixed[p] < -1 else 4)
            for p, s in closing.items():
                assert held.pop(at[node][p]) == s
            assert set(cleared) == (set(closing.values())
                                    - set(opening.values()))
            for p, s in opening.items():
                assert 0 <= s < width and s not in held.values()
                held[at[node].get(p, (node, p))] = s
            for p, q in loops:
                assert at[node][p] == at[node][q] and p != q
            assert len(closing) + len(opening) + len(loops) == 4
            open_now = {ai for ai, ((a, _), (b, _)) in enumerate(arcs)
                        if (a in placed) != (b in placed)}
            open_now |= {(n, p) for n in placed for p in range(4)
                         if p not in at[n]}
            assert set(held) == open_now and w == len(open_now)
            widths.append(w)
        assert ends == {s: end for end, s in held.items()}
        assert width == max(widths, default=0)


def test_contraction_never_hashes_table_weights(monkeypatch):
    """Table weights are read through the tables' identity: hashing a
    table per state would cost more than the memo saves.  Tables whose
    weights are lists, which cannot be hashed, give the same values."""
    rng = random.Random(21)
    links = [_kinked_or_looped(rng) for _ in range(10)]
    expect = [z_eval(d) for d in links]

    def refuse(self):
        raise AssertionError("a LaurentPoly was hashed")

    monkeypatch.setattr(LaurentPoly, "__hash__", refuse)
    assert [z_eval(d) for d in links] == expect
    listed = {kind: tuple((p, q, list(w)) for p, q, w in table)
              for kind, table in CROSSING_TABLES.items()}
    for d in links:
        tables = {i: CROSSING_TABLES[k] for i, k in d.nodes}
        unhashable = {i: listed[k] for i, k in d.nodes}
        assert contract(unhashable, d.arcs) == contract(tables, d.arcs)


def test_join_table_has_every_local_state_and_no_other():
    """Ten ways for the ports that lead back to pair up, times three
    pairings of a table entry; a state whose ports do not pair up is a
    KeyError, not a walk that never ends."""
    assert len(bracket._JOINS) == 30
    open_ports = (-1, -1, -1, -1)
    assert bracket._JOINS[open_ports, (0, 3), (1, 2)] == (((0, 3), (1, 2)), 0)
    assert bracket._JOINS[(1, 0, 3, 2), (0, 3), (1, 2)] == ((), 1)
    with pytest.raises(KeyError):
        bracket._JOINS[(1, -1, -1, -1), (0, 1), (2, 3)]


def test_crossing_joins_are_computed_at_import_for_every_local_state():
    """The constant table holds, for both crossing tables and each of the
    ten ways their ports can lead back, what _join and the ring give on
    the fly: the joined ports and the entry's weight times LOOP^k.  Its
    other keys are the digit widths of the packed cases that runs added."""
    assert set(bracket._CROSSING_JOINS) == {id(t) for t in
                                            CROSSING_TABLES.values()}
    all_links = {links for links, _, _ in bracket._JOINS}
    for table in CROSSING_TABLES.values():
        joins = bracket._CROSSING_JOINS[id(table)]
        terms = {key: found for key, found in joins.items()
                 if isinstance(key, tuple)}
        assert all(isinstance(key, int) for key in joins.keys() - terms)
        assert set(terms) == all_links and len(all_links) == 10
        for links, found in terms.items():
            expect = []
            for pair1, pair2, w in table:
                outward, k = bracket._join(links, pair1, pair2)
                weight = LaurentPoly.from_dict(dict(w)) * LOOP ** k
                expect.append((outward, weight))
            got = [(o, LaurentPoly.from_dict(dict(f))) for o, f in found]
            assert got == expect


def test_a_vertex_table_equal_to_a_crossing_table_gives_its_value():
    """A vertex table is built per call and read through the per-call
    memo; one whose entries equal a crossing's table (the vertex taken as
    that crossing alone) contracts to the crossing's value, so keying the
    constant joins by table identity mixes nothing up."""
    rng = random.Random(22)
    for _ in range(15):
        d = _kinked_or_looped(rng)
        tables = {i: CROSSING_TABLES[k] for i, k in d.nodes}
        expect = contract(tables, d.arcs)
        for i, k in d.nodes[::2]:
            alone = {0: -1}     # the table's entries carry a factor -1
            a, b = (alone, {}) if crossing_sign(d, i) == 1 else ({}, alone)
            table = bracket._vertex_table(vertex_ports(d, i), a, b, {}, "z")
            assert (table is not CROSSING_TABLES[k]
                    and sorted(table) == sorted(CROSSING_TABLES[k]))
            tables[i] = table
        assert contract(tables, d.arcs) == expect


def _graph_tables(g, schemes, level):
    """The tables closed_value builds for the nodes of g."""
    return bracket.node_tables(g.nodes, g.in_ports(), schemes, level)[0]


def test_vertex_tables_match_the_brute_force_state_sum():
    """contract equals naive_profile on the tables of seeded and shipped
    vertex graphs under three schemes, and of the marked vertex graph,
    closed and with about 30% of the arcs cut.  Under (A, 2, -3A^-1), a
    vertex table whose first weight is multiplied by A contracts to
    another result."""
    rng = random.Random(24)
    graphs = [random_vertex_graph(rng, rng.randint(0, 3)) for _ in range(12)]
    graphs += [catalog.named_diagram(name) for name in catalog.NAMES
                if name != "G_b_cvert"]
    # the (A, 2, -3A^-1) scheme comes last, so closed[4::5] are its cases
    closed = [(_graph_tables(g, {"Vert": s.over_one_den}, level), g.arcs)
              for g in graphs if g.vertices()
              for s, level in ((VASSILIEV, "p"), (VASSILIEV, "z"),
                               (CASIMIR_PLAIN, "p"), (CASIMIR_PLAIN, "z"),
                               (_GENERAL, "p"))]
    g = catalog.named_diagram("G_b_cvert")
    closed.append((_graph_tables(g, {"Vert": CASIMIR_PLAIN.over_one_den,
                                     "CVert": CASIMIR_MARKED.over_one_den},
                                 "z"), g.arcs))
    cut = [(tables, [a for a in arcs if rng.random() > 0.3])
           for tables, arcs in closed]
    for tables, arcs in closed + cut:
        assert contract(tables, arcs) == naive_profile(tables, arcs)
    # no weight of that scheme vanishes, so every table entry counts
    for tables, arcs in closed[4::5]:
        v = next(i for i, t in tables.items()
                 if t not in CROSSING_TABLES.values())
        (p1, p2, w), *rest = tables[v]
        shifted = dict(tables)
        shifted[v] = [(p1, p2, tuple((e + 1, c) for e, c in w))] + rest
        assert contract(shifted, arcs) != naive_profile(tables, arcs)


def test_z_eval_builds_each_port_map_at_most_once(monkeypatch):
    """The components read only the out-port map and the writhe only the
    in-port map, so one z_eval builds each of them once."""
    rng = random.Random(23)
    links = [_kinked_or_looped(rng) for _ in range(10)]
    links.append(catalog.named_diagram("trefoil+"))
    built = []
    for name in ("out_ports", "in_ports"):
        method = getattr(Diagram, name)

        def counted(self, name=name, method=method):
            built.append(name)
            return method(self)
        monkeypatch.setattr(Diagram, name, counted)
    for d in links:
        built.clear()
        z_eval(d)
        assert built and len(built) == len(set(built))


def test_a_cancelled_coefficient_leaves_no_zero_entry(monkeypatch):
    """Closing a loop onto a weight of several terms can cancel a
    coefficient where no other state meets it.  Node a weighs A^2 - A^-2
    and node b weighs 1; their shared loop gives (A^2 - A^-2)(-A^2 -
    A^-2) = A^-4 - A^4 in either order, and kernel terms hold no zero.
    Ports 2 and 3 of both nodes are boundary ends, which each node joins."""
    tables = {"a": (((0, 1), (2, 3), ((2, 1), (-2, -1))),),
              "b": (((0, 1), (2, 3), ((0, 1),)),)}
    arcs = [(("a", 0), ("b", 0)), (("b", 1), ("a", 1))]
    key = frozenset({frozenset({("a", 2), ("a", 3)}),
                     frozenset({("b", 2), ("b", 3)})})
    for order in (["a", "b"], ["b", "a"]):
        monkeypatch.setattr(bracket, "_node_order",
                            lambda nodes, arcs, order=order: order)
        assert contract(tables, arcs) == {key: {4: -1, -4: 1}}


# --- twists: a chain of crossings joined two arcs at a time is one node ----


def _bigon_rich_link(rng):
    """A braid closure of runs of one letter and of letter-inverse pairs,
    with up to two kinks on arcs next to its bigons; 10 nodes at most."""
    strands = rng.randint(2, 4)
    word = []
    while len(word) < 6:
        i, s = rng.randint(1, strands - 1), rng.choice((1, -1))
        word += ([(i, s)] * rng.randint(2, 3) if rng.random() < 0.5
                 else [(i, s), (i, -s)])
    d = catalog.braid_closure(strands, word[:8])
    for _ in range(rng.randint(0, 2)):
        d = r1_plus(d, rng.choice(d.arcs), rng.choice(sorted(KINK_VARIANTS)))
    return d


def _three_arc_pairs():
    """The Hopf link with a kink on one arc, so that its two crossings
    meet by three arcs, and the same with a second kink next to them."""
    hopf = catalog.named_diagram("hopf+")
    found = []
    for arc in hopf.arcs:
        for variant in sorted(KINK_VARIANTS):
            d = r1_plus(hopf, arc, variant)
            found += [d, r1_plus(d, d.arcs[0], variant)]
    return found


def _crossing_tables(d):
    return {i: CROSSING_TABLES[k] for i, k in d.nodes}


_SCHEMES = ((VASSILIEV, "p"), (CASIMIR_PLAIN, "z"), (_GENERAL, "p"))


def test_absorbed_bigons_keep_the_brute_force_state_sum():
    """contract equals naive_profile on braid closures rich in bigons
    (runs of one letter, letter-inverse pairs, kinks next to a bigon),
    on crossing pairs that meet by three arcs, on seeded vertex graphs
    under three schemes, and on open tangles cut from the links.  The
    links absorb twists and the three-arc pairs do not; in each cut
    tangle a node that the closed link absorbs into a twist carries a
    boundary end, so it stays a node and keeps its end names."""
    rng = random.Random(43)
    links = [_bigon_rich_link(rng) for _ in range(30)]
    three = _three_arc_pairs()
    closed = [(_crossing_tables(d), d.arcs) for d in links + three]
    for _ in range(12):
        g = random_vertex_graph(rng, rng.randint(1, 3))
        closed += [(_graph_tables(g, {"Vert": s.over_one_den}, level), g.arcs)
                   for s, level in _SCHEMES]
    for tables, arcs in closed:
        assert contract(tables, arcs) == naive_profile(tables, arcs)
    absorbed = 0
    for d in links:
        tables = _crossing_tables(d)
        # a twist keeps its first crossing's id: cut an arc at a node that
        # goes, and about a fifth of the others
        gone = [n for n in tables if n not in _absorb_twists(tables,
                                                             d.arcs)[0]]
        if not gone:
            continue
        absorbed += 1
        n = rng.choice(gone)
        drop = rng.choice([arc for arc in d.arcs if n in (arc[0][0],
                                                          arc[1][0])])
        arcs = [arc for arc in d.arcs if arc != drop and rng.random() > 0.2]
        assert _absorb_twists(tables, arcs)[0][n] is tables[n]
        assert contract(tables, arcs) == naive_profile(tables, arcs)
    assert absorbed >= 25
    for d in three:
        assert len(_absorb_twists(_crossing_tables(d), d.arcs)[0]) == len(
            d.nodes)


def test_an_r2_pair_leaves_no_node(monkeypatch):
    """A crossing and its inverse joined as by R2, and by two arcs to no
    other crossing, are a twist of net twist 0: the pass leaves no node
    for them and splices each strand straight through, as r2_minus does.
    Where no other twist remains, the pass gives r2_minus's nodes and arcs
    (each arc up to direction) and its free loops.  The state sum is the
    brute-force one, and _TWISTS never gains key 0."""
    monkeypatch.setattr(bracket, "_TWISTS", {})
    rng = random.Random(44)
    sites = exact = 0
    for _ in range(40):
        d = random_braid_link(rng, 5, 4)
        d = r2_plus(d, *rng.sample(d.arcs, 2))
        tables = _crossing_tables(d)
        after, arcs, _, loops = _absorb_twists(tables, d.arcs)
        assert contract(tables, d.arcs) == naive_profile(tables, d.arcs)
        joined = Counter(frozenset((a, b)) for (a, _), (b, _) in d.arcs
                         if a != b)
        for m in find_r2_minus(d):
            a, b = m.site
            if any(n in pair for pair, k in joined.items() if k == 2
                   and pair != {a, b} for n in (a, b)):
                continue        # a longer twist
            assert a not in after and b not in after
            assert not {a, b} & {n for arc in arcs for n, _ in arc}
            sites += 1
            if len(after) != len(tables) - 2:
                continue        # the pass absorbs other twists too
            e = moves.r2_minus(d, a, b)
            assert after == _crossing_tables(e)
            assert sorted(map(sorted, arcs)) == sorted(map(sorted, e.arcs))
            assert d.free_loops + loops == e.free_loops
            exact += 1
    assert sites >= 10 and exact >= 5
    assert 0 not in bracket._TWISTS


def _chain_word(rng, k):
    return [(1, rng.choice((1, -1))) for _ in range(k)]


@lru_cache(maxsize=None)
def _chains():
    """Seeded chains of k = 1..12 crossings of mixed signs, with their net
    twist and their brute-force state sums.  A closed chain is the
    2-strand closure of its word, a cycle; an open one closes through a
    further crossing whose table is a copy, so it is in no twist."""
    rng = random.Random(47)
    chains = []
    for k in range(1, 13):
        word = _chain_word(rng, k)
        closed = catalog.braid_closure(2, word)
        opened = catalog.braid_closure(2, word + [(1, 1)])
        tables = _crossing_tables(opened)
        tables["c%d" % k] = list(tables["c%d" % k])
        for tables, arcs, kind in ((_crossing_tables(closed), closed.arcs,
                                    "closed"), (tables, opened.arcs, "open")):
            chains.append((k, kind, sum(s for _, s in word), tables, arcs,
                           naive_profile(tables, arcs)))
    return chains


def test_twist_chains_keep_the_brute_force_state_sum():
    """An open chain of two crossings or more becomes one node beside the
    crossing that closes it, or none where its net twist is 0; a closed
    one, a cycle, leaves one crossing out of its twist, so from three
    crossings on it is two nodes, or only the one left out where the
    others' net twist is 0."""
    spliced = 0
    for k, kind, net, tables, arcs, naive in _chains():
        after = _absorb_twists(tables, arcs)[0]
        if kind == "open":
            nodes = 1 + (k == 1 or net != 0)
        elif k >= 3:
            out, = [n for n in after if after[n] is tables[n]]
            sign = 1 if tables[out] is CROSSING_TABLES["XPos"] else -1
            nodes = 1 + (net != sign)
        else:
            nodes = k       # one crossing, or two joined by four arcs
        assert len(after) == nodes
        spliced += nodes == 1 and k >= 2
        assert contract(tables, arcs) == naive
    assert spliced >= 3


def test_the_twist_table_gains_one_key_per_new_net_twist(monkeypatch):
    """The open chains of two crossings or more, contracted one by one:
    each adds the key of its net twist if it is new and not 0, and no
    other."""
    monkeypatch.setattr(bracket, "_TWISTS", {})
    nets = set()
    for k, kind, net, tables, arcs, _ in _chains():
        if kind == "open" and k >= 2:
            contract(tables, arcs)
            nets.add(net)
            assert set(bracket._TWISTS) == nets - {0}
    assert len(nets) >= 5 and 0 in nets


def test_a_changed_twist_weight_changes_the_value(monkeypatch):
    """Negative control: with the table of net twist -m in place of that
    of m, or with the e entry's weight times A, contract no longer equals
    naive_profile on the open chains of nonzero net twist.  The changed
    table mixes exponent parities, so it goes to term dicts, and contract
    is the brute-force sum of the network with that table in the twist's
    place."""
    twists = {m: bracket._twist_table(m) for m in range(-13, 14) if m}
    flipped = {m: twists[-m] for m in twists}
    changed = {}
    for m, (table, _) in twists.items():
        (p1, p2, w), *e = table
        e = [(q1, q2, tuple((x + 1, c) for x, c in v)) for q1, q2, v in e]
        changed[m] = ((p1, p2, w), *e), {}
    cases = [(tables, arcs, naive) for k, kind, net, tables, arcs, naive
             in _chains() if kind == "open" and k >= 2 and net]
    assert len(cases) >= 8
    for wrong in (flipped, changed):
        monkeypatch.setattr(bracket, "_TWISTS", wrong)
        for tables, arcs, naive in cases:
            assert contract(tables, arcs) != naive
            if wrong is changed:
                after, left, _, loops = _absorb_twists(tables, arcs)
                assert loops == 0
                assert contract(tables, arcs) == naive_profile(after, left)


def _profiles_agree(d, schemes):
    """contract equals naive_profile on the tables of d at both levels."""
    for level in ("z", "p"):
        tables = bracket.node_tables(d.nodes, d.in_ports(), schemes,
                                     level)[0]
        assert contract(tables, d.arcs) == naive_profile(tables, d.arcs)


def test_the_twist_pass_takes_whole_runs_and_nothing_else():
    """A run of one letter becomes one node, or none where its net twist
    is 0; a twist that ends at a vertex is absorbed, and the vertex keeps
    its table; a crossing with a boundary end stays a node and keeps its
    end names; two crossings joined by two arcs that leave one of them
    from opposite ports, which no planar diagram has, stay two nodes."""
    rng = random.Random(48)
    vert = {"Vert": VASSILIEV.over_one_den}
    for k in range(2, 9):
        # sigma_2^k between sigma_1 and sigma_3, each closing on itself
        word = [(2, s) for _, s in _chain_word(rng, k)]
        d = catalog.braid_closure(4, word + [(1, 1), (3, 1)])
        net = sum(s for _, s in word)
        assert len(_absorb_twists(_crossing_tables(d), d.arcs)[0]) == (
            2 + (net != 0))
        _profiles_agree(d, {})
    for k in range(3, 8):
        # a 2-strand closure with one crossing a vertex: the others are
        # one twist whose two ends meet the vertex
        word = _chain_word(rng, k)
        d = catalog.braid_closure(2, word)
        v = rng.choice(d.node_ids())
        net = sum(s for _, s in word) - word[int(v[1:])][1]
        g = replace_kind(d, v, "Vert")
        tables = bracket.node_tables(g.nodes, g.in_ports(), vert, "p")[0]
        after = _absorb_twists(tables, g.arcs)[0]
        assert len(after) == 1 + (net != 0) and after[v] is tables[v]
        _profiles_agree(g, vert)
        # cut one arc at a crossing of the twist: it has boundary ends
        c = rng.choice([n for n in d.node_ids() if n != v])
        arcs = [arc for arc in g.arcs if c not in (arc[0][0], arc[1][0])]
        arcs += [arc for arc in g.arcs if c in (arc[0][0], arc[1][0])][1:]
        assert _absorb_twists(tables, arcs)[0][c] is tables[c]
        profile = contract(tables, arcs)
        assert profile == naive_profile(tables, arcs)
        assert {end for pairing in profile for pair in pairing
                for end in pair} >= {(c, p) for p in range(4)} - {
            end for arc in arcs for end in arc}
    # two crossings a, b joined by two arcs, the rest of their ports on a
    # vertex-like node: a copy of a crossing table, so in no twist
    copy = list(CROSSING_TABLES["XPos"])
    for joined, merged in ((((0, 0), (1, 1)), True),
                           (((0, 0), (2, 1)), False),
                           (((0, 0), (2, 2)), False)):
        arcs = [(("a", p), ("b", q)) for p, q in joined]
        rest = [("a", p) for p in range(4) if p not in {p for p, _ in joined}]
        rest += [("b", q) for q in range(4) if q not in {q for _, q in joined}]
        arcs += [(end, ("v", i)) for i, end in enumerate(rest)]
        for ka, kb in product(CROSSING_TABLES, repeat=2):
            tables = {"a": CROSSING_TABLES[ka], "b": CROSSING_TABLES[kb],
                      "v": copy}
            after = _absorb_twists(tables, arcs)[0]
            # joined this way, XPos and XNeg are an R2 pair: no node
            assert len(after) == (1 + (ka == kb) if merged else 3)
            assert contract(tables, arcs) == naive_profile(tables, arcs)


# the 3-strand closures that the splice turns into one node and a free
# loop, and into no node at all: (word, nodes, loops, Z, P)
_SPLICED = (([(1, 1), (1, 1), (1, -1), (1, -1), (2, 1)], 1, 1,
             {5: 1, 1: 1}, {2: 1, -2: 1}),
            ([(1, 1), (2, 1), (1, -1), (2, -1)], 0, 1, {0: 1}, {0: 1}))


def test_a_spliced_strand_closes_into_a_free_loop():
    """The 3-strand closure of sigma1^2 sigma1^-2 sigma2 leaves one node:
    strand 1 is spliced shut into a free loop, beside a kinked unknot, so
    Z = A^5 + A and P = A^2 + A^-2.  The closure of sigma1 sigma2
    sigma1^-1 sigma2^-1, an unknot, leaves no node at all, and Z = 1.
    Each agrees with naive_profile at both levels and with
    bracket_naive."""
    for word, nodes, loops, z, p in _SPLICED:
        d = catalog.braid_closure(3, word)
        after, arcs, _, made = _absorb_twists(_crossing_tables(d), d.arcs)
        assert (len(after), made) == (nodes, loops)
        _profiles_agree(d, {})
        assert z_eval(d) == bracket_naive(d) == LaurentPoly.from_dict(z)
        assert p_eval(d) == LaurentPoly.from_dict(p)


def test_a_dropped_splice_loop_changes_the_value(monkeypatch):
    """Negative control: with the pass's free loops dropped, contract no
    longer equals naive_profile on the shapes above."""
    absorb = bracket._absorb_twists
    monkeypatch.setattr(bracket, "_absorb_twists",
                        lambda tables, arcs: absorb(tables, arcs)[:3] + (0,))
    for word, *_ in _SPLICED:
        d = catalog.braid_closure(3, word)
        tables = _crossing_tables(d)
        assert contract(tables, d.arcs) != naive_profile(tables, d.arcs)


def _inverse(word):
    return [(i, -s) for i, s in reversed(word)]


def _with_r2_blocks(rng):
    """A random braid word on 3-5 strands that has every letter, as
    (strands, base word, word with R2 blocks): each block is a run
    sigma_i^k sigma_i^-k, k = 1..3, or w x x^-1 w^-1 for a letter x and a
    word w of one or two letters.  Each letter of the longer word is
    (letter, its place in the base word or None)."""
    strands = rng.randint(3, 5)

    def letter():
        return rng.randint(1, strands - 1), rng.choice((1, -1))
    base = [(i, rng.choice((1, -1))) for i in range(1, strands)]
    base += [letter() for _ in range(rng.randint(0, 3))]
    rng.shuffle(base)
    word = [(x, n) for n, x in enumerate(base)]
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            run = [letter()] * rng.randint(1, 3)
        else:
            w = [letter() for _ in range(rng.randint(1, 2))]
            run = w + [letter()]
        at = rng.randint(0, len(word))
        word[at:at] = [(x, None) for x in run + _inverse(run)]
    return strands, base, word


def test_r2_blocks_leave_the_values_of_the_word_without_them(monkeypatch):
    """Seeded braid words with R2 blocks inserted: the pass leaves fewer
    nodes than the word has crossings; z_eval equals bracket_naive up to
    10 crossings; p_eval equals that of the word without the blocks; and
    with one or two letters of the base word drawn as Vert, eval_graph
    under VASSILIEV at levels z and p equals that of the graph without
    the blocks."""
    monkeypatch.setenv("MAX_CROSSINGS", "40")
    rng = random.Random(71)
    naive = spliced = 0
    for _ in range(40):
        strands, base, word = _with_r2_blocks(rng)
        d = catalog.braid_closure(strands, [x for x, _ in word])
        d0 = catalog.braid_closure(strands, base)
        after = _absorb_twists(_crossing_tables(d), d.arcs)[0]
        assert len(after) < len(word)
        # with every crossing positive no twist of a braid has net 0
        positive = dict.fromkeys(d.node_ids(), CROSSING_TABLES["XPos"])
        spliced += len(_absorb_twists(positive, d.arcs)[0]) > len(after)
        if len(word) <= 10:
            assert z_eval(d) == bracket_naive(d)
            naive += 1
        assert p_eval(d) == p_eval(d0)
        g, g0 = d, d0
        for n in rng.sample(range(len(base)), rng.randint(1, 2)):
            g = replace_kind(g, "c%d" % [m for _, m in word].index(n), "Vert")
            g0 = replace_kind(g0, "c%d" % n, "Vert")
        for level in ("z", "p"):
            assert (eval_graph(g, VASSILIEV, level=level)
                    == eval_graph(g0, VASSILIEV, level=level))
    assert naive >= 5 and spliced >= 25


def test_twist_cycles_give_the_torus_link_of_their_net_twist(monkeypatch):
    """T(2, n), n = 1..40, is one cycle of crossings.  A knot (n odd) has
    Jones's closed form; a two-component link (n even), which the closed
    form does not cover, obeys the oriented skein relation
    P(T(2, n)) = A^-8 P(T(2, n - 2)) + (A^-2 - A^-6) P(T(2, n - 1)),
    from the two-component unlink, P = A^2 + A^-2.  A cycle of k+
    positive and k- negative crossings, up to 40 in all, is T(2, k+ - k-)
    by R2, whose value at n < 0 is the mirror's: A -> A^-1."""
    monkeypatch.setenv("MAX_CROSSINGS", "40")
    expect = {0: LaurentPoly.from_dict({2: 1, -2: 1})}
    for n in range(1, 41):
        if n % 2:
            expect[n] = torus_jones(2, n)
        else:
            expect[n] = (LaurentPoly.monomial(-8) * expect[n - 2]
                         + LaurentPoly.from_dict({-2: 1, -6: -1})
                         * expect[n - 1])
        assert p_eval(catalog.braid_closure(2, [(1, 1)] * n)) == expect[n], n
    rng = random.Random(49)
    nets = set()
    for _ in range(60):
        word = _chain_word(rng, rng.randint(2, 40))
        net = sum(s for _, s in word)
        nets.add(net)
        value = p_eval(catalog.braid_closure(2, word))
        assert value == (expect[net] if net >= 0
                         else expect[-net].substitute_inverse()), word
    assert min(nets) < 0 < max(nets) and 0 in nets


# --- packed state weights ---------------------------------------------------


def _fresh_cases(monkeypatch):
    """Empty packed-case stores for one test: the crossing tables keep
    only their term cases and no twist or shared vertex table exists yet,
    so the widths and spacing that the test sets leave no packed case
    behind."""
    monkeypatch.setattr(bracket, "_CROSSING_JOINS", {
        key: {links: found for links, found in cases.items()
              if isinstance(links, tuple)}
        for key, cases in bracket._CROSSING_JOINS.items()})
    monkeypatch.setattr(bracket, "_TWISTS", {})
    monkeypatch.setattr(bracket, "_VERTICES", {})
    monkeypatch.setattr(bracket, "_VERTEX_CASES", {})


def _random_crossing_network(rng, k, closed):
    """k crossings of random kinds whose out-ports (2, 3) lead to in-ports
    (0, 1) by a random matching, so most networks are not planar and some
    have self-loops.  A closed network matches every port; an open one
    leaves some out-ports and as many in-ports as boundary ends."""
    nodes = ["n%d" % i for i in range(k)]
    tables = {n: CROSSING_TABLES[rng.choice(("XPos", "XNeg"))] for n in nodes}
    outs = [(n, p) for n in nodes for p in (2, 3)]
    ins = [(n, p) for n in nodes for p in (0, 1)]
    rng.shuffle(outs)
    rng.shuffle(ins)
    cut = len(outs) if closed else rng.randrange(len(outs))
    return tables, list(zip(outs[:cut], ins[:cut]))


def test_packed_runs_equal_the_brute_force_sum_on_any_port_matching(
        monkeypatch):
    """Seeded networks of 1-7 crossings with arbitrary port matchings,
    closed and open: contract runs packed weights and equals naive_profile
    at every key.  Negative control: with the spacing forced to 4, which
    holds only planar networks, most differ."""
    rng = random.Random(61)
    networks = [_random_crossing_network(rng, rng.randint(1, 7), closed)
                for closed in (True, False) for _ in range(120)]
    assert sum(a == b for _, arcs in networks
               for (a, _), (b, _) in arcs) >= 20        # self-loops
    packed = []
    run = bracket._run_packed

    def counted(*args):
        packed.append(args)
        return run(*args)
    _fresh_cases(monkeypatch)
    monkeypatch.setattr(bracket, "_run_packed", counted)
    naive = [naive_profile(tables, arcs) for tables, arcs in networks]
    assert sum(frozenset() in p for p in naive) >= 100
    assert sum(any(p) for p in naive) >= 100       # boundary ends paired
    assert [contract(tables, arcs) for tables, arcs in networks] == naive
    assert len(packed) == len(networks)
    _fresh_cases(monkeypatch)
    monkeypatch.setattr(bracket, "_SPACING", 4)
    wrong = sum(contract(tables, arcs) != expect
                for (tables, arcs), expect in zip(networks, naive))
    assert wrong >= 100


def test_a_digit_one_bit_short_misreads_the_largest_coefficient(
        monkeypatch):
    """Through the one helper that picks the digit width: at the bit
    length of the largest coefficient plus one for the sign, the value
    matches; one bit less misreads that coefficient, which lies outside
    the balanced digit range [-2^(C-1), 2^(C-1))."""
    d = catalog.braid_closure(4, [(1, 1), (2, -1), (3, 1)] * 5)
    tables = _crossing_tables(d)
    expect = contract(tables, d.arcs)
    assert set(expect) == {frozenset()}
    top = max(expect[frozenset()].values(), key=abs)
    bits = abs(top).bit_length()
    assert bits >= 4 and top != -(1 << bits - 1)
    for width, same in ((bits + 1, True), (bits, False)):
        _fresh_cases(monkeypatch)
        monkeypatch.setattr(bracket, "_digit_width",
                            lambda steps, tables, loops, w=width: w)
        assert (contract(tables, d.arcs) == expect) is same


def _refuse(name):
    def refuse(*args):
        raise AssertionError("%s was called" % name)
    return refuse


def test_vertex_networks_pack_where_every_table_packs(monkeypatch):
    """A 4-vertex braid-closure graph.  With _pack made to raise, the
    networks whose tables do not pack keep their resolution sums: a sparse
    scheme whose packed weights would span every exponent between A^-10000
    and A^10000, (A, 2, -3A^-1) at p, whose vertex weights mix exponent
    parities, and the Casimir marks' 1/4 weights.  With _run_terms made to
    raise, VASSILIEV and CASIMIR_PLAIN at both levels pack and keep theirs;
    a trefoil still packs."""
    word = [(1, 1), (2, -1), (1, 1), (3, 1), (2, 1), (3, -1), (1, -1),
            (2, 1), (3, 1), (2, -1)]
    g = catalog.braid_closure(4, word)
    for n in (0, 3, 5, 8):
        g = replace_kind(g, "c%d" % n, "Vert")
    sparse = ResolutionScheme(rf(LaurentPoly.monomial(10000)),
                              rf(LaurentPoly.monomial(-10000)),
                              rf(LaurentPoly.const(1)))
    terms = [(sparse, "p"), (_GENERAL, "p")]
    packed = [(s, level) for s in (VASSILIEV, CASIMIR_PLAIN)
              for level in ("p", "z")]
    expect = [resolve_vertices(g, s).evaluate(p_eval if level == "p"
                                               else z_eval)
              for s, level in terms + packed]
    marked = replace_kind(g, "c3", "CVert")
    byhand = RF_ZERO
    for weight, branch in ((CASIMIR_MARKED.a, vertex_to_crossing(g, "c3", 1)),
                           (CASIMIR_MARKED.b, vertex_to_crossing(g, "c3", -1)),
                           (CASIMIR_MARKED.c, vertex_unfold(g, "c3"))):
        byhand = byhand + weight * resolve_vertices(
            branch, CASIMIR_PLAIN).evaluate(z_eval)
    _fresh_cases(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(bracket, "_pack", _refuse("_pack"))
        assert [eval_graph(g, s, level) for s, level in terms] == expect[:2]
        assert eval_with_casimir_marks(marked) == byhand
        with pytest.raises(AssertionError):
            z_eval(catalog.named_diagram("trefoil+"))
    monkeypatch.setattr(bracket, "_run_terms", _refuse("_run_terms"))
    assert [eval_graph(g, s, level) for s, level in packed] == expect[2:]


def _braid_graph(rng, vertices):
    """A seeded closure of a 3- or 4-strand braid word of 6-8 letters with
    the given number of its crossings drawn as Vert."""
    strands = rng.randint(3, 4)
    word = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(max(6, vertices), 8))]
    g = catalog.braid_closure(strands, word)
    for n in rng.sample(range(len(word)), vertices):
        g = replace_kind(g, "c%d" % n, "Vert")
    return g


def test_packed_vertex_networks_equal_the_brute_force_sum(monkeypatch):
    """Seeded braid-form graphs of 1-5 vertices under VASSILIEV and
    CASIMIR_PLAIN at both levels, closed and with about 30% of the arcs
    cut: every network packs (_run_terms raises) and contract equals
    naive_profile."""
    rng = random.Random(83)
    networks = []
    for k in range(1, 6):
        for _ in range(2):
            g = _braid_graph(rng, k)
            for s, level in product((VASSILIEV, CASIMIR_PLAIN), ("p", "z")):
                tables = _graph_tables(g, {"Vert": s.over_one_den}, level)
                networks.append((tables, g.arcs))
                networks.append((tables, [a for a in g.arcs
                                          if rng.random() > 0.3]))
    naive = [naive_profile(tables, arcs) for tables, arcs in networks]
    assert sum(frozenset() in p for p in naive) >= 20
    assert sum(any(p) for p in naive) >= 20         # boundary ends paired
    _fresh_cases(monkeypatch)
    monkeypatch.setattr(bracket, "_run_terms", _refuse("_run_terms"))
    assert [contract(tables, arcs) for tables, arcs in networks] == naive


def test_a_digit_one_bit_short_misreads_a_vertex_network(monkeypatch):
    """As for links: on a 3-vertex graph under VASSILIEV at p, a digit of
    the largest coefficient's bit length plus one for the sign keeps the
    value, and one bit less misreads that coefficient."""
    g = catalog.braid_closure(4, [(1, 1), (2, -1), (3, 1)] * 4)
    for n in (1, 5, 9):
        g = replace_kind(g, "c%d" % n, "Vert")
    tables = _graph_tables(g, {"Vert": VASSILIEV.over_one_den}, "p")
    expect = contract(tables, g.arcs)
    assert set(expect) == {frozenset()}
    top = max(expect[frozenset()].values(), key=abs)
    bits = abs(top).bit_length()
    assert bits >= 4 and top != -(1 << bits - 1)
    for width, same in ((bits + 1, True), (bits, False)):
        _fresh_cases(monkeypatch)
        tables = _graph_tables(g, {"Vert": VASSILIEV.over_one_den}, "p")
        monkeypatch.setattr(bracket, "_digit_width",
                            lambda steps, nodes, loops, w=width: w)
        assert (contract(tables, g.arcs) == expect) is same


def test_vertex_tables_are_built_and_checked_once(monkeypatch):
    """After a graph's first evaluation, a second one, and one under an
    equal scheme built anew, read the same vertex table objects and their
    cases and check no table again; a table built by the caller is
    checked once per call, however many nodes share it."""
    monkeypatch.setattr(bracket, "_VERTICES", {})
    monkeypatch.setattr(bracket, "_VERTEX_CASES", {})
    g = _braid_graph(random.Random(84), 3)
    first = _graph_tables(g, {"Vert": VASSILIEV.over_one_den}, "p")
    value = eval_graph(g, VASSILIEV, level="p")
    cases = dict(bracket._VERTEX_CASES)
    assert len(cases) == len(bracket._VERTICES) >= 1
    checked = []
    norms = bracket._norms

    def counted(table):
        checked.append(table)
        return norms(table)
    monkeypatch.setattr(bracket, "_norms", counted)
    again = ResolutionScheme(VASSILIEV.a, VASSILIEV.b, VASSILIEV.c)
    assert eval_graph(g, VASSILIEV, level="p") == value
    assert eval_graph(g, again, level="p") == value
    second = _graph_tables(g, {"Vert": again.over_one_den}, "p")
    assert checked == [] and bracket._VERTEX_CASES == cases
    for v in g.vertices():
        assert second[v] is first[v]
        assert bracket._VERTEX_CASES[id(first[v])] is cases[id(first[v])]
    mine = {i: list(t) for i, t in first.items()}
    mine.update(dict.fromkeys(g.vertices(), mine[g.vertices()[0]]))
    contract(mine, g.arcs)
    assert sorted(map(id, checked)) == sorted({id(t) for t in
                                               mine.values()})


def test_the_vertex_store_stays_bounded(monkeypatch):
    """500 generated schemes, each evaluated on a 2-vertex graph: the
    store keeps at most _VERTEX_LIMIT tables, its cases name exactly the
    tables it holds, and a scheme whose table was dropped is built again
    with the same value."""
    monkeypatch.setattr(bracket, "_VERTICES", {})
    monkeypatch.setattr(bracket, "_VERTEX_CASES", {})
    g = catalog.named_diagram("gb_2vert")
    values = {}
    for k in range(500):
        s = ResolutionScheme(rf(LaurentPoly.monomial(k % 25 - 12)),
                             rf(LaurentPoly.const(k // 25 - 10)), RF_ZERO)
        values[k] = eval_graph(g, s, level="z")
        assert len(bracket._VERTICES) <= bracket._VERTEX_LIMIT
        assert set(bracket._VERTEX_CASES) == {
            id(t) for t in bracket._VERTICES.values()}
    first = ResolutionScheme(rf(LaurentPoly.monomial(-12)),
                             rf(LaurentPoly.const(-10)), RF_ZERO)
    assert eval_graph(g, first, level="z") == values[0]
    assert len(bracket._VERTICES) == bracket._VERTEX_LIMIT


def test_packed_cases_keep_one_width_per_rounding_step(monkeypatch):
    """After p_eval of T(2, n), n <= 60, and of 5-strand closures, each
    table's cases hold packed cases only at multiples of 16 bits, so at
    most one width per rounding step, each with at most the ten ways the
    ports can lead back."""
    _fresh_cases(monkeypatch)
    monkeypatch.setenv("MAX_CROSSINGS", "64")
    rng = random.Random(67)
    for n in range(1, 61):
        p_eval(catalog.braid_closure(2, [(1, 1)] * n))
    for _ in range(8):
        p_eval(catalog.braid_closure(5, [(rng.randint(1, 4), rng.choice((1, -1)))
                                         for _ in range(28)]))
    stores = list(bracket._CROSSING_JOINS.values())
    stores += [cases for _, cases in bracket._TWISTS.values()]
    widths = [key for cases in stores for key in cases
              if isinstance(key, int)]
    assert len(bracket._TWISTS) >= 40 and len(set(widths)) >= 2
    for cases in stores:
        for key, packed in cases.items():
            if isinstance(key, int):
                assert key % 16 == 0 and len(packed) <= 10
