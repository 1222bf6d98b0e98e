"""Bracket evaluation by frontier contraction.

One engine, `contract`, sums the state model of a network of 4-port
nodes, each given by a table of local states (two port pairings and a
weight).  It absorbs the nodes in an order that keeps the open-strand
frontier small; each closed loop weighs -A^2 - A^-2, and arcs leaving
the tables are tangle boundary.  bracket_naive enumerates all 2^n
smoothings independently and is the oracle.

A contraction is planned, then run.  The plan fixes the node order and
gives each open arc a slot, reusing freed ones; a state gives each slot
its mate slot.  A node's local joins depend only on its table, its port
roles and which closing ports the state mates, so they are memoised for
the call and shared by alike nodes, such as a braid's crossings.  The
joins themselves come from a constant table, built at import, of the 30
ways an entry's pairing can meet the ports that lead back to the node.

Inside the engine a weight is a term dict of ring's Laurent kernel.
Bracket values lie in Z[A, A^-1], so the coefficients are ints, and
Fractions only where a table weight is non-integral (a marked vertex
carries 1/4).  Table weights are kernel terms already, the closing
division by the loop value stays in the same integer domain, and
closed_value returns kernel terms: LaurentPoly is built only where
z_eval and contract return a value.

closed_value is the one route from a closed diagram, link or graph, to
its value.  A crossing's table holds its two smoothings.  A rigid vertex
stands for a weighted combination of a positive crossing, a negative
crossing and the oriented smoothing (the unfold), and its table holds
its two port pairings with the three choices' weights combined.  This
is exact because sign and framing factor locally: a crossing choice
moves the writhe by +-1 and an unfold the component count by +-1, so
every choice weighs -1 (times A^-+3 at level p) and the graph keeps
(-1)^(c - 1 + w) and A^(-3w), w the writhe of its crossings.

Link values are the oriented normalisation Z with loop value A^2 + A^-2
and positive kink factor A^3: the raw state sum times the sign
(-1)^(components - 1 + writhe).  p_eval also divides out A^(3*writhe).
"""

from __future__ import annotations

import heapq
import os
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple, Union

from .diagram import (CROSSING_KINDS, ArcT, Diagram, DiagramError, End,
                      crossing_kind, strand_ports)
from .ring import LOOP, ZERO, LaurentPoly, Terms, _exact_div, _terms, _times

# smoothing tables: for each crossing kind, the two local port pairings
# with their weights.  The A-weighted smoothing joins the ports adjacent
# clockwise from the over strand.
_SMOOTHINGS = {
    "XPos": (((0, 3), (1, 2), 1), ((0, 1), (2, 3), -1)),
    "XNeg": (((0, 1), (2, 3), 1), ((0, 3), (1, 2), -1)),
}

Pair = Tuple[int, int]
# a table entry's weight: the (exponent, coefficient) terms of ring's kernel
Weight = Tuple[Tuple[int, Union[int, Fraction]], ...]
Table = Sequence[Tuple[Pair, Pair, Weight]]

CROSSING_TABLES: Dict[str, Table] = {
    kind: tuple((p, q, ((e, 1),)) for p, q, e in entries)
    for kind, entries in _SMOOTHINGS.items()}

_LOOP = _terms(LOOP)


def max_crossings() -> int:
    text = os.environ.get("MAX_CROSSINGS", "20")
    try:
        return int(text)
    except ValueError:      # not a number, or more digits than int() reads
        raise DiagramError("MAX_CROSSINGS=%.40r is not a whole number"
                           % text) from None


def _check_size(d: Diagram, components: int) -> None:
    """The cap counts every node, crossings and vertices alike, and every
    free loop, which multiplies the state sum by one loop factor."""
    size = len(d.nodes) + d.free_loops
    if size > max_crossings():
        raise DiagramError(
            "diagram has %d nodes and free loops, above the MAX_CROSSINGS "
            "limit %d" % (size, max_crossings()))
    if components == 0:
        raise DiagramError("empty diagram has no bracket value")


def _sign_correction(d: Diagram) -> int:
    return -1 if (d.components() - 1 + d.writhe()) % 2 else 1


def bracket_naive(d: Diagram) -> LaurentPoly:
    """Z by brute-force enumeration of every smoothing state.  Raises
    DiagramError for a vertex, then above the node cap or for an empty
    diagram."""
    if d.vertices():
        raise DiagramError("node %s is a vertex; resolve it first (graph "
                           "evaluation)" % d.vertices()[0])
    _check_size(d, d.components())
    ids = [i for i, _ in d.nodes]
    kinds = d.node_map()
    parent: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        parent[rx] = ry

    total = ZERO
    n = len(ids)
    for mask in range(1 << n):
        for i in ids:
            for p in range(4):
                parent[(i, p)] = (i, p)
        exp = 0
        for bit, i in enumerate(ids):
            pair1, pair2, w = _SMOOTHINGS[kinds[i]][(mask >> bit) & 1]
            exp += w
            union((i, pair1[0]), (i, pair1[1]))
            union((i, pair2[0]), (i, pair2[1]))
        for tail, head in d.arcs:
            union(tail, head)
        loops = len({find((i, p)) for i in ids for p in range(4)})
        loops += d.free_loops
        total = total + (LaurentPoly.monomial(exp) * LOOP ** (loops - 1))
    if not ids:
        total = LOOP ** (d.free_loops - 1)
    s = _sign_correction(d)
    return total if s == 1 else -total


# --- frontier contraction ---------------------------------------------------


def _node_order(at: Dict[str, Dict[int, int]], arcs: Sequence[ArcT]) -> List[str]:
    """Greedy ordering that keeps the number of open arcs small: next comes
    the node whose absorption grows the frontier least, first in sorted
    order on ties.  A node's growth counts +1 for each of its arcs that
    would open and -1 for each it would close; placing a node opens its
    arcs to the nodes still waiting, so only their growth changes, by -2
    per shared arc."""
    growth = {n: sum(1 for ai in set(ports.values())
                     if not arcs[ai][0][0] == arcs[ai][1][0] == n)
              for n, ports in at.items()}
    heap = [(g, n) for n, g in growth.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        g, n = heapq.heappop(heap)
        if growth.get(n) != g:      # placed already, or a stale growth
            continue
        del growth[n]
        order.append(n)
        for ai in set(at[n].values()):
            for m, _ in arcs[ai]:
                if m in growth:
                    growth[m] -= 2
                    heapq.heappush(heap, (growth[m], m))
    return order


def _join(links: Tuple[int, ...], pair1: Pair,
          pair2: Pair) -> Tuple[Tuple[Pair, ...], int]:
    """Join a node's ports along pair1 and pair2.  Port p leads either out
    of the node (links[p] = -1) or back to its port links[p].  Returns the
    pairs of outward ports now joined and the number of loops closed."""
    inner = {}
    for x, y in (pair1, pair2):
        inner[x], inner[y] = y, x
    joins = []
    seen = set()
    for p in range(4):
        if links[p] >= 0 or p in seen:
            continue
        q = inner[p]
        while links[q] >= 0:
            r = links[q]
            seen.update((q, r))
            q = inner[r]
        seen.update((p, q))
        joins.append((p, q))
    loops = 0
    for p in range(4):
        if p in seen:
            continue
        loops += 1
        while p not in seen:
            q = links[p]
            seen.update((p, q))
            p = inner[q]
    return tuple(joins), loops


def _links(pairs: Sequence[Pair]) -> Tuple[int, ...]:
    links = [-1] * 4
    for p, q in pairs:
        links[p], links[q] = q, p
    return tuple(links)


_MATCHINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
# Every input a join can have: the ports that lead back pair up in one of
# ten ways (some part of a perfect matching), and a table entry is one of
# the three perfect matchings.  A key outside these (a corrupt state)
# raises KeyError.
_JOINS = {(links, pair1, pair2): _join(links, pair1, pair2)
          for links in {_links(part) for m in _MATCHINGS
                        for part in ((), m[:1], m[1:], m)}
          for pair1, pair2 in _MATCHINGS}


def _plan(at: Dict[str, Dict[int, int]], arcs: Sequence[ArcT]
          ) -> Tuple[List[tuple], Dict[int, int], int]:
    """The order of _node_order and a slot for each open arc: a closing arc
    frees its slot, an opening arc takes a freed slot first.  A step is
    (node, closing port -> slot, opening port -> slot, self-loop port
    pairs, frontier width after it).  Also returns the slots of the arcs
    left open (the boundary) and the number of slots."""
    slot_of: Dict[int, int] = {}
    free: List[int] = []
    steps = []
    for node in _node_order(at, arcs):
        closing, fresh, loops = {}, [], []
        for p, ai in sorted(at[node].items()):
            (a, ap), (b, bp) = arcs[ai]
            if a == b == node:
                loops.append((p, bp if p == ap else ap))
            elif ai in slot_of:
                closing[p] = slot_of.pop(ai)
            else:
                fresh.append((p, ai))
        free += closing.values()
        opening = {}
        for p, ai in fresh:
            slot_of[ai] = opening[p] = free.pop() if free else len(slot_of)
        steps.append((node, closing, opening, tuple(loops), len(slot_of)))
    return steps, slot_of, len(slot_of) + len(free)


def _state_sum(tables: Dict[str, Table], arcs: Sequence[ArcT]
               ) -> Tuple[Dict[Tuple[Pair, ...], Terms], Dict[int, End]]:
    """Run the plan: the nonzero state weights, keyed by the sorted pairs
    of boundary arcs that each state joins, and each boundary arc's end
    outside the tables."""
    at: Dict[str, Dict[int, int]] = {n: {} for n in tables}
    for ai, arc in enumerate(arcs):
        for n, p in arc:
            if n in at:
                at[n][p] = ai
    boundary = {ai: end for ai, arc in enumerate(arcs)
                for end in arc if end[0] not in at}
    steps, last, width = _plan(at, arcs)
    memo: Dict[tuple, dict] = {}
    states: Dict[Tuple[int, ...], Terms] = {(-1,) * width: {0: 1}}
    for node, closing, opening, loops, _ in steps:
        table = tables[node]
        moves = memo.setdefault((id(table), tuple(closing), loops), {})
        # In ext = fixed + state, dest_of gives each closing port its mate
        # and each opening port its new slot; mates_of (other ports read
        # fixed[4] = -1) and port_at give the closing port each is mated to.
        fixed, dest_ix, mate_ix = [-1] * 5, [0, 1, 2, 3], [4] * 4
        port_at = [-1] * (width + 1)
        for p, s in opening.items():
            fixed[p] = s
        for p, s in closing.items():
            dest_ix[p] = mate_ix[p] = 5 + s
            port_at[s] = p
        fixed = tuple(fixed)
        dest_of, mates_of = itemgetter(*dest_ix), itemgetter(*mate_ix)
        cleared = set(closing.values()).difference(fixed)
        new_states: Dict[Tuple[int, ...], Terms] = {}
        for state, weight in states.items():
            ext = fixed + state
            mated = tuple(map(port_at.__getitem__, mates_of(ext)))
            found = moves.get(mated)
            if found is None:
                links = list(mated)     # the port each port leads back to
                for p, q in loops:
                    links[p] = q
                links = tuple(links)
                found = moves[mated] = []
                for pair1, pair2, w in table:
                    joins, k = _JOINS[links, pair1, pair2]
                    factor = dict(w)        # w * LOOP^k
                    for _ in range(k):
                        factor = _times(factor, _LOOP)
                    found.append((joins, tuple(factor.items())))
            dest = dest_of(ext)
            wterms = weight.items()
            for joins, factor in found:
                new = list(state)
                for s in cleared:
                    new[s] = -1
                for p, q in joins:
                    a, b = dest[p], dest[q]
                    new[a], new[b] = b, a
                key = tuple(new)
                target = new_states.get(key)
                if target is None:
                    target = new_states[key] = {}
                for e2, c2 in factor:
                    for e1, c1 in wterms:
                        e = e1 + e2
                        target[e] = target.get(e, 0) + c1 * c2
        states = {}
        for key, terms in new_states.items():
            if 0 in terms.values():
                terms = {e: c for e, c in terms.items() if c}
            if terms:
                states[key] = terms
    arc_at = {s: ai for ai, s in last.items()}
    return {tuple(sorted(tuple(sorted((arc_at[s], arc_at[t])))
                         for s, t in enumerate(state) if s < t)): terms
            for state, terms in states.items()}, boundary


def contract(tables: Dict[str, Table],
             arcs: Sequence[ArcT]) -> Dict[frozenset, LaurentPoly]:
    """State sum of the tangle whose nodes are the keys of tables, by
    memoised frontier contraction.  A table entry (pair1, pair2, weight)
    joins the node's ports along both pairings.  Every port of a table
    node lies on an arc; an arc end at a node outside the tables is a
    boundary end.  Returns the nonzero weights by boundary pairing (a
    frozenset of two-end frozensets; empty for a closed diagram)."""
    states, boundary = _state_sum(tables, arcs)
    return {frozenset(frozenset((boundary[a], boundary[b])) for a, b in key):
            LaurentPoly.from_dict(terms) for key, terms in states.items()}


def _vertex_table(ports: Dict[str, int], a: Terms, b: Terms, c: Terms,
                  level: str) -> Table:
    """State table of a vertex whose scheme weights are a, b and c over a
    common denominator: each crossing choice contributes its two
    smoothings and the unfold its oriented pairing, all times -1."""
    phase = -3 if level == "p" else 0
    unfold = tuple(sorted((tuple(sorted((ports["in_a"], ports["out_b"]))),
                           tuple(sorted((ports["in_b"], ports["out_a"]))))))
    weights = {unfold: {e: -k for e, k in c.items()}}
    for sign, num in ((+1, a), (-1, b)):
        for pair1, pair2, e in _SMOOTHINGS[crossing_kind(ports, sign)]:
            w = weights.setdefault((pair1, pair2), {})
            shift = e + sign * phase
            for e2, k in num.items():
                w[e2 + shift] = w.get(e2 + shift, 0) - k
    return tuple((p1, p2, terms) for (p1, p2), w in weights.items()
                 if (terms := tuple((e, k) for e, k in w.items() if k)))


def closed_value(d: Diagram, schemes: Dict[str, Tuple[Terms, ...]],
                 level: str) -> Tuple[Terms, Terms]:
    """The value of a closed diagram at level 'z' (Z) or 'p' (A^(-3w) Z,
    w the writhe of its crossings), as kernel terms (num, den).  schemes
    maps a vertex kind to its scheme's (den, a, b, c) over_one_den terms;
    den is the product of the vertices' denominators.  The value is the
    state sum times LOOP^free_loops with one loop divided out, times
    (-1)^(components - 1 + w).  Raises DiagramError for a node of any
    other kind, then above the node cap or for an empty diagram."""
    ins = (d.port_roles()[1] if any(k in schemes for _, k in d.nodes)
           else None)
    tables: Dict[str, Table] = {}
    den: Terms = {0: 1}
    for i, kind in d.nodes:
        if kind in CROSSING_TABLES:
            tables[i] = CROSSING_TABLES[kind]
        elif kind in schemes:
            vden, a, b, c = schemes[kind]
            tables[i] = _vertex_table(strand_ports(ins, i), a, b, c, level)
            den = _times(den, vden)
        else:
            raise DiagramError(
                "node %s has kind %s, which this evaluation does not take "
                "(it takes %s)" % (i, kind, ", ".join(CROSSING_KINDS
                                                      + tuple(schemes))))
    components, writhe = d.components(), d.writhe()
    _check_size(d, components)
    total = _state_sum(tables, d.arcs)[0].get((), {})
    for _ in range(d.free_loops):
        total = _times(total, _LOOP)
    total = _exact_div(total, _LOOP)
    sign = -1 if (components - 1 + writhe) % 2 else 1
    shift = -3 * writhe if level == "p" else 0
    return {e + shift: sign * k for e, k in total.items()}, den


def z_eval(d: Diagram) -> LaurentPoly:
    """Z by frontier contraction; equals bracket_naive."""
    return LaurentPoly.from_dict(closed_value(d, {}, "z")[0])


def p_eval(d: Diagram) -> LaurentPoly:
    """The writhe-normalised invariant A^(-3w) * Z; unchanged under the
    first three Reidemeister moves."""
    return z_eval(d).shift(-3 * d.writhe())
