"""Bracket evaluation by frontier contraction.

One engine, `contract`, sums the state model of a network of 4-port
nodes, each given by a table of local states (two port pairings and a
weight).  It absorbs the nodes in an order that keeps the open-strand
frontier small; each closed loop weighs -A^2 - A^-2, and arcs leaving
the tables are tangle boundary.  Crossings bring their two smoothings;
graphinv builds the tables of rigid vertices.  bracket_naive enumerates
all 2^n smoothings independently and is the oracle.

Inside the engine a weight is a term dict of ring's Laurent kernel.
Bracket values lie in Z[A, A^-1], so the coefficients are ints, and
Fractions only where a table weight is non-integral (a marked vertex
carries 1/4).  Table weights are converted once per contraction, the
closing division by the loop value stays in the same integer domain, and
LaurentPoly is built only for the values the engine returns.

Link values are the oriented normalisation Z with loop value A^2 + A^-2
and positive kink factor A^3: the raw state sum times the sign
(-1)^(components - 1 + writhe).  p_eval also divides out A^(3*writhe).
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Sequence, Tuple

from .diagram import VERTEX_KINDS, ArcT, Diagram, DiagramError, End
from .ring import (LOOP, ZERO, LaurentPoly, Terms, _exact_div, _terms,
                   _times)

# smoothing tables: for each crossing kind, the two local port pairings
# with their weights.  The A-weighted smoothing joins the ports adjacent
# clockwise from the over strand.
_SMOOTHINGS = {
    "XPos": (((0, 3), (1, 2), 1), ((0, 1), (2, 3), -1)),
    "XNeg": (((0, 1), (2, 3), 1), ((0, 3), (1, 2), -1)),
}

Pair = Tuple[int, int]
Table = Sequence[Tuple[Pair, Pair, LaurentPoly]]

CROSSING_TABLES: Dict[str, Table] = {
    kind: tuple((p, q, LaurentPoly.monomial(e)) for p, q, e in entries)
    for kind, entries in _SMOOTHINGS.items()}


def max_crossings() -> int:
    return int(os.environ.get("MAX_CROSSINGS", "20"))


def _check_link(d: Diagram) -> None:
    d.require_valid()
    for i, k in d.nodes:
        if k in VERTEX_KINDS:
            raise DiagramError(
                "node %s is a vertex; resolve it first (graph evaluation)" % i)


def _check_size(d: Diagram) -> None:
    """The cap counts every node, crossings and vertices alike, and every
    free loop, which multiplies the state sum by one loop factor."""
    size = len(d.nodes) + d.free_loops
    if size > max_crossings():
        raise DiagramError(
            "diagram has %d nodes and free loops, above the MAX_CROSSINGS "
            "limit %d" % (size, max_crossings()))
    if d.components() == 0:
        raise DiagramError("empty diagram has no bracket value")


def _sign_correction(d: Diagram) -> int:
    return -1 if (d.components() - 1 + d.writhe()) % 2 else 1


def bracket_naive(d: Diagram) -> LaurentPoly:
    """Z by brute-force enumeration of every smoothing state."""
    _check_link(d)
    _check_size(d)
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


def _join(far: Dict[int, int], back: Dict[int, int], pair1: Pair,
          pair2: Pair) -> Tuple[List[Pair], int]:
    """Join a node's ports along pair1 and pair2.  A port leads either to
    an open arc (far) or back to another port of the node (back).  Returns
    the pairs of open arcs now joined and the number of loops closed."""
    inner = {}
    for x, y in (pair1, pair2):
        inner[x], inner[y] = y, x
    joins = []
    seen = set()
    for p in far:
        if p in seen:
            continue
        seen.add(p)
        q = inner[p]
        while q not in far:
            r = back[q]
            seen.update((q, r))
            q = inner[r]
        seen.add(q)
        a, b = far[p], far[q]
        joins.append((a, b) if a < b else (b, a))
    loops = 0
    for p in back:
        if p in seen:
            continue
        loops += 1
        while p not in seen:
            q = back[p]
            seen.update((p, q))
            p = inner[q]
    return joins, loops


def _state_sum(tables: Dict[str, Table], arcs: Sequence[ArcT]
               ) -> Tuple[Dict[Tuple[Pair, ...], Terms], Dict[int, End]]:
    """The contraction itself: the nonzero state weights, keyed by the
    sorted pairs of boundary arcs that each state joins, and each
    boundary arc's end outside the tables."""
    at: Dict[str, Dict[int, int]] = {n: {} for n in tables}
    for ai, arc in enumerate(arcs):
        for n, p in arc:
            if n in at:
                at[n][p] = ai
    boundary = {ai: end for ai, arc in enumerate(arcs)
                for end in arc if end[0] not in at}
    loop = _terms(LOOP)
    powers: List[Terms] = [{0: 1}]          # LOOP^k, grown on demand
    states: Dict[Tuple[Pair, ...], Terms] = {(): {0: 1}}
    done: set = set()
    for node in _node_order(at, arcs):
        closing: Dict[int, int] = {}   # open arc -> its port on the node
        fresh: Dict[int, int] = {}     # port -> arc that opens here
        self_loops: Dict[int, int] = {}
        for p, ai in at[node].items():
            (a, ap), (b, bp) = arcs[ai]
            if a == b == node:
                self_loops[ap], self_loops[bp] = bp, ap
            elif (b if a == node else a) in done:
                closing[ai] = p
            else:
                fresh[p] = ai
        done.add(node)
        entries = [(pair1, pair2, _terms(w))
                   for pair1, pair2, w in tables[node]]
        factors: Dict[Tuple[int, int], Terms] = {}   # weight * LOOP^loops
        new_states: Dict[Tuple[Pair, ...], Terms] = {}
        for key, weight in states.items():
            kept = []
            far = dict(fresh)
            back = dict(self_loops)
            for pair in key:
                a, b = pair
                if a in closing and b in closing:
                    back[closing[a]], back[closing[b]] = closing[b], closing[a]
                elif a in closing:
                    far[closing[a]] = b
                elif b in closing:
                    far[closing[b]] = a
                else:
                    kept.append(pair)
            for j, (pair1, pair2, w) in enumerate(entries):
                joins, loops = _join(far, back, pair1, pair2)
                factor = factors.get((j, loops))
                if factor is None:
                    while len(powers) <= loops:
                        powers.append(_times(powers[-1], loop))
                    factor = factors[j, loops] = _times(w, powers[loops])
                target = new_states.setdefault(tuple(sorted(kept + joins)), {})
                for e2, c2 in factor.items():
                    for e1, c1 in weight.items():
                        e = e1 + e2
                        target[e] = target.get(e, 0) + c1 * c2
        states = {}
        for key, terms in new_states.items():
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                states[key] = terms
    return states, boundary


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


def closed_value(d: Diagram, tables: Dict[str, Table],
                 writhe: int) -> LaurentPoly:
    """Z-level value of a valid closed diagram whose nodes expand by the
    given tables: the state sum times LOOP^free_loops with one loop
    divided out, times (-1)^(components - 1 + writhe), writhe being that
    of the crossings.  Raises DiagramError above the node cap or for an
    empty diagram."""
    _check_size(d)
    total = _state_sum(tables, d.arcs)[0].get((), {})
    loop = _terms(LOOP)
    for _ in range(d.free_loops):
        total = _times(total, loop)
    total = _exact_div(total, loop)
    if (d.components() - 1 + writhe) % 2:
        total = {e: -c for e, c in total.items()}
    return LaurentPoly.from_dict(total)


def z_eval(d: Diagram) -> LaurentPoly:
    """Z by frontier contraction; equals bracket_naive."""
    _check_link(d)
    return closed_value(d, {i: CROSSING_TABLES[k] for i, k in d.nodes},
                        d.writhe())


def p_eval(d: Diagram) -> LaurentPoly:
    """The writhe-normalised invariant A^(-3w) * Z; unchanged under the
    first three Reidemeister moves."""
    return z_eval(d).shift(-3 * d.writhe())
