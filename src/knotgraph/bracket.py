"""Bracket evaluation by frontier contraction.

One engine, `contract`, sums the state model of a network of 4-port
nodes, each given by a table of local states (two port pairings and a
weight).  It absorbs the nodes in an order that keeps the open-strand
frontier small; each closed loop weighs -A^2 - A^-2.  Every arc joins
two nodes, and a port on no arc is a boundary end of the tangle, named
by its (node, port): one rule serves closed diagrams, vertex graphs and
open tangles.  Its oracle, naive_profile, takes the same tables and arcs
and sums every choice of one entry per table.

A contraction is planned, then run.  The plan fixes the node order
(greedy, from the narrower of two starts: _node_order) and gives each
open arc and boundary end a slot, reusing freed ones; a state gives
each slot its mate slot.  One pass over the arcs indexes each node by
its place in the order, port by port, so each step can carry what the
run reads a state with: a fixed tuple of the node's new slots, getters
for the slot each port's strand goes on in and for the ports its
closing arcs lead back to, and the slots it frees.  What a table entry
does to a state depends only on the table and on which of the node's
ports lead back to which.  For the two crossing tables it comes from a
constant table, built at import, of their 20 (table, local links) cases,
keyed by the identity of those module-lifetime tables; a vertex table is
built per call, so its cases are memoised for the call.  Both rest on a
constant table, built at import, of the 30 ways an entry's pairing can
meet the ports that lead back to the node.

Before the plan, one pass over the arcs absorbs each bigon: two crossing
nodes joined by exactly two arcs, both with all four ports on arcs and
no self-loop, become one 4-port node named after the smaller id; a node
joins at most one pair, taken in arc order.  The new node's table is the
pair's profile, naive_profile of the 2-node tangle, from a module-level
table keyed by the identities of the two crossing tables and the ports
the two arcs join: at most 288 keys, each computed on first use with its
cases beside it.  An R2 pair comes out as one identity entry of weight
1.  Vertex tables, nodes with boundary ends (an open tangle keeps its
end names) and nodes joined by three or four arcs are never paired.

Inside the engine a weight is a term dict of ring's Laurent kernel.
Bracket values lie in Z[A, A^-1], so the coefficients are ints, and
Fractions only where a table weight is non-integral (a marked vertex
carries 1/4).  Table weights are kernel terms already, the closing
division by the loop value stays in the same integer domain, and
contract and closed_value return kernel terms: LaurentPoly is built
only where z_eval returns a value.

closed_value is the one route from a closed diagram, link or graph, to
its value: node_tables, contract, then _close (free loops, sign and
writhe phase); bracket_naive runs naive_profile in place of contract.
A crossing's table holds its two smoothings.  A rigid vertex stands for
a weighted combination of a positive crossing, a negative crossing and
the oriented smoothing (the unfold), and its table holds its two port
pairings with the three choices' weights combined.  This is exact
because sign and framing factor locally: a crossing choice moves the
writhe by +-1 and an unfold the component count by +-1, so every choice
weighs -1 (times A^-+3 at level p) and the graph keeps (-1)^(c - 1 + w)
and A^(-3w), w the writhe of its crossings.

Link values are the oriented normalisation Z with loop value A^2 + A^-2
and positive kink factor A^3: the raw state sum times the sign
(-1)^(components - 1 + writhe).  p_eval also divides out A^(3*writhe).
"""

from __future__ import annotations

import heapq
import os
from fractions import Fraction
from itertools import accumulate, product
from operator import itemgetter
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from .diagram import (CROSSING_KINDS, ArcT, Diagram, DiagramError, End,
                      crossing_kind, strand_ports, whole_number)
from .ring import LOOP, LaurentPoly, Terms, _exact_div, _terms, _times

Pair = Tuple[int, int]
# a table entry's weight: the (exponent, coefficient) terms of ring's kernel
Weight = Tuple[Tuple[int, Union[int, Fraction]], ...]
Table = Sequence[Tuple[Pair, Pair, Weight]]

# the crossing tables: for each crossing kind, its two smoothings, each two
# port pairings and the weight A or A^-1.  The A-weighted smoothing joins
# the ports adjacent clockwise from the over strand.
CROSSING_TABLES: Dict[str, Table] = {
    "XPos": (((0, 3), (1, 2), ((1, 1),)), ((0, 1), (2, 3), ((-1, 1),))),
    "XNeg": (((0, 1), (2, 3), ((1, 1),)), ((0, 3), (1, 2), ((-1, 1),))),
}

# each level's power of A per unit of writhe: framed Z, and P = A^(-3w) Z
LEVELS: Dict[str, int] = {"z": 0, "p": -3}

_LOOP = _terms(LOOP)


def max_crossings() -> int:
    text = os.environ.get("MAX_CROSSINGS", "20")
    try:
        return whole_number(text)
    except ValueError:
        raise DiagramError("MAX_CROSSINGS=%.40r is not a whole number"
                           % text) from None


def check_size(d: Diagram) -> None:
    """Refuse a diagram above the node cap.  The cap counts every node,
    crossings and vertices alike, and every free loop, which multiplies
    the state sum by one loop factor."""
    size = len(d.nodes) + d.free_loops
    if size > max_crossings():
        raise DiagramError(
            "diagram has %d nodes and free loops, above the MAX_CROSSINGS "
            "limit %d" % (size, max_crossings()))


def naive_profile(tables: Dict[str, Table], arcs: Sequence[ArcT]
                  ) -> Dict[frozenset, Terms]:
    """contract's result by brute force: for every choice of one entry per
    table, a union-find joins the ports along its pairings and the arcs,
    and the product of its weights, times LOOP for each loop closed, goes
    to the pairing of the boundary ends that the open strands make."""
    nodes = sorted(tables)
    ports = [(n, p) for n in nodes for p in range(4)]
    on_arc = {end for arc in arcs for end in arc}
    boundary = [end for end in ports if end not in on_arc]
    loop_pow = list(accumulate([_LOOP] * len(ports), _times, initial={0: 1}))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sums: Dict[frozenset, Terms] = {}
    for choice in product(*(tables[n] for n in nodes)):
        parent = {end: end for end in ports}
        weight: Terms = {0: 1}
        for n, (pair1, pair2, w) in zip(nodes, choice):
            for p, q in (pair1, pair2):
                parent[find((n, p))] = find((n, q))
            weight = _times(weight, dict(w))
        for tail, head in arcs:
            parent[find(tail)] = find(head)
        groups: Dict[End, List[End]] = {}
        for end in boundary:
            groups.setdefault(find(end), []).append(end)
        loops = len({find(end) for end in ports}) - len(groups)
        total = sums.setdefault(frozenset(map(frozenset, groups.values())), {})
        for e, c in _times(weight, loop_pow[loops]).items():
            total[e] = total.get(e, 0) + c
    return {pairing: terms for pairing, total in sums.items()
            if (terms := {e: c for e, c in total.items() if c})}


# --- frontier contraction ---------------------------------------------------


def _node_order(nodes: Iterable[str], arcs: Sequence[ArcT]) -> List[str]:
    """Greedy ordering of the given nodes that keeps the number of open
    arcs small: next comes the node whose absorption grows the frontier
    least, first in sorted order on ties.  It starts at the last node a
    breadth-first search from the first node reaches (pseudo-peripheral:
    Gibbs, Poole and Stockmeyer, SIAM J. Numer. Anal. 13, 1976), unless a
    start at the node of least growth keeps the widest frontier narrower:
    a far start sweeps across many narrow links but widens many wide ones."""
    ids = sorted(nodes)
    n = len(ids)
    if not n:
        return []
    num = {node: i for i, node in enumerate(ids)}
    growth = [4] * n        # every port opens an arc or a boundary end
    nbrs: List[List[int]] = [[] for _ in ids]
    for (a, _), (b, _) in arcs:
        i, j = num[a], num[b]
        if i == j:          # but a loop at one node opens nothing
            growth[i] -= 2
        else:
            nbrs[i].append(j)
            nbrs[j].append(i)
    queue, seen = [0], [True] + [False] * (n - 1)
    for i in queue:         # a breadth-first search from the first node
        for j in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    # no frontier holds more than the 4n ports
    far = _greedy(ids, growth, nbrs, queue[-1], 4 * n + 1)
    near = _greedy(ids, growth, nbrs, min(range(n), key=growth.__getitem__),
                   far[0])
    return (near or far)[1]


def _greedy(ids: List[str], growth: List[int], nbrs: List[List[int]],
            start: int, bound: int) -> Optional[Tuple[int, List[str]]]:
    """The greedy order from node start and its widest frontier, or None
    once the frontier reaches bound.  Placing a node opens its arcs to the
    nodes still waiting, and each shared arc lowers their growth (arcs
    opened less arcs closed) by 2.  Heap key g * n + i: (growth, index)."""
    n = len(ids)
    key = [g * n + i for i, g in enumerate(growth)]
    # the start goes first: growth -1 is below every other (all >= 0)
    key[start], width = start - n, growth[start] + 1
    heap = key[:]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order, widest = [], -1
    while heap:
        k = pop(heap)
        i = k % n
        if key[i] != k:     # a stale key, or a placed node's (None)
            continue
        key[i] = None
        order.append(ids[i])
        width += k // n
        if width > widest:
            if width >= bound:
                return None
            widest = width
        for j in nbrs[i]:
            if key[j] is not None:
                key[j] -= 2 * n
                push(heap, key[j])
    return widest, order


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
_LINKS = tuple(sorted({_links(part) for m in _MATCHINGS
                       for part in ((), m[:1], m[1:], m)}))
_JOINS = {(links, pair1, pair2): _join(links, pair1, pair2)
          for links in _LINKS for pair1, pair2 in _MATCHINGS}


def _entries(table: Table, links: Tuple[int, ...]
             ) -> Tuple[Tuple[Tuple[Pair, ...], Weight], ...]:
    """What each entry of a node's table does to a state whose ports lead
    back along links: the outward ports it joins and its weight times
    LOOP^k for the k loops it closes, as kernel terms."""
    found = []
    for pair1, pair2, w in table:
        joins, k = _JOINS[links, pair1, pair2]
        factor = dict(w)
        for _ in range(k):
            factor = _times(factor, _LOOP)
        found.append((joins, tuple(factor.items())))
    return tuple(found)


# The entries of both crossing tables for each of the ten ways their
# ports can lead back, keyed by the identity of the table: these tables
# live as long as the module, so no other table shares their identity.
_CROSSING_JOINS = {id(table): {links: _entries(table, links)
                               for links in _LINKS}
                   for table in CROSSING_TABLES.values()}

# Each crossing pair's table, keyed by the identities of its two crossing
# tables and the (first node's port, second node's port) pairs of its two
# joining arcs: 2 * 2 * 72 = 288 keys at most.  A pair's profile is the
# same on every call, so an entry, computed on first use, stays.
_PAIRS: Dict[tuple, tuple] = {}


def _pair_table(ta: Table, tb: Table, pattern: Tuple[Pair, Pair]) -> tuple:
    """The table of crossings ta and tb joined along pattern, as one node:
    naive_profile of the 2-node tangle, whose ports 0, 1 are ta's free
    ports and 2, 3 are tb's, in order.  Returns the table, its cases for
    the ten local links, and the free ports as (0 for ta or 1 for tb,
    port)."""
    key = (id(ta), id(tb), pattern)
    if key not in _PAIRS:
        joined = ({p for p, _ in pattern}, {q for _, q in pattern})
        free = [(n, p) for n in (0, 1) for p in range(4) if p not in joined[n]]
        profile = naive_profile({0: ta, 1: tb},
                                [((0, p), (1, q)) for p, q in pattern])
        table = tuple(sorted(
            (*sorted(tuple(sorted(map(free.index, pair))) for pair in pairing),
             tuple(sorted(terms.items())))
            for pairing, terms in profile.items()))
        _PAIRS[key] = (table, {links: _entries(table, links)
                               for links in _LINKS}, free)
    return _PAIRS[key]


def _absorb_bigons(tables: Dict[str, Table], arcs: Sequence[ArcT]
                   ) -> Tuple[Dict[str, Table], Sequence[ArcT], dict]:
    """Each pair of crossings joined by exactly two arcs, both with every
    port on an arc and no self-loop, becomes one node named after the
    smaller id, with the pair's table (_pair_table); a node joins at most
    one pair, taken in arc order.  Returns the new tables and arcs and the
    pair tables' cases by table identity."""
    degree = dict.fromkeys(tables, 0)
    between: Dict[Tuple[str, str], List[Pair]] = {}
    for (a, p), (b, q) in arcs:
        if a == b:
            degree[a] += 8      # a node with a self-loop is never paired
            continue
        degree[a] += 1
        degree[b] += 1
        key, ports = ((a, b), (p, q)) if a < b else ((b, a), (q, p))
        between.setdefault(key, []).append(ports)
    taken = set()
    pairs = []
    for (a, b), pattern in between.items():
        if (len(pattern) == 2 and degree[a] == degree[b] == 4
                and a not in taken and b not in taken
                and id(tables[a]) in _CROSSING_JOINS
                and id(tables[b]) in _CROSSING_JOINS):
            taken.update((a, b))
            pairs.append((a, b, tuple(sorted(pattern))))
    if not pairs:
        return tables, arcs, {}
    tables = dict(tables)
    cases: Dict[int, dict] = {}
    renamed: Dict[End, End] = {}
    for a, b, pattern in pairs:
        table, found, free = _pair_table(tables[a], tables.pop(b), pattern)
        tables[a], cases[id(table)] = table, found
        for i, (n, p) in enumerate(free):
            renamed[(a, b)[n], p] = (a, i)
    # an arc inside a pair has no renamed end
    return tables, [(renamed.get(t, t), renamed.get(h, h)) for t, h in arcs
                    if t in renamed or t[0] not in taken], cases


def _plan(nodes: Iterable[str], arcs: Sequence[ArcT]
          ) -> Tuple[List[tuple], Dict[int, End], int]:
    """The order of _node_order and a slot for each open arc or boundary
    end (a port on no arc): a closing arc frees its slot, an opening arc
    or a boundary end takes a freed slot first.

    A state holds each slot's mate slot (-1 for a free slot), and a step
    reads it through ext = fixed + state.  A step is (node, fixed,
    mates_of, port_at, dest_of, cleared, frontier width after it):
    fixed[p] is port p's new slot if it opens, -2 - q if it is a
    self-loop to port q, else -1, and fixed[4] = -1; mates_of(ext) gives
    each closing port's mate slot (fixed[p] for a self-loop port, -1 for
    an opening one), and port_at maps such a value to the port it leads
    back to (-1 if none); dest_of(ext) gives each port the slot its
    strand goes on in: an opening port's new slot, a closing port's mate;
    cleared holds the slots freed and not taken again.  Also returns the
    boundary end held by each slot left open and the number of slots."""
    order = _node_order(nodes, arcs)
    pos = {node: i for i, node in enumerate(order)}
    # port p of the i-th node has index 4 * i + p; at[k] is the index of
    # the other end of port k's arc, None for a boundary end
    at: List[Optional[int]] = [None] * (4 * len(order))
    for (a, ap), (b, bp) in arcs:
        k, m = 4 * pos[a] + ap, 4 * pos[b] + bp
        at[k], at[m] = m, k
    held: Dict[int, int] = {}       # index of an opening port -> slot
    free: List[int] = []
    steps = []
    for i, node in enumerate(order):
        base = 4 * i
        fixed = [-1] * 5
        dest_ix, mate_ix = [0, 1, 2, 3], [4] * 4
        port_at = [-1] * (len(held) + len(free)) + [3, 2, 1, 0, -1]
        kept, fresh = len(free), []
        for p in range(4):
            k = at[base + p]
            if k is None or k >= base + 4:  # a boundary end or a later node
                fresh.append(p)
            elif k >= base:                 # a loop at this node
                fixed[p] = -2 - (k - base)
                mate_ix[p] = p
            else:
                s = held.pop(k)
                dest_ix[p] = mate_ix[p] = 5 + s
                port_at[s] = p
                free.append(s)
        for p in fresh:
            held[base + p] = fixed[p] = free.pop() if free else len(held)
        # the slots this step freed and no opening port took
        cleared = tuple(free[kept:])
        steps.append((node, tuple(fixed), itemgetter(*mate_ix), port_at,
                      itemgetter(*dest_ix), cleared, len(held)))
    return (steps, {s: (order[k // 4], k % 4) for k, s in held.items()},
            len(held) + len(free))


def contract(tables: Dict[str, Table], arcs: Sequence[ArcT]
             ) -> Dict[frozenset, Terms]:
    """State sum of the tangle whose nodes are the keys of tables, by
    frontier contraction.  A table entry (pair1, pair2, weight) joins the
    node's ports along both pairings.  Every arc joins two table nodes,
    and a port on no arc is a boundary end, named by its (node, port).
    Returns the nonzero weights, as kernel terms, by the pairing of the
    boundary ends that each state makes (a frozenset of two-end
    frozensets; empty for a closed diagram)."""
    tables, arcs, memo = _absorb_bigons(tables, arcs)
    steps, ends, width = _plan(tables, arcs)
    states: Dict[Tuple[int, ...], Terms] = {(-1,) * width: {0: 1}}
    for node, fixed, mates_of, port_at, dest_of, cleared, _ in steps:
        table = tables[node]
        cases = _CROSSING_JOINS.get(id(table))
        if cases is None:
            cases = memo.setdefault(id(table), {})
        port_of = port_at.__getitem__
        new_states: Dict[Tuple[int, ...], Terms] = {}
        summed = set()      # the targets a sum may have left a zero in
        for state, weight in states.items():
            ext = fixed + state
            links = tuple(map(port_of, mates_of(ext)))
            found = cases.get(links)
            if found is None:
                found = cases[links] = _entries(table, links)
            dest = dest_of(ext)
            wterms = weight.items()
            base = state
            if cleared:
                base = list(state)
                for s in cleared:
                    base[s] = -1
            for joins, factor in found:
                new = list(base)
                for p, q in joins:
                    a, b = dest[p], dest[q]
                    new[a], new[b] = b, a
                key = tuple(new)
                target = new_states.get(key)
                if target is None:
                    if len(factor) == 1:    # nonzero times nonzero
                        (e2, c2), = factor
                        new_states[key] = {e1 + e2: c1 * c2
                                           for e1, c1 in wterms}
                        continue
                    target = new_states[key] = {}
                summed.add(key)
                for e2, c2 in factor:
                    for e1, c1 in wterms:
                        e = e1 + e2
                        target[e] = target.get(e, 0) + c1 * c2
        for key in summed:
            terms = new_states[key]
            if 0 in terms.values():
                terms = {e: c for e, c in terms.items() if c}
                if terms:
                    new_states[key] = terms
                else:
                    del new_states[key]
        states = new_states
    return {frozenset(frozenset((ends[s], ends[t]))
                      for s, t in enumerate(state) if s < t): terms
            for state, terms in states.items()}


def _vertex_table(ports: Dict[str, int], a: Terms, b: Terms, c: Terms,
                  level: str) -> Table:
    """State table of a vertex whose scheme weights are a, b and c over a
    common denominator: each crossing choice contributes its two
    smoothings and the unfold its oriented pairing, all times -1."""
    phase = LEVELS[level]
    unfold = tuple(sorted((tuple(sorted((ports["in_a"], ports["out_b"]))),
                           tuple(sorted((ports["in_b"], ports["out_a"]))))))
    weights = {unfold: {e: -k for e, k in c.items()}}
    for sign, num in ((+1, a), (-1, b)):
        for pair1, pair2, mono in CROSSING_TABLES[crossing_kind(ports, sign)]:
            w = weights.setdefault((pair1, pair2), {})
            shift = mono[0][0] + sign * phase       # mono is A or A^-1
            for e2, k in num.items():
                w[e2 + shift] = w.get(e2 + shift, 0) - k
    return tuple((p1, p2, terms) for (p1, p2), w in weights.items()
                 if (terms := tuple((e, k) for e, k in w.items() if k)))


def node_tables(nodes: Sequence[Tuple[str, str]],
                ins: Optional[Dict[End, ArcT]],
                schemes: Dict[str, Tuple[Terms, ...]], level: str
                ) -> Tuple[Dict[str, Table], Terms]:
    """Each (id, kind) node's table at level 'z' or 'p', and the product
    of the vertices' denominators.  schemes maps a vertex kind to its
    scheme's (den, a, b, c) over_one_den terms; ins (Diagram.in_ports)
    orients the vertices.  Raises DiagramError for any other kind."""
    tables: Dict[str, Table] = {}
    den: Terms = {0: 1}
    for i, kind in nodes:
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
    return tables, den


def _close(d: Diagram, profile: Dict[frozenset, Terms],
           level: str) -> Terms:
    """A closed diagram's value from its state sum's profile: times LOOP
    per free loop with one loop divided out, (-1)^(components - 1 + w)
    and, at level 'p', A^(-3w), w the writhe of its crossings.  An empty
    diagram has no loop to divide out: it raises DiagramError."""
    if not d.nodes and not d.free_loops:
        raise DiagramError("empty diagram has no bracket value")
    total = profile.get(frozenset(), {})
    for _ in range(d.free_loops):
        total = _times(total, _LOOP)
    total = _exact_div(total, _LOOP)
    writhe = d.writhe()
    sign = -1 if (d.components() - 1 + writhe) % 2 else 1
    shift = LEVELS[level] * writhe
    return {e + shift: sign * k for e, k in total.items()}


def closed_value(d: Diagram, schemes: Dict[str, Tuple[Terms, ...]],
                 level: str) -> Tuple[Terms, Terms]:
    """The value of a closed diagram at level 'z' (Z) or 'p' (A^(-3w) Z,
    w the writhe of its crossings), as kernel terms (num, den).  Raises
    DiagramError for a level not in LEVELS, then for a node of any other
    kind than a crossing or a key of schemes, then above the node cap or
    for an empty diagram."""
    if level not in LEVELS:
        raise DiagramError("level %r is not in %r" % (level, tuple(LEVELS)))
    ins = d.in_ports() if any(k in schemes for _, k in d.nodes) else None
    tables, den = node_tables(d.nodes, ins, schemes, level)
    check_size(d)
    return _close(d, contract(tables, d.arcs), level), den


def bracket_naive(d: Diagram) -> LaurentPoly:
    """Z by closed_value's route with naive_profile in place of contract;
    raises as closed_value does."""
    tables, _ = node_tables(d.nodes, None, {}, "z")
    check_size(d)
    return LaurentPoly.from_dict(_close(d, naive_profile(tables, d.arcs), "z"))


def z_eval(d: Diagram) -> LaurentPoly:
    """Z by frontier contraction; equals bracket_naive."""
    return LaurentPoly.from_dict(closed_value(d, {}, "z")[0])


def p_eval(d: Diagram) -> LaurentPoly:
    """The writhe-normalised invariant A^(-3w) * Z; unchanged under the
    first three Reidemeister moves."""
    return z_eval(d).shift(LEVELS["p"] * d.writhe())
