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
keyed by the identity of those module-lifetime tables.  A twist table
(below) is built once per net twist, and a vertex table once per scheme
weights, level and orientation, kept in a store of at most 64 that holds
every table its identity-keyed cases name; each keeps its cases across
calls as contract meets them.  Only a table the caller builds has its
cases memoised for the call alone.  All rest on a constant table, built
at import, of the 30 ways an entry's pairing can meet the ports that
lead back to the node.  A table's packed cases (below) sit in the same
dict as its term cases, keyed by their digit width, a multiple of 16
bits.

Before the plan, one pass over the arcs absorbs each twist region, a
chain of crossings joined two arcs at a time, into one 4-port node.  In
the 2-strand Temperley-Lieb algebra a crossing is A 1 + A^-1 e or its
inverse, so a region of net twist m is sigma^m = A^m 1 + c_m e (Kauffman,
Topology 26, 1987): a table of two entries, from a module-level table
keyed by m.  A region of net twist 0, such as an R2 pair, is the
identity: it gets no node, its two strands are spliced straight through,
and a strand that closes on itself is a free loop.  Vertex tables, nodes
with boundary ends (an open tangle keeps its end names) or a self-loop,
and two crossings joined by three or four arcs or from opposite ports
are never in a twist.

Table weights are terms of ring's Laurent kernel, and contract and
closed_value return kernel terms: LaurentPoly is built only where z_eval
returns a value.  Inside the run, a network whose every table packs
(every link, and every graph under the Vassiliev or the plain Casimir
scheme) packs each state's weight into one int, a Kronecker
substitution: A^low sum_k c_k A^(2k) is read as sum_k c_k 2^(C k), so
absorbing a node costs a multiply, a shift and an add per state and
entry.  A table packs when its coefficients are ints, its exponents have
one parity and they span at most twice as many digits as it has terms;
a shared table is checked once, when it is made, and a caller's table
once per call.  Exponents two apart then suffice, because every entry,
and the loop value, keeps the parity of a state's exponents.  The int is
exact whatever its digits carry; only the final coefficients must fit
in C bits, and _digit_width bounds them from the plan.  Each surviving
state is decoded once, in balanced base 2^C.  Any other network keeps
term dicts, whose coefficients are ints, and Fractions only where a
table weight is non-integral: a marked vertex carries 1/4, the weights
(A, 2, -3A^-1) mix parities, and a sparse weight such as A^10000 would
make a packed int span every exponent between its terms.

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
        factor = w      # shared, not copied, where no loop closes
        for _ in range(k):
            factor = tuple(_times(dict(factor), _LOOP).items())
        found.append((joins, tuple(factor)))
    return tuple(found)


# A packed weight is a Kronecker substitution (Harvey, J. Symbolic
# Comput. 44, 2009): a pair (low, x) stands for the terms c A^(low + S k)
# and x for the integer sum of c 2^(C k), S the spacing and C the digit
# width.  Every table that packs has exponents of one parity (_norms), as
# crossing and twist tables do, and LOOP's are even, so all the states of
# one step have exponents of one parity and S = 2 holds them.  (S = 4
# holds a planar network's, whose states' exponents agree mod 4, but
# nothing checks that a network is planar.)
_SPACING = 2


def _loop_norm(table: Table, closing: int) -> int:
    """The sum over a table's entries of the L1 norm of its weight times
    2^k, k the number of its pairings whose two ports are both bits of
    closing."""
    norm = 0
    for (p, q), (r, s), w in table:
        l1 = 0
        for _, c in w:
            l1 += abs(c)
        norm += l1 << (closing >> p & closing >> q & 1) + (
            closing >> r & closing >> s & 1)
    return norm


def _norms(table: Table) -> Optional[List[int]]:
    """A table's _loop_norm for each of the 16 sets of closing ports, or
    None where its weights do not pack: no entry or an empty weight, a
    coefficient that is not an int, exponents of both parities, or
    exponents that span more than twice as many digits as the table has
    terms (a sparse weight such as A^10000 + A^-10000 would make a packed
    int span every exponent between its terms)."""
    exps = [e for _, _, w in table for e, _ in w]
    if (not exps or not all(w for _, _, w in table)
            or any(type(c) is not int for _, _, w in table for _, c in w)
            or len({e % 2 for e in exps}) > 1
            or (max(exps) - min(exps)) // _SPACING >= 2 * len(exps)):
        return None
    return [_loop_norm(table, closing) for closing in range(16)]


class _Cases(dict):
    """A shared table's cases, kept across calls as long as the table: what
    each entry does to a state, by the local links (_entries), and its
    packed cases, by digit width (_run_packed); norms holds its _norms,
    checked once when the table is made."""

    __slots__ = ("norms",)

    def __init__(self, table: Table, cases: Iterable = ()) -> None:
        super().__init__(cases)
        self.norms = _norms(table)


# The cases of both crossing tables, with the entries for each of the ten
# ways their ports can lead back, keyed by the identity of the table:
# these tables live as long as the module, so no other table shares their
# identity.
_CROSSING_JOINS = {id(table): _Cases(table, ((links, _entries(table, links))
                                             for links in _LINKS))
                   for table in CROSSING_TABLES.values()}

# Each crossing table's twist step by a pair of adjacent ports: the entry
# that joins them is e, and its weight A takes the net twist down by 1,
# A^-1 up by 1.
_TWIST_STEP = {(id(t), pair): -w[0][0] for t in CROSSING_TABLES.values()
               for p1, p2, w in t for pair in (p1, p2)}

# Each twist region's table, keyed by its net twist m != 0, with its cases
# (_Cases) as contract meets them: sigma^m = A^m 1 + ((-1)^m A^-3m - A^m) /
# LOOP e in the 2-strand Temperley-Lieb algebra, 1 joining ports 0-2 and
# 1-3 and e 0-1 and 2-3.  At m = 0 the region is 1 and gets no node.
_TWISTS: Dict[int, tuple] = {}


def _twist_table(m: int) -> tuple:
    if m not in _TWISTS:
        e = _exact_div({-3 * m: -1 if m % 2 else 1, m: -1}, _LOOP)
        table = (((0, 2), (1, 3), ((m, 1),)),
                 ((0, 1), (2, 3), tuple(sorted(e.items()))))
        _TWISTS[m] = table, _Cases(table)
    return _TWISTS[m]


def _absorb_twists(tables: Dict[str, Table], arcs: Sequence[ArcT]
                   ) -> Tuple[Dict[str, Table], Sequence[ArcT], dict, int]:
    """Each twist region becomes one node, named after its first crossing,
    with the table of its net twist (_twist_table).  Two crossings, both
    with every port on an arc and no self-loop, are neighbours when
    exactly two arcs join them and leave each from adjacent ports; each
    has at most two, so the chains are paths, and cycles, which leave one
    crossing out.  Ports 0, 1 are the first crossing's outer ports and
    2, 3 the last's that the all-1 state joins them to.  A region of net
    twist 0 is 1 and gets no node: its strands, 0-2 and 1-3, are spliced,
    the arc into each going on to where the arc out of it leads, and a
    strand closed by such strands alone is a free loop.  Returns the new
    tables and arcs, the twist tables' cases by table identity and the
    number of free loops made."""
    degree = dict.fromkeys(tables, 0)
    between: Dict[Tuple[str, str], List[Pair]] = {}
    for (a, p), (b, q) in arcs:
        if a == b:
            degree[a] += 8      # a node with a self-loop is in no twist
            continue
        degree[a] += 1
        degree[b] += 1
        key, ports = ((a, b), (p, q)) if a < b else ((b, a), (q, p))
        between.setdefault(key, []).append(ports)
    nbrs: Dict[str, List[str]] = {}
    link: Dict[End, End] = {}       # along the two arcs between neighbours
    for (a, b), pattern in between.items():
        if (len(pattern) == 2 and degree[a] == degree[b] == 4
                and (pattern[0][0] - pattern[1][0]) % 2
                and (pattern[0][1] - pattern[1][1]) % 2
                and id(tables[a]) in _CROSSING_JOINS
                and id(tables[b]) in _CROSSING_JOINS):
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
            for p, q in pattern:
                link[a, p], link[b, q] = (b, q), (a, p)
    if not nbrs:
        return tables, arcs, {}, 0
    tables = dict(tables)
    cases: Dict[int, dict] = {}
    renamed: Dict[End, End] = {}
    taken: set = set()
    strands: List[Tuple[End, End]] = []     # each net-zero strand's ends
    # the paths, each from an end, then the cycles, each from a neighbour
    # of the crossing out that it leaves out, from the ports to out
    for node in [n for n, near in nbrs.items() if len(near) == 1] + list(nbrs):
        if node in taken:
            continue
        out = node if len(nbrs[node]) == 2 else None
        if out is not None:
            node = nbrs[out][0]
        x, y = (p for p in range(4) if link.get((node, p), (None,))[0] == out)
        first, m, ends = node, 0, ((node, x), (node, y))
        while True:     # the all-1 state's strands go on from x and y
            taken.add(node)
            m += _TWIST_STEP[id(tables.pop(node)), (x, y) if x < y else (y, x)]
            x, y = (2 * x - y) % 4, (2 * y - x) % 4
            on = link.get((node, x))
            if on is None or on[0] == out:
                break
            node, x, y = on[0], on[1], link[node, y][1]
        if m:
            renamed[ends[0]], renamed[ends[1]] = (first, 0), (first, 1)
            renamed[node, x], renamed[node, y] = (first, 2), (first, 3)
            tables[first], found = _twist_table(m)
            cases[id(tables[first])] = found
        else:
            strands += (ends[0], (node, x)), (ends[1], (node, y))
    loops = 0
    if strands:
        head = dict(arcs)
        # each net-zero strand from the end it enters at to the one it leaves
        through = dict((b, a) if a in head else (a, b) for a, b in strands)
        while through:
            a, b = through.popitem()
            end = head[b]
            while end in through:       # a net-zero strand follows
                end = head[through.pop(end)]
            if end == a:
                loops += 1
            else:       # the arc into a goes on to end
                renamed[a] = renamed.get(end, end)
    # an arc inside a twist or out of a net-zero strand has no renamed tail
    return tables, [(renamed.get(t, t), renamed.get(h, h)) for t, h in arcs
                    if t in renamed or t[0] not in taken], cases, loops


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


def _digit_width(steps: List[tuple], nodes: Dict[str, tuple],
                 loops: int) -> int:
    """The digit width C of the packed run of a plan's steps, each node's
    (table, cases, norms) in nodes, to which absorbing the twists added
    loops free loops: enough bits for every coefficient of the state sum.

    A loop closes at the step that places the last of its nodes, and
    there it runs along a pairing of the chosen entry whose two ports
    both lead back, to earlier nodes or to the node itself.  So an entry
    closes at most as many loops as it has such pairings, k, and the L1
    norm of the state sum is at most 2^loops times the product over the
    steps of the sum over the node's entries of |weight|_1 2^k
    (_loop_norm).  That sum is 3 for a crossing whose two adjacent
    in-ports lead back, as in a braid closure, and at most 4 (1 + |m|)
    for a twist of net twist m; each table's norms hold it for the 16
    sets of closing ports (_norms).  A digit of C bits holds a
    coefficient c in balanced base 2^C when |c| < 2^(C - 1), so C is one
    bit more than the bound's bit length, rounded up to a multiple of 16
    so that few widths, and so few packed cases, ever occur."""
    norm = 1 << loops
    for node, fixed, *_ in steps:
        f0, f1, f2, f3, _ = fixed       # below 0: the port leads back
        closing = (f0 < 0) | (f1 < 0) << 1 | (f2 < 0) << 2 | (f3 < 0) << 3
        norm *= nodes[node][2][closing]
    return -(-(norm.bit_length() + 1) // 16) * 16


def _pack(cases: dict, table: Table, links: Tuple[int, ...], width: int
          ) -> Tuple[Tuple[Tuple[Pair, ...], int, int], ...]:
    """The term case of links with each weight packed at the given digit
    width.  A twist's or a vertex's term case is built here but not kept:
    only its packed cases are read again."""
    packed = []
    for joins, factor in cases.get(links) or _entries(table, links):
        low = min(e for e, _ in factor)
        packed.append((joins, low, sum(c << (e - low) // _SPACING * width
                                       for e, c in factor)))
    return tuple(packed)


def _unpack(low: int, x: int, width: int) -> Terms:
    """The terms of a packed weight, from x's digits in balanced base
    2^width."""
    terms = {}
    full = 1 << width
    half, mask = full >> 1, full - 1
    while x:
        c = x & mask
        if c >= half:
            c -= full
        if c:
            terms[low] = c
        x = (x - c) >> width
        low += _SPACING
    return terms


def contract(tables: Dict[str, Table], arcs: Sequence[ArcT]
             ) -> Dict[frozenset, Terms]:
    """State sum of the tangle whose nodes are the keys of tables, by
    frontier contraction.  A table entry (pair1, pair2, weight) joins the
    node's ports along both pairings.  Every arc joins two table nodes,
    from an out-port to an in-port as in a Diagram, and a port on no arc
    is a boundary end, named by its (node, port).  Returns the nonzero
    weights, as kernel terms, by the pairing of the boundary ends that
    each state makes (a frozenset of two-end frozensets; empty for a
    closed diagram).  Where every table left after _absorb_twists packs
    (_norms), each state's weight is one packed integer (_run_packed);
    otherwise, as with a marked vertex's 1/4 or a weight of both
    parities, states keep term dicts (_run_terms)."""
    tables, arcs, memo, loops = _absorb_twists(tables, arcs)
    steps, ends, slots = _plan(tables, arcs)
    found: Dict[int, tuple] = {}
    for table in tables.values():
        if id(table) not in found:
            found[id(table)] = _cases(table, memo)
    nodes = {node: found[id(table)] for node, table in tables.items()}
    if all(norms for _, _, norms in found.values()):
        width = _digit_width(steps, nodes, loops)
        states = {state: _unpack(low, x, width) for state, (low, x)
                  in _run_packed(steps, nodes, slots, loops, width).items()}
    else:
        states = _run_terms(steps, nodes, slots, loops)
    return {frozenset(frozenset((ends[s], ends[t]))
                      for s, t in enumerate(state) if s < t): terms
            for state, terms in states.items()}


def _cases(table: Table, memo: dict) -> tuple:
    """A table, its cases and its norms (_norms).  A crossing, twist or
    shared vertex table keeps its cases across calls (_Cases) and was
    checked when it was made; any other table, built by the caller, gets
    cases in memo for this call and is checked here."""
    key = id(table)
    for store in (_CROSSING_JOINS, memo, _VERTEX_CASES):
        cases = store.get(key)
        if cases is not None:
            break
    else:
        cases = memo[key] = {}
    if isinstance(cases, _Cases):
        return table, cases, cases.norms
    return table, cases, _norms(table)


def _run_terms(steps: List[tuple], nodes: Dict[str, tuple], slots: int,
               loops: int) -> Dict[Tuple[int, ...], Terms]:
    """The plan's run with each state's weight a term dict, each node's
    (table, cases, norms) in nodes."""
    states: Dict[Tuple[int, ...], Terms] = {(-1,) * slots: {0: 1}}
    for node, fixed, mates_of, port_at, dest_of, cleared, _ in steps:
        table, cases, _ = nodes[node]
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
    for _ in range(loops):
        states = {state: _times(w, _LOOP) for state, w in states.items()}
    return states


def _run_packed(steps: List[tuple], nodes: Dict[str, tuple], slots: int,
                loops: int, width: int
                ) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """The plan's run with each state's weight packed as (low, x), low
    its lowest exponent (_SPACING).  An entry's packed weight multiplies
    x and adds to low; two weights that meet add after the one of higher
    low is shifted by whole digits.  The integers are exact, so only the
    final coefficients must fit a digit (_digit_width).  A table's packed
    cases sit in its cases dict (nodes, as in _run_terms) under the key
    width, beside its term cases."""
    spacing = _SPACING
    states: Dict[Tuple[int, ...], Tuple[int, int]] = {(-1,) * slots: (0, 1)}
    for node, fixed, mates_of, port_at, dest_of, cleared, _ in steps:
        table, cases, _ = nodes[node]
        packed = cases.get(width)
        if packed is None:
            packed = cases[width] = {}
        port_of = port_at.__getitem__
        new_states: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        for state, (low, x) in states.items():
            ext = fixed + state
            links = tuple(map(port_of, mates_of(ext)))
            found = packed.get(links)
            if found is None:
                found = packed[links] = _pack(cases, table, links, width)
            dest = dest_of(ext)
            base = state
            if cleared:
                base = list(state)
                for s in cleared:
                    base[s] = -1
            for joins, f, y in found:
                new = list(base)
                for p, q in joins:
                    a, b = dest[p], dest[q]
                    new[a], new[b] = b, a
                key = tuple(new)
                e, v = low + f, x * y if y != 1 else x
                target = new_states.get(key)
                if target is None:
                    new_states[key] = e, v
                    continue
                e1, x1 = target
                if e1 < e:
                    v, e = x1 + (v << (e - e1) // spacing * width), e1
                else:
                    v += x1 << (e1 - e) // spacing * width
                if v:
                    new_states[key] = e, v
                else:
                    del new_states[key]
        states = new_states
    loop = -1 - (1 << 4 // spacing * width)     # LOOP = -A^-2 - A^2
    return {state: (low - 2 * loops, x * loop ** loops)
            for state, (low, x) in states.items()}


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


# The vertex tables node_tables has built, oldest first, keyed by their
# scheme weights' terms, level and orientation, and each one's cases
# (_Cases) keyed by its identity: the store holds every table that
# _VERTEX_CASES names, and drops its oldest beyond _VERTEX_LIMIT tables.
_VERTICES: Dict[tuple, Table] = {}
_VERTEX_CASES: Dict[int, _Cases] = {}
_VERTEX_LIMIT = 64


def _shared_vertex_table(ports: Dict[str, int], a: Terms, b: Terms,
                         c: Terms, level: str) -> Table:
    """_vertex_table's table, built once and kept in _VERTICES."""
    key = (level, ports["in_a"], ports["in_b"], tuple(a.items()),
           tuple(b.items()), tuple(c.items()))
    table = _VERTICES.get(key)
    if table is None:
        if len(_VERTICES) >= _VERTEX_LIMIT:
            del _VERTEX_CASES[id(_VERTICES.pop(next(iter(_VERTICES))))]
        table = _VERTICES[key] = _vertex_table(ports, a, b, c, level)
        _VERTEX_CASES[id(table)] = _Cases(table)
    return table


def node_tables(nodes: Sequence[Tuple[str, str]],
                ins: Optional[Dict[End, ArcT]],
                schemes: Dict[str, Tuple[Terms, ...]], level: str
                ) -> Tuple[Dict[str, Table], Terms]:
    """Each (id, kind) node's table at level 'z' or 'p', and the product
    of the vertices' denominators.  schemes maps a vertex kind to its
    scheme's (den, a, b, c) over_one_den terms; ins (Diagram.in_ports)
    orients the vertices, and every call with the same weights, level and
    orientation gets the same table (_shared_vertex_table).  Raises
    DiagramError for any other kind."""
    tables: Dict[str, Table] = {}
    den: Terms = {0: 1}
    for i, kind in nodes:
        if kind in CROSSING_TABLES:
            tables[i] = CROSSING_TABLES[kind]
        elif kind in schemes:
            vden, a, b, c = schemes[kind]
            tables[i] = _shared_vertex_table(strand_ports(ins, i), a, b, c,
                                             level)
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
