"""Generalized Reidemeister rewriting.

Seven rewrites act on diagrams:

  R1+  insert a kink on an arc           R1-  delete a kink
  R2+  push one strand across another    R2-  cancel such a pair
  R3   slide a strand over a crossing (self-inverse)
  R4   slide a strand over a rigid vertex (self-inverse)
  R5   rotate a crossing to the other side of a vertex (self-inverse)

R3, R4 and R5 share one mechanism: each strand of the local site passes
through two site nodes, and the rewrite swaps the two passages (the
outside connections trade places) while node kinds stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .bracket import CROSSING_TABLES, contract
from .diagram import (ArcT, Diagram, DiagramError, splice_node, vertex_ports)

Move = str  # "R1+", "R1-", "R2+", "R2-", "R3", "R4", "R5"


@dataclass(frozen=True)
class MoveSpec:
    move: Move
    site: tuple


class MoveError(DiagramError):
    pass


def _fresh_id(d: Diagram, base: str) -> str:
    ids = set(d.node_ids())
    i = 0
    while "%s%d" % (base, i) in ids:
        i += 1
    return "%s%d" % (base, i)


def _arc_lookup(d: Diagram, arc: ArcT) -> ArcT:
    if tuple(arc) not in d.arcs:
        raise MoveError("site arc %s not present" % (arc,))
    return tuple(arc)


def _is_over(d: Diagram, node: str, port: int) -> bool:
    """Whether the strand through the given port is the over strand."""
    kind = d.kind_of(node)
    if kind not in ("XPos", "XNeg"):
        raise MoveError("node %s is not a crossing" % node)
    return port % 2 == (0 if kind == "XPos" else 1)


# --- R1 ---------------------------------------------------------------------

# kink variants: (node kind, main exit port, loop tail, loop head).  The
# strand enters at port 0, runs through the curl (ports 2 then the loop
# head) and leaves at the exit port.  Signs: with exit 3 the in-ports are
# (0,1) so XPos curls positively; with exit 1 they are (0,3) and the
# signs swap.
KINK_VARIANTS = {
    "+a": ("XPos", 3, 2, 1),
    "-a": ("XNeg", 3, 2, 1),
    "-b": ("XPos", 1, 2, 3),
    "+b": ("XNeg", 1, 2, 3),
}


def r1_plus(d: Diagram, arc: ArcT, variant: str = "+a") -> Diagram:
    """Insert a kink on an arc; variant picks the crossing sign and the
    side of the curl."""
    arc = _arc_lookup(d, arc)
    kind, exit_port, lt, lh = KINK_VARIANTS[variant]
    k = _fresh_id(d, "k")
    nodes = d.node_map()
    nodes[k] = kind
    arcs = [a for a in d.arcs if a != arc]
    tail, head = arc
    arcs += [(tail, (k, 0)), ((k, exit_port), head), ((k, lt), (k, lh))]
    out = Diagram.make(nodes, arcs, d.free_loops)
    out.require_valid()
    return out


def find_r1_minus(d: Diagram) -> List[MoveSpec]:
    sites = []
    for (a, p), (b, q) in d.arcs:
        if a == b and (p + q) % 2 == 1 and d.kind_of(a) in ("XPos", "XNeg"):
            sites.append(MoveSpec("R1-", (a,)))
    # deduplicate nodes with two self arcs
    seen = set()
    out = []
    for m in sites:
        if m.site not in seen:
            seen.add(m.site)
            out.append(m)
    return out


def r1_minus(d: Diagram, node: str) -> Diagram:
    if not any(a == b == node and (p + q) % 2 == 1
               for (a, p), (b, q) in d.arcs):
        raise MoveError("node %s carries no kink loop" % node)
    p = vertex_ports(d, node)
    out = splice_node(d, node, {p["in_a"]: p["out_a"], p["in_b"]: p["out_b"]})
    out.require_valid()
    return out


# --- R2 ---------------------------------------------------------------------


def r2_plus(d: Diagram, arc1: ArcT, arc2: ArcT) -> Diagram:
    """Slide the strand of arc1 across the strand of arc2; inserts a
    cancelling pair of crossings threaded through both arcs."""
    arc1 = _arc_lookup(d, arc1)
    arc2 = _arc_lookup(d, arc2)
    if arc1 == arc2:
        raise MoveError("R2 needs two distinct arcs")
    x = _fresh_id(d, "x")
    nodes = d.node_map()
    nodes[x] = "XPos"
    y = _fresh_id(Diagram.make(nodes, [], 0), "x")
    nodes[y] = "XNeg"
    t1, h1 = arc1
    t2, h2 = arc2
    arcs = [a for a in d.arcs if a not in (arc1, arc2)]
    arcs += [(t1, (x, 0)), ((x, 2), (y, 0)), ((y, 2), h1),
             (t2, (x, 1)), ((x, 3), (y, 1)), ((y, 3), h2)]
    out = Diagram.make(nodes, arcs, d.free_loops)
    out.require_valid()
    return out


def find_r2_minus(d: Diagram) -> List[MoveSpec]:
    """Pairs of opposite crossings joined by two arcs that sit on
    cyclically adjacent ports at both ends and on different strands at
    each node."""
    between: Dict[Tuple[str, str], List[ArcT]] = {}
    for arc in d.arcs:
        (a, _), (b, _) = arc
        if a != b:
            between.setdefault((a, b), []).append(arc)
    sites = []
    for (a, b), arcs in between.items():
        if len(arcs) != 2 or between.get((b, a)):
            continue
        ka, kb = d.kind_of(a), d.kind_of(b)
        if {ka, kb} != {"XPos", "XNeg"}:
            continue
        (p1, q1), (p2, q2) = ((t[1], h[1]) for t, h in arcs)
        if (p1 - p2) % 4 not in (1, 3) or (q1 - q2) % 4 not in (1, 3):
            continue
        sites.append(MoveSpec("R2-", (a, b)))
    return sites


def r2_minus(d: Diagram, node1: str, node2: str) -> Diagram:
    if MoveSpec("R2-", (node1, node2)) not in find_r2_minus(d) and \
       MoveSpec("R2-", (node2, node1)) not in find_r2_minus(d):
        raise MoveError("nodes %s,%s do not form a cancelling pair"
                        % (node1, node2))
    out = d
    for n in (node1, node2):
        p = vertex_ports(out, n)
        out = splice_node(out, n, {p["in_a"]: p["out_a"],
                                   p["in_b"]: p["out_b"]})
    out.require_valid()
    return out


# --- the shared passage swap for R3/R4/R5 -----------------------------------


def _passages(d: Diagram, pair_arcs: List[ArcT]):
    """For each site arc joining two site nodes, the two passages of the
    strand running along it: ((n1,in1,out1),(n2,in2,out2)) with the
    strand traversing n1 then n2."""
    out = []
    for (n1, p1), (n2, p2) in pair_arcs:
        out.append(((n1, (p1 + 2) % 4, p1), (n2, p2, (p2 + 2) % 4)))
    return out


def _swap_passages(d: Diagram, passages) -> Diagram:
    head_map, tail_map = _swap_maps(passages)
    arcs = [(tail_map.get(t, t), head_map.get(h, h)) for t, h in d.arcs]
    out = Diagram.make(d.node_map(), arcs, d.free_loops)
    out.require_valid()
    return out


def _direct_arcs(d: Diagram, a: str, b: str) -> List[ArcT]:
    return [arc for arc in d.arcs
            if {arc[0][0], arc[1][0]} == {a, b}]


def _tangle_profile(kinds: Dict[str, str], internal: List[ArcT]):
    """Bracket state sum of a small open tangle: a map from pairings of
    the boundary ports to weights.  The tangle consists of the given
    crossings wired by the internal arcs; every port not covered by an
    internal arc is a boundary port, tied by a stub arc to an end outside
    the tangle."""
    used = {pt for arc in internal for pt in arc}
    stubs = [((n, p), (None, (n, p))) for n in kinds for p in range(4)
             if (n, p) not in used]
    tables = {n: CROSSING_TABLES[k] for n, k in kinds.items()}
    profile = contract(tables, list(internal) + stubs)
    return {frozenset(frozenset(end[1] for end in pair) for pair in pairing): w
            for pairing, w in profile.items()}


def _swap_maps(passages):
    head_map: Dict[Tuple[str, int], Tuple[str, int]] = {}
    tail_map: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for (n1, i1, o1), (n2, i2, o2) in passages:
        head_map[(n1, i1)] = (n2, i2)
        head_map[(n2, i2)] = (n1, i1)
        tail_map[(n1, o1)] = (n2, o2)
        tail_map[(n2, o2)] = (n1, o1)
    return head_map, tail_map


def _swap_is_sound(d: Diagram, site: List[ArcT]) -> bool:
    """Exact local test that the passage swap preserves every invariant
    built from the state sum: the tangle profiles before and after must
    agree for each crossing substitution of a site vertex.  Equality of
    open tangles makes the rewrite safe under any closure and any vertex
    resolution scheme."""
    site = [tuple(a) for a in site]
    nodes = sorted({n for arc in site for (n, _) in arc})
    head_map, tail_map = _swap_maps(_passages(d, site))
    relabel = {**head_map, **tail_map}
    new_site = [(tail_map.get(t, t), head_map.get(h, h)) for t, h in site]
    vs = [n for n in nodes if d.kind_of(n) in ("Vert", "CVert")]
    if vs:
        assignments = [{vs[0]: "XPos"}, {vs[0]: "XNeg"}]
    else:
        assignments = [{}]
    for sub in assignments:
        kinds = {n: sub.get(n, d.kind_of(n)) for n in nodes}
        before = _tangle_profile(kinds, site)
        after = _tangle_profile(kinds, new_site)
        moved = {frozenset(frozenset(relabel.get(pt, pt) for pt in pair)
                           for pair in pairing): w
                 for pairing, w in after.items()}
        if moved != before:
            return False
    return True


# --- R3 ---------------------------------------------------------------------


def _triangle_ok(d: Diagram, tri: List[ArcT], nodes) -> bool:
    """The arcs must pairwise join the three nodes, sit on different
    strands (cyclically adjacent ports) at every node, and use six
    distinct ports."""
    ports_at: Dict[str, List[int]] = {n: [] for n in nodes}
    for (n1, p1), (n2, p2) in tri:
        if n1 not in ports_at or n2 not in ports_at:
            return False
        ports_at[n1].append(p1)
        ports_at[n2].append(p2)
    for n in nodes:
        ps = ports_at[n]
        if len(ps) != 2 or (ps[0] - ps[1]) % 4 not in (1, 3):
            return False
    return True


def find_r3(d: Diagram) -> List[MoveSpec]:
    xs = d.crossings()
    sites = []
    for i, a in enumerate(xs):
        for j in range(i + 1, len(xs)):
            for k in range(j + 1, len(xs)):
                b, c = xs[j], xs[k]
                for e1 in _direct_arcs(d, a, b):
                    for e2 in _direct_arcs(d, b, c):
                        for e3 in _direct_arcs(d, a, c):
                            tri = [e1, e2, e3]
                            if _r3_site_ok(d, tri, (a, b, c)):
                                sites.append(MoveSpec("R3", tuple(tri)))
    return sites


def _r3_site_ok(d: Diagram, tri: List[ArcT], nodes) -> bool:
    """A slidable triangle: three crossings pairwise joined on different
    strands, with the swap exactly preserving the local state sum (which
    encodes the over/under layering condition)."""
    if not _triangle_ok(d, tri, nodes):
        return False
    return _swap_is_sound(d, tri)


def r3(d: Diagram, e1: ArcT, e2: ArcT, e3: ArcT) -> Diagram:
    tri = [_arc_lookup(d, e) for e in (e1, e2, e3)]
    nodes = {n for arc in tri for (n, _) in arc}
    if len(nodes) != 3 or not all(d.kind_of(n) in ("XPos", "XNeg")
                                  for n in nodes):
        raise MoveError("R3 site must span three crossings")
    if not _r3_site_ok(d, tri, tuple(nodes)):
        raise MoveError("arcs form no slidable triangle")
    return _swap_passages(d, _passages(d, tri))


# --- R4 ---------------------------------------------------------------------


def find_r4(d: Diagram) -> List[MoveSpec]:
    sites = []
    xs = d.crossings()
    for v in d.vertices():
        for i, p1 in enumerate(xs):
            for p2 in xs[i + 1:]:
                for e1 in _direct_arcs(d, v, p1):
                    for e2 in _direct_arcs(d, v, p2):
                        for e3 in _direct_arcs(d, p1, p2):
                            tri = [e1, e2, e3]
                            if _r4_site_ok(d, tri, v, p1, p2):
                                sites.append(MoveSpec("R4", tuple(tri)))
    return sites


def _r4_site_ok(d: Diagram, tri: List[ArcT], v: str, p1: str,
                p2: str) -> bool:
    """Triangle of a vertex and two crossings with the moving strand
    running crossing-to-crossing, uniformly over or under; the local
    state sum must survive the swap for either crossing substituted at
    the vertex, so every resolution scheme is preserved."""
    if not _triangle_ok(d, tri, (v, p1, p2)):
        return False
    (m1, mp1), (m2, mp2) = tri[2]
    if _is_over(d, m1, mp1) != _is_over(d, m2, mp2):
        return False
    return _swap_is_sound(d, tri)


def r4(d: Diagram, e1: ArcT, e2: ArcT, e3: ArcT) -> Diagram:
    tri = [_arc_lookup(d, e) for e in (e1, e2, e3)]
    nodes = {n for arc in tri for (n, _) in arc}
    vs = [n for n in nodes if d.kind_of(n) in ("Vert", "CVert")]
    xs = [n for n in nodes if d.kind_of(n) in ("XPos", "XNeg")]
    if len(vs) != 1 or len(xs) != 2:
        raise MoveError("R4 site needs one vertex and two crossings")
    m1, m2 = ((x, p) for arc in [tri[2]] for (x, p) in arc)
    if {m1[0], m2[0]} != set(xs):
        raise MoveError("third arc must join the two crossings")
    if not _r4_site_ok(d, tri, vs[0], xs[0], xs[1]):
        raise MoveError("no vertex slide at this site")
    return _swap_passages(d, _passages(d, tri))


# --- R5 ---------------------------------------------------------------------


def find_r5(d: Diagram) -> List[MoveSpec]:
    sites = []
    for v in d.vertices():
        for x in d.crossings():
            direct = _direct_arcs(d, v, x)
            for i, e1 in enumerate(direct):
                for e2 in direct[i + 1:]:
                    if _r5_site_ok(d, [e1, e2], v, x):
                        sites.append(MoveSpec("R5", (e1, e2)))
    return sites


def _r5_site_ok(d: Diagram, pair: List[ArcT], v: str, x: str) -> bool:
    """Two arcs tying a crossing to a vertex on cyclically adjacent
    vertex ports and different strands of both nodes."""
    v_ports, x_ports = [], []
    for (n1, q1), (n2, q2) in pair:
        if n1 == v:
            v_ports.append(q1)
            x_ports.append(q2)
        else:
            x_ports.append(q1)
            v_ports.append(q2)
    if len(v_ports) != 2 or len(set(v_ports)) != 2:
        return False
    if (v_ports[0] - v_ports[1]) % 4 not in (1, 3):
        return False
    if (x_ports[0] - x_ports[1]) % 2 != 1:
        return False
    return _swap_is_sound(d, pair)


def r5(d: Diagram, e1: ArcT, e2: ArcT) -> Diagram:
    pair = [_arc_lookup(d, e) for e in (e1, e2)]
    nodes = {n for arc in pair for (n, _) in arc}
    vs = [n for n in nodes if d.kind_of(n) in ("Vert", "CVert")]
    xs = [n for n in nodes if d.kind_of(n) in ("XPos", "XNeg")]
    if len(vs) != 1 or len(xs) != 1:
        raise MoveError("R5 site needs one vertex and one crossing")
    if not _r5_site_ok(d, pair, vs[0], xs[0]):
        raise MoveError("crossing cannot rotate around this vertex")
    return _swap_passages(d, _passages(d, pair))


# --- dispatch ---------------------------------------------------------------


def applicable_moves(d: Diagram) -> List[MoveSpec]:
    """Every site where a shrinking or self-inverse move applies, plus
    generic insertion sites."""
    out: List[MoveSpec] = []
    for arc in d.arcs:
        for variant in KINK_VARIANTS:
            out.append(MoveSpec("R1+", (arc, variant)))
    for a1 in d.arcs:
        for a2 in d.arcs:
            if a1 < a2:
                out.append(MoveSpec("R2+", (a1, a2)))
    out += find_r1_minus(d)
    out += find_r2_minus(d)
    out += find_r3(d)
    out += find_r4(d)
    out += find_r5(d)
    return out


def apply_move(d: Diagram, m: MoveSpec) -> Diagram:
    d.require_valid()
    if m.move == "R1+":
        return r1_plus(d, *m.site)
    if m.move == "R1-":
        return r1_minus(d, *m.site)
    if m.move == "R2+":
        return r2_plus(d, *m.site)
    if m.move == "R2-":
        return r2_minus(d, *m.site)
    if m.move == "R3":
        return r3(d, *m.site)
    if m.move == "R4":
        return r4(d, *m.site)
    if m.move == "R5":
        return r5(d, *m.site)
    raise MoveError("unknown move %r" % m.move)


def inverse_spec(d_before: Diagram, d_after: Diagram,
                 m: MoveSpec) -> MoveSpec:
    """The MoveSpec undoing m, given the diagrams before and after."""
    if m.move in ("R3", "R4", "R5"):
        # self-inverse, but the site arcs were rewired by the swap
        head_map, tail_map = _swap_maps(
            _passages(d_before, [tuple(a) for a in m.site]))
        new_site = tuple((tail_map.get(t, t), head_map.get(h, h))
                         for t, h in m.site)
        return MoveSpec(m.move, new_site)
    if m.move == "R1+":
        new = set(d_after.node_ids()) - set(d_before.node_ids())
        return MoveSpec("R1-", (new.pop(),))
    if m.move == "R2+":
        new = sorted(set(d_after.node_ids()) - set(d_before.node_ids()))
        return MoveSpec("R2-", tuple(new))
    raise MoveError("no tracked inverse for %r" % m.move)
