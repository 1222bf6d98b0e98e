"""Generalized Reidemeister rewriting.

Seven rewrites act on diagrams:

  R1+  insert a kink on an arc           R1-  delete a kink
  R2+  push one strand across another    R2-  cancel such a pair
  R3   slide a strand over a crossing (self-inverse)
  R4   slide a strand over a rigid vertex (self-inverse)
  R5   rotate a crossing to the other side of a vertex (self-inverse)

R3, R4 and R5 are one rewrite, a slide, at one kind of site: two or
three arcs joining two or three nodes, where each node meets the site on
two ports of different strands.  A vertex and a crossing joined by two
arcs is an R5 site, a triangle of crossings an R3 site, and a triangle
of a vertex and two crossings an R4 site.  Each strand of the site
passes through two site nodes, and the slide swaps the two passages (the
outside connections trade places) while node kinds stay fixed.  A site
counts only if the swap keeps the local state sum of the site, with
either crossing put in place of its vertex.  That sum comes from the
contraction engine applied to the site's nodes and arcs alone: each
port on no site arc is a boundary end, named by its (node, port).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Optional, Tuple

from .bracket import CROSSING_TABLES, contract
from .diagram import (VERTEX_KINDS, ArcT, Diagram, DiagramError, End,
                      splice_node, vertex_ports)
from .ring import Value

Move = str  # "R1+", "R1-", "R2+", "R2-", "R3", "R4", "R5"


class MoveSpec(Value):
    # its own constructor, faster than the shared one: applicable_moves
    # builds thousands of these on one walk
    __slots__ = ("move", "site")

    def __init__(self, move: Move, site: tuple) -> None:
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "site", site)


class MoveError(DiagramError):
    pass


def _fresh_id(nodes: Dict[str, str], base: str) -> str:
    """The first of base0, base1, ... that names no node."""
    i = 0
    while "%s%d" % (base, i) in nodes:
        i += 1
    return "%s%d" % (base, i)


def _arc_lookup(d: Diagram, arc: ArcT) -> ArcT:
    if tuple(arc) not in d.arcs:
        raise MoveError("site arc %s not present" % (arc,))
    return tuple(arc)


def _is_over(kind: str, port: int) -> bool:
    """Whether the strand through the given port of a crossing of this
    kind is the over strand."""
    return port % 2 == (0 if kind == "XPos" else 1)


def _straight_through(d: Diagram, m: MoveSpec,
                      sites: List[MoveSpec]) -> Diagram:
    """Apply the R1- or R2- move m, whose nodes must be those of one of
    sites: remove them, joining each strand's in-port to its out-port."""
    if not any(set(s.site) == set(m.site) for s in sites):
        raise MoveError("nodes %s form no %s site" % (m.site, m.move))
    for n in m.site:
        p = vertex_ports(d, n)
        d = splice_node(d, n, {p["in_a"]: p["out_a"], p["in_b"]: p["out_b"]})
    return d


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
    nodes = d.node_map()
    k = _fresh_id(nodes, "k")
    nodes[k] = kind
    arcs = [a for a in d.arcs if a != arc]
    tail, head = arc
    arcs += [(tail, (k, 0)), ((k, exit_port), head), ((k, lt), (k, lh))]
    return Diagram.make(nodes, arcs, d.free_loops)


def find_r1_minus(d: Diagram) -> List[MoveSpec]:
    """One site per crossing that carries a kink loop, in arc order."""
    kinds = d.node_map()
    kinked = [a for (a, p), (b, q) in d.arcs if a == b and (p + q) % 2 == 1
              and kinds[a] in ("XPos", "XNeg")]
    return [MoveSpec("R1-", (a,)) for a in dict.fromkeys(kinked)]


def r1_minus(d: Diagram, node: str) -> Diagram:
    return _straight_through(d, MoveSpec("R1-", (node,)), find_r1_minus(d))


# --- R2 ---------------------------------------------------------------------


def r2_plus(d: Diagram, arc1: ArcT, arc2: ArcT) -> Diagram:
    """Slide the strand of arc1 across the strand of arc2; inserts a
    cancelling pair of crossings threaded through both arcs."""
    arc1 = _arc_lookup(d, arc1)
    arc2 = _arc_lookup(d, arc2)
    if arc1 == arc2:
        raise MoveError("R2 needs two distinct arcs")
    nodes = d.node_map()
    x = _fresh_id(nodes, "x")
    nodes[x] = "XPos"
    y = _fresh_id(nodes, "x")
    nodes[y] = "XNeg"
    t1, h1 = arc1
    t2, h2 = arc2
    arcs = [a for a in d.arcs if a not in (arc1, arc2)]
    arcs += [(t1, (x, 0)), ((x, 2), (y, 0)), ((y, 2), h1),
             (t2, (x, 1)), ((x, 3), (y, 1)), ((y, 3), h2)]
    return Diagram.make(nodes, arcs, d.free_loops)


def find_r2_minus(d: Diagram) -> List[MoveSpec]:
    """Pairs of opposite crossings joined by two arcs from one to the
    other and none back.  The two arcs sit on adjacent ports at both
    ends: they leave by the two out-ports of one crossing and enter by
    the two in-ports of the other, and each strand (ports 0-2 or 1-3)
    has one of each."""
    between: Dict[Tuple[str, str], List[ArcT]] = {}
    for arc in d.arcs:
        (a, _), (b, _) = arc
        if a != b:
            between.setdefault((a, b), []).append(arc)
    kinds = d.node_map()
    sites = []
    for (a, b), arcs in between.items():
        if len(arcs) != 2 or between.get((b, a)):
            continue
        if {kinds[a], kinds[b]} != {"XPos", "XNeg"}:
            continue
        sites.append(MoveSpec("R2-", (a, b)))
    return sites


def r2_minus(d: Diagram, node1: str, node2: str) -> Diagram:
    return _straight_through(d, MoveSpec("R2-", (node1, node2)),
                             find_r2_minus(d))


# --- R3, R4, R5: one slide -------------------------------------------------


def _swapped(arcs, site) -> List[ArcT]:
    """The arcs with the passages of the site swapped.  A site arc t -> h
    carries a strand through the node of t and then the node of h; the
    two passages trade their outside connections, so the in-ports (the
    one opposite t, and h) exchange, and so do the out-ports (t, and the
    one opposite h).  Both ends of every given pair are relabelled."""
    swap: Dict[End, End] = {}
    for (n1, p1), (n2, p2) in site:
        for a, b in (((n1, (p1 + 2) % 4), (n2, p2)),
                     ((n1, p1), (n2, (p2 + 2) % 4))):
            swap[a], swap[b] = b, a
    return [(swap.get(t, t), swap.get(h, h)) for t, h in arcs]


def _swap_is_sound(kinds: Dict[str, str], site: List[ArcT]) -> bool:
    """Exact local test that the passage swap preserves every invariant
    built from the state sum: the state sums of the site's open tangle
    (contract) before and after must agree for each crossing substitution
    of a site vertex.  Equality of open tangles makes the rewrite safe
    under any closure and any vertex resolution scheme."""
    nodes = sorted({n for arc in site for (n, _) in arc})
    new_site = _swapped(site, site)
    vs = [n for n in nodes if kinds[n] in VERTEX_KINDS]
    for sub in ([{vs[0]: "XPos"}, {vs[0]: "XNeg"}] if vs else [{}]):
        tables = {n: CROSSING_TABLES[sub.get(n, kinds[n])] for n in nodes}
        before = contract(tables, site)
        after = contract(tables, new_site)
        moved = {frozenset(map(frozenset, _swapped(pairing, site))): w
                 for pairing, w in after.items()}
        if moved != before:
            return False
    return True


# (site arcs, site vertices) -> slide
_SLIDE_SHAPES = {(3, 0): "R3", (3, 1): "R4", (2, 1): "R5"}


def _slide_label(kinds: Dict[str, str], site) -> Optional[Move]:
    """The slide that the site arcs admit: R3, R4, R5 or None.  Every
    site arc joins two nodes and every site node meets the site on two
    ports of different strands, so two arcs tie two nodes together and
    three arcs form a triangle.  R5 ties a vertex to a crossing; R3 is a
    triangle of crossings; R4 is a triangle of a vertex and two crossings
    whose crossing-to-crossing arc runs over at both ends or under at
    both.  The swap must also pass _swap_is_sound."""
    ports: Dict[str, List[int]] = {}
    for (a, p), (b, q) in site:
        if a == b:
            return None
        ports.setdefault(a, []).append(p)
        ports.setdefault(b, []).append(q)
    if any(len(ps) != 2 or (ps[0] - ps[1]) % 2 == 0 for ps in ports.values()):
        return None
    vs = [n for n in ports if kinds[n] in VERTEX_KINDS]
    label = _SLIDE_SHAPES.get((len(site), len(vs)))
    if label == "R4":
        (x, p), (y, q) = next(arc for arc in site
                              if vs[0] not in (arc[0][0], arc[1][0]))
        if _is_over(kinds[x], p) != _is_over(kinds[y], q):
            return None
    if label is None or not _swap_is_sound(kinds, site):
        return None
    return label


def find_slides(d: Diagram) -> List[MoveSpec]:
    """Every slide site, sorted by label (R3, R4, R5) and then by the
    ranks of its nodes, where vertices rank before crossings and each
    kind ranks in the order the diagram lists it; sites on the same
    nodes keep arc order.  The candidates are every two arcs joining two
    nodes and every triangle of arcs; a triangle on nodes a, b, c of
    rising rank lists its arcs as ab, ac, bc, so an R4 site on vertex v
    and crossings a, b reads va, vb, ab."""
    kinds = d.node_map()
    rank = {n: i for i, n in enumerate(d.vertices() + d.crossings())}
    after: Dict[int, Dict[int, List[ArcT]]] = {}
    for arc in d.arcs:
        i, j = sorted(rank[n] for n, _ in arc)
        if i != j:
            after.setdefault(i, {}).setdefault(j, []).append(arc)
    found = []
    for i, near in after.items():
        for j, ij in near.items():
            found += [((i, j), site) for site in combinations(ij, 2)]
            for k, jk in after.get(j, {}).items():
                if k in near:
                    found += [((i, j, k), site)
                              for site in product(ij, near[k], jk)]
    found = [(label, nodes, site) for nodes, site in found
             if (label := _slide_label(kinds, site)) is not None]
    found.sort(key=lambda f: f[:2])
    return [MoveSpec(label, site) for label, _, site in found]


def slide(d: Diagram, m: MoveSpec) -> Diagram:
    """Apply the R3, R4 or R5 move m by swapping the passages along its
    site; the site must admit exactly that slide."""
    site = [_arc_lookup(d, arc) for arc in m.site]
    if _slide_label(d.node_map(), site) != m.move:
        raise MoveError("arcs %s form no %s site" % (m.site, m.move))
    return Diagram.make(d.node_map(), _swapped(d.arcs, site), d.free_loops)


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
    out += find_slides(d)
    return out


def apply_move(d: Diagram, m: MoveSpec) -> Diagram:
    if m.move == "R1+":
        return r1_plus(d, *m.site)
    if m.move == "R1-":
        return r1_minus(d, *m.site)
    if m.move == "R2+":
        return r2_plus(d, *m.site)
    if m.move == "R2-":
        return r2_minus(d, *m.site)
    if m.move in ("R3", "R4", "R5"):
        return slide(d, m)
    raise MoveError("unknown move %r" % m.move)


def random_walk(d: Diagram, steps: int, rng) -> Diagram:
    """Apply up to `steps` moves, each drawn by rng.choice from
    applicable_moves; the insertions R1+ and R2+ are left out once the
    diagram has 6 crossings.  Stops early where no move applies."""
    for _ in range(steps):
        candidates = applicable_moves(d)
        if len(d.crossings()) >= 6:
            candidates = [m for m in candidates
                          if m.move not in ("R1+", "R2+")]
        if not candidates:
            break
        d = apply_move(d, rng.choice(candidates))
    return d
