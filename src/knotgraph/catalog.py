"""Named diagrams used throughout the tests and the shipped corpus.

Port convention reminder: ports run 0,1,2,3 counterclockwise; the 0-2
strand passes over at an XPos crossing.  A useful compass reading is
0 = south, 1 = east, 2 = north, 3 = west.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .diagram import ArcT, Diagram, DiagramError


def braid_closure(strands: int, word: Sequence[Tuple[int, int]]) -> Diagram:
    """Closure of a braid word on the given number of strands.

    Each letter is (position, sign): position i in 1..strands-1 crosses
    strands i and i+1, sign +1 for the positive generator.  Crossing
    nodes take the lower strands in at ports 0 (left) and 1 (right) and
    put them out at 3 (left) and 2 (right).
    """
    nodes: Dict[str, str] = {}
    arcs = []
    bottom_in: Dict[int, Tuple[str, int]] = {}
    cur: Dict[int, Tuple[str, int]] = {}
    for idx, (i, s) in enumerate(word):
        if not 1 <= i < strands:
            raise DiagramError("braid position %d out of range" % i)
        nid = "c%d" % idx
        nodes[nid] = "XPos" if s > 0 else "XNeg"
        for pos, inport in ((i, 0), (i + 1, 1)):
            if pos in cur:
                arcs.append((cur[pos], (nid, inport)))
            else:
                bottom_in[pos] = (nid, inport)
        cur[i] = (nid, 3)
        cur[i + 1] = (nid, 2)
    loops = 0
    for pos in range(1, strands + 1):
        if pos in cur:
            arcs.append((cur[pos], bottom_in[pos]))
        else:
            loops += 1
    return Diagram.make(nodes, arcs, loops)


def _kink(kind: str) -> Diagram:
    return Diagram.make({"n": kind}, [(("n", 2), ("n", 1)),
                                      (("n", 3), ("n", 0))])


def _hopf(kind0: str, kind1: str) -> Diagram:
    return Diagram.make(
        {"n0": kind0, "n1": kind1},
        [(("n0", 2), ("n1", 0)), (("n1", 2), ("n0", 0)),
         (("n0", 3), ("n1", 1)), (("n1", 3), ("n0", 1))])


def _petal_chain(count: int, kind: str = "Vert") -> Diagram:
    """A single loop visiting `count` vertices, each carrying a small
    petal (the one-vertex case is the composite loop with a
    self-intersection)."""
    nodes = {"v%d" % i: kind for i in range(count)}
    arcs = []
    for i in range(count):
        v = "v%d" % i
        w = "v%d" % ((i + 1) % count)
        arcs.append(((v, 2), (v, 1)))
        arcs.append(((v, 3), (w, 0)))
    return Diagram.make(nodes, arcs)


def _with_free_loops(d: Diagram, extra: int) -> Diagram:
    return Diagram.make(d.node_map(), d.arcs, d.free_loops + extra)


# --- triple-point quadruples -----------------------------------------------


def _triple_core(vertex_on: str, c_pos: str,
                 clasps: Sequence[Tuple[str, str]]) -> Diagram:
    """Two strands a and b meeting at a rigid vertex Z0, crossed by a
    third strand c that passes entirely below or above the vertex.

    c meets one of a, b at a rigid vertex and the other at a genuine
    crossing; with the vertex on a, c passes over b, and with the vertex
    on b it passes under a (the mixed choice produced by telescoping the
    crossing flips between the two slide routes).  Below, c visits the a
    leg then the b leg; above, the visiting order reverses, exactly as a
    strand slid over the vertex disk would.

    Each entry of clasps links the closures of two of the strands with a
    pair of positive crossings, breaking the below/above symmetry.
    """
    assert vertex_on in ("a", "b") and c_pos in ("below", "above")
    nodes = {"Z0": "Vert",
             "Na": "Vert" if vertex_on == "a" else "XPos",
             "Nb": "Vert" if vertex_on == "b" else "XNeg"}
    # the arcs and each strand's open (out, in) ends with c below; with c
    # above, every one is reversed and each port p turned to p + 2 mod 4
    arcs: List[ArcT] = [(("Na", 2), ("Z0", 0)), (("Nb", 2), ("Z0", 1)),
                        (("Na", 1), ("Nb", 3))]
    ends: Dict[str, ArcT] = {"a": (("Z0", 2), ("Na", 0)),
                             "b": (("Z0", 3), ("Nb", 0)),
                             "c": (("Nb", 1), ("Na", 3))}
    if c_pos == "above":
        def turn(pair: ArcT) -> ArcT:
            (x, p), (y, q) = pair
            return (y, (q + 2) % 4), (x, (p + 2) % 4)
        arcs = [turn(arc) for arc in arcs]
        ends = {strand: turn(pair) for strand, pair in ends.items()}
    for ci, (u, v) in enumerate(clasps):
        h1, h2 = "H%da" % ci, "H%db" % ci
        nodes[h1] = "XPos"
        nodes[h2] = "XPos"
        uo, ui = ends[u]
        vo, vi = ends[v]
        arcs += [(uo, (h1, 0)), ((h1, 2), (h2, 0)),
                 (vo, (h1, 1)), ((h1, 3), (h2, 1))]
        ends[u] = ((h2, 2), ui)
        ends[v] = ((h2, 3), vi)
    arcs += ends.values()
    return Diagram.make(nodes, arcs)


CLOSURES = {
    "plain": (),
    "clasp": (("a", "c"), ("b", "c")),
    "clasp2": (("a", "b"), ("a", "c")),
}


def four_term_quadruple(closure: str = "clasp") -> Dict[str, Diagram]:
    """Four graphs differing only in how the third strand passes the
    central vertex; they satisfy P(N) - P(S) + P(E) - P(W) = 0."""
    if closure not in CLOSURES:
        raise DiagramError("unknown closure %r" % closure)
    clasps = CLOSURES[closure]
    return {
        "N": _triple_core("a", "above", clasps),
        "S": _triple_core("a", "below", clasps),
        "E": _triple_core("b", "above", clasps),
        "W": _triple_core("b", "below", clasps),
    }


_BUILDERS = {
    "unknot": lambda: Diagram.make({}, [], 1),
    "two-circles": lambda: Diagram.make({}, [], 2),
    "kink+": lambda: _kink("XPos"),
    "kink-": lambda: _kink("XNeg"),
    "hopf+": lambda: _hopf("XPos", "XPos"),
    "hopf-": lambda: _hopf("XNeg", "XNeg"),
    "trefoil+": lambda: braid_closure(2, [(1, 1)] * 3),
    "trefoil-": lambda: braid_closure(2, [(1, -1)] * 3),
    # the same knot presented on three strands
    "trefoil+_alt": lambda: braid_closure(3, [(1, 1), (2, 1), (1, 1), (2, 1)]),
    "figure-eight": lambda: braid_closure(3, [(1, 1), (2, -1), (1, 1),
                                              (2, -1)]),
    "G_a_vertex": lambda: _petal_chain(1),
    "G_a_composite": lambda: _with_free_loops(_petal_chain(1), 1),
    "G_b_vertex": lambda: _hopf("Vert", "XPos"),
    "G_b_cvert": lambda: _hopf("CVert", "XPos"),
    "case1_vertex": lambda: _petal_chain(1),
    "case2_vertex": lambda: _hopf("Vert", "XPos"),
    "ga_2vert": lambda: _petal_chain(2),
    "gb_2vert": lambda: _hopf("Vert", "Vert"),
    "flower3": lambda: _petal_chain(3),
}
# the four-term graphs: ft_<tag> for the clasp closure and
# ft_<closure>_<tag> for the others
_BUILDERS.update(
    ("ft_%s%s" % ("" if cl == "clasp" else cl + "_", tag),
     lambda cl=cl, tag=tag: four_term_quadruple(cl)[tag])
    for cl in CLOSURES for tag in "NSEW")

NAMES = tuple(_BUILDERS)


def named_diagram(name: str) -> Diagram:
    if name not in _BUILDERS:
        raise DiagramError("unknown diagram name %r" % name)
    return _BUILDERS[name]()
