"""Combinatorial model of oriented diagrams with crossings and rigid
vertices.

A diagram is a set of 4-port nodes joined by directed arcs, plus a count
of free loops (closed strands meeting no node).  Ports are numbered
0,1,2,3 counterclockwise around the node.  The two strands through a node
pair the ports 0-2 and 1-3; at a positive crossing (kind XPos) the 0-2
strand passes over, at XNeg the 1-3 strand does.  Vert is a plain rigid
vertex, CVert a marked one.

A Diagram is well formed from construction: every node has a known kind,
every arc joins ports 0-3 of known nodes, no port is used twice, and each
strand through a node has one in-port and one out-port.  __init__
checks this (Diagram.validate states the rule) and raises DiagramError,
so a diagram parsed, built with make, or returned by a move or a surgery
obeys it, and no consumer checks it again.

The model is abstract in the Gauss-code sense: planarity of the induced
4-valent graph is never checked.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Tuple

from .ring import Value

KINDS = ("XPos", "XNeg", "Vert", "CVert")
CROSSING_KINDS = ("XPos", "XNeg")
VERTEX_KINDS = ("Vert", "CVert")

End = Tuple[str, int]          # (node id, port)
ArcT = Tuple[End, End]         # (tail, head): tail is an out-port, head an in-port


class DiagramError(ValueError):
    pass


class Diagram(Value):
    __slots__ = ("nodes", "arcs", "free_loops")

    def __init__(self, nodes: Tuple[Tuple[str, str], ...] = (),
                 arcs: Tuple[ArcT, ...] = (), free_loops: int = 0) -> None:
        object.__setattr__(self, "nodes", nodes)    # (id, kind), id-sorted
        object.__setattr__(self, "arcs", arcs)      # sorted
        object.__setattr__(self, "free_loops", free_loops)
        report = self.validate()
        if report:
            raise DiagramError("; ".join(report))

    @staticmethod
    def make(nodes: Dict[str, str], arcs: Iterable[ArcT],
             free_loops: int = 0) -> "Diagram":
        nd = tuple(sorted((str(i), k) for i, k in nodes.items()))
        ar = tuple(sorted(((str(a), int(p)), (str(b), int(q)))
                          for (a, p), (b, q) in arcs))
        return Diagram(nd, ar, int(free_loops))

    def node_ids(self) -> List[str]:
        return [i for i, _ in self.nodes]

    def node_map(self) -> Dict[str, str]:
        return dict(self.nodes)

    def crossings(self) -> List[str]:
        return [i for i, k in self.nodes if k in CROSSING_KINDS]

    def vertices(self) -> List[str]:
        return [i for i, k in self.nodes if k in VERTEX_KINDS]

    def plain_vertices(self) -> List[str]:
        return [i for i, k in self.nodes if k == "Vert"]

    # --- port bookkeeping

    def out_ports(self) -> Dict[End, ArcT]:
        """Maps out-port -> arc."""
        return {arc[0]: arc for arc in self.arcs}

    def in_ports(self) -> Dict[End, ArcT]:
        """Maps in-port -> arc."""
        return {arc[1]: arc for arc in self.arcs}

    # --- validation

    def validate(self) -> List[str]:
        """Empty list iff the diagram is well formed.  One set pass over the
        arc ends decides; only a diagram that fails builds the report."""
        nodes, arcs, n = self.nodes, self.arcs, len(self.nodes)
        ids = {i for i, _ in nodes}
        ends = [end for arc in arcs for end in arc]
        used = set(ends)
        # each of the 4n ports at one end, and the 2n heads on 2n strands
        if (len(ids) == n and len(used) == len(ends) == 4 * n
                and {k for _, k in nodes}.issubset(KINDS)
                and {i for i, _ in used} <= ids
                and {p for _, p in used} <= {0, 1, 2, 3}
                and len({(i, p % 2) for _, (i, p) in arcs}) == 2 * n
                and self.free_loops >= 0):
            return []
        if len(ids) != n:
            return ["duplicate node id"]
        report = ["node %s: unknown kind %s" % (i, k)
                  for i, k in nodes if k not in KINDS]
        for i, port in ends:
            if i not in ids:
                report.append("arc endpoint at unknown node %s" % i)
            if not 0 <= port <= 3:
                report.append("node %s: port %d out of range" % (i, port))
        if report:
            return report
        seen = set()
        for end in ends:
            if end in seen:
                report.append("node %s port %d: duplicate port use" % end)
            seen.add(end)
        if report:
            return report
        roles = dict.fromkeys([tail for tail, _ in arcs], "out")
        roles.update(dict.fromkeys([head for _, head in arcs], "in"))
        for i, _ in nodes:
            for strand in ((0, 2), (1, 3)):
                found = [roles.get((i, p), "free") for p in strand]
                if sorted(found) != ["in", "out"]:
                    report.append(
                        "node %s strand %s: orientation through node broken "
                        "(%s)" % (i, strand, ",".join(found)))
        if self.free_loops < 0:
            report.append("negative free loop count")
        return report

    def require_valid(self) -> None:
        """Nothing to do: construction has already checked the diagram."""

    # --- signs, writhe, components

    def writhe(self) -> int:
        """The sum of the crossing signs: an XPos crossing is positive where
        its ports 0 and 1 both lead in or both lead out (crossing_kind)."""
        ins = {head for _, head in self.arcs}
        return sum(1 if (((i, 0) in ins) == ((i, 1) in ins)) == (k == "XPos")
                   else -1 for i, k in self.nodes if k in CROSSING_KINDS)

    def components(self) -> int:
        """The number of closed strands, free loops included.  Each strand
        through nodes is a cycle of arcs, walked from any of its arcs to
        the arc that leaves the opposite port of its head, each taken out
        of the out-port map, until it is back where it started."""
        outs = self.out_ports()
        count = self.free_loops
        while outs:
            _, arc = outs.popitem()
            count += 1
            while arc is not None:
                n, p = arc[1]
                arc = outs.pop((n, (p + 2) % 4), None)
        return count

    # --- equality up to renumbering

    def canonical_form(self) -> str:
        return _canonical_form(self)

    def same_as(self, other: "Diagram") -> bool:
        return self.canonical_form() == other.canonical_form()

    def __str__(self) -> str:
        return serialize(self)


# --- canonical labeling -----------------------------------------------------


def _adjacency(d: Diagram) -> Dict[str, List[Tuple[int, str, int, str]]]:
    """For each node, the 4 ports in order with (port, peer, peer-port,
    direction flag)."""
    outs, ins = d.out_ports(), d.in_ports()
    adj: Dict[str, List[Tuple[int, str, int, str]]] = {i: [] for i in d.node_ids()}
    for i in d.node_ids():
        for p in range(4):
            if (i, p) in outs:
                (_, _), (b, q) = outs[(i, p)]
                adj[i].append((p, b, q, ">"))
            else:
                (a, q), (_, _) = ins[(i, p)]
                adj[i].append((p, a, q, "<"))
    return adj


def _canonical_form(d: Diagram) -> str:
    adj = _adjacency(d)
    kinds = d.node_map()

    def search(root: str) -> Tuple[List[str], str]:
        """The nodes a breadth-first search from root reaches, which make
        up root's connected part, and the part encoded from root."""
        label: Dict[str, int] = {root: 0}
        order = [root]
        for n in order:
            for _, peer, _, _ in adj[n]:
                if peer not in label:
                    label[peer] = len(order)
                    order.append(peer)
        rows = []
        for n in order:
            cells = ["%s" % kinds[n]]
            for p, peer, q, dirn in adj[n]:
                cells.append("%d%s%d.%d" % (p, dirn, label[peer], q))
            rows.append(" ".join(cells))
        return order, " | ".join(rows)

    encoded_parts = []
    unseen = set(d.node_ids())
    while unseen:
        part, code = search(min(unseen))
        unseen.difference_update(part)
        encoded_parts.append(min([code] + [search(n)[1] for n in part[1:]]))
    encoded_parts.sort()
    return "loops=%d ; %s" % (d.free_loops, " ;; ".join(encoded_parts))


# --- text codec -------------------------------------------------------------


def serialize(d: Diagram, name: str = "diagram") -> str:
    lines = ["diagram %s" % name]
    for i, k in d.nodes:
        lines.append("node %s %s" % (i, k))
    for (a, p), (b, q) in d.arcs:
        lines.append("arc %s.%d -> %s.%d" % (a, p, b, q))
    if d.free_loops:
        lines.append("loop %d" % d.free_loops)
    return "\n".join(lines) + "\n"


def whole_number(text: str) -> int:
    """text read as a whole number: ASCII digits and nothing else.  int()
    also takes a sign, underscores, surrounding spaces and other scripts'
    digits, and str.isdigit() digits such as superscript two, which int()
    refuses; ValueError says which rule text breaks."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("bad number %.40r" % text)
    try:
        return int(text)
    except ValueError:      # more digits than int() converts
        raise ValueError("number too long in %.40r" % text) from None


def text_lines(text: str) -> List[str]:
    """The lines of an input file as an editor shows them: lines end at
    \\n, \\r\\n or \\r only, not at every break str.splitlines knows."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse(text: str) -> Tuple[str, Diagram]:
    """Read the text codec, line by line as text_lines splits it.  Node
    ids and kinds are interned, so that every arc end shares its node's id
    string and every node its kind's."""
    name = "diagram"
    nodes: Dict[str, str] = {}
    arcs: List[ArcT] = []
    loops = 0
    for lineno, raw in enumerate(text_lines(text), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        try:
            if toks[0] == "arc" and len(toks) == 4 and toks[2] == "->":
                arc = []
                for tok in (toks[1], toks[3]):
                    n, dot, p = tok.rpartition(".")
                    if not dot:
                        raise ValueError("bad endpoint %r" % tok)
                    arc.append((sys.intern(n), whole_number(p)))
                arcs.append(tuple(arc))
            elif toks[0] == "node" and len(toks) == 3:
                if toks[2] not in KINDS:
                    raise ValueError("unknown node kind %r" % toks[2])
                if toks[1] in nodes:
                    raise ValueError("node %r defined twice" % toks[1])
                nodes[sys.intern(toks[1])] = sys.intern(toks[2])
            elif toks[0] == "diagram" and len(toks) == 2:
                name = toks[1]
            elif toks[0] == "loop" and len(toks) == 2:
                loops += whole_number(toks[1])
            else:
                raise ValueError("cannot parse %r"
                                 % raw.split("#", 1)[0].strip())
        except ValueError as exc:
            raise DiagramError("line %d: %s" % (lineno, exc)) from None
    return name, Diagram(tuple(sorted(nodes.items())), tuple(sorted(arcs)),
                         loops)


def parse_diagram(text: str) -> Diagram:
    return parse(text)[1]


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file: the one reader of every input file.
    A file that cannot be opened or decoded raises one DiagramError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except ValueError as exc:       # a NUL byte in the path
        reason = str(exc)
    raise DiagramError("cannot read %s: %s" % (path, reason))


def read_diagram(path: str) -> Diagram:
    """The diagram in a file; parsing checks it well formed."""
    return parse_diagram(read_text(path))


# --- local surgery ----------------------------------------------------------


def replace_kind(d: Diagram, node: str, kind: str) -> Diagram:
    nodes = d.node_map()
    if node not in nodes:
        raise DiagramError("unknown node %r" % node)
    nodes[node] = kind
    return Diagram.make(nodes, d.arcs, d.free_loops)


def splice_node(d: Diagram, node: str, joins: Dict[int, int],
                piece: Iterable[ArcT] = ()) -> Diagram:
    """Remove a node, reconnecting strands per joins (in-port -> out-port),
    with the arcs of piece reversed first and joins naming the ports as
    they are after the reversal.

    Every in-port and every out-port of the node must appear exactly once.
    Chains of arcs that close up entirely through the removed node become
    free loops.  A piece leaving the node and re-entering it on its other
    strand breaks the node's orientation until the node is gone, so no
    diagram is built in between.
    """
    flip = set(piece)
    arcs = [(h, t) if (t, h) in flip else (t, h) for t, h in d.arcs]
    outs = {arc[0]: arc for arc in arcs}
    node_in = sorted(h[1] for _, h in arcs if h[0] == node)
    node_out = sorted(t[1] for t, _ in arcs if t[0] == node)
    if sorted(joins.keys()) != node_in or sorted(joins.values()) != node_out:
        raise DiagramError("joins %r do not match ports of node %s"
                           % (joins, node))
    nodes = d.node_map()
    del nodes[node]
    touched = [a for a in arcs if a[0][0] == node or a[1][0] == node]
    arcs = [a for a in arcs if a not in touched]
    loops = d.free_loops
    consumed = set()
    for start in touched:
        if start in consumed or start[0][0] == node:
            continue
        # start outside the node, follow through the node until we exit
        arc = start
        consumed.add(arc)
        while arc[1][0] == node:
            arc = outs[(node, joins[arc[1][1]])]
            consumed.add(arc)
        arcs.append((start[0], arc[1]))
    for start in touched:
        # leftover cycles run entirely through the node
        if start in consumed:
            continue
        arc = start
        while arc not in consumed:
            consumed.add(arc)
            arc = outs[(node, joins[arc[1][1]])]
        loops += 1
    return Diagram.make(nodes, arcs, loops)


def vertex_ports(d: Diagram, node: str) -> Dict[str, int]:
    """The in/out ports of the two strands through a node: keys in_a,
    out_a (the 0-2 strand) and in_b, out_b (the 1-3 strand)."""
    return strand_ports(d.in_ports(), node)


def strand_ports(ins: Dict[End, ArcT], node: str) -> Dict[str, int]:
    """vertex_ports read off the in-port map of Diagram.in_ports, so
    that one pass serves every node."""
    in_a = 0 if (node, 0) in ins else 2
    in_b = 1 if (node, 1) in ins else 3
    return {"in_a": in_a, "out_a": (in_a + 2) % 4,
            "in_b": in_b, "out_b": (in_b + 2) % 4}


def crossing_kind(ports: Dict[str, int], sign: int) -> str:
    """Kind of the crossing of the given sign on a node's strands, given
    the ports that vertex_ports returns."""
    base = 1 if (ports["in_a"], ports["in_b"]) in ((0, 1), (2, 3)) else -1
    return "XPos" if sign == base else "XNeg"


def path_to_reentry(d: Diagram, node: str, out_port: int):
    """Arcs followed from a node's out-port until the strand re-enters the
    same node; returns (arcs, re-entry port)."""
    outs = d.out_ports()
    path = []
    arc = outs[(node, out_port)]
    while True:
        path.append(arc)
        n, p = arc[1]
        if n == node:
            return path, p
        arc = outs[(n, (p + 2) % 4)]

