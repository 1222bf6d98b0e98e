"""Shared helpers for the test suite."""

import random

from knotgraph import bracket, catalog, moves
from knotgraph.bracket import z_eval
from knotgraph.diagram import Diagram


def random_braid_link(rng: random.Random, max_letters: int = 5,
                      max_strands: int = 3):
    """Closure of a small random braid word."""
    strands = rng.randint(2, max_strands)
    word = [(rng.randint(1, strands - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(1, max_letters))]
    return catalog.braid_closure(strands, word)


def grow_with_moves(rng: random.Random, d, steps: int, cap: int = 7):
    """Apply random enlarging moves (curl and push insertions)."""
    for _ in range(steps):
        if len(d.crossings()) >= cap:
            break
        candidates = [m for m in moves.applicable_moves(d)
                      if m.move in ("R1+", "R2+")]
        if not candidates:
            break
        d = moves.apply_move(d, rng.choice(candidates))
    return d


def random_vertex_graph(rng: random.Random, steps: int = 2):
    """A shipped vertex graph enlarged by a few random insertions."""
    name = rng.choice(["G_a_vertex", "G_b_vertex", "ga_2vert", "gb_2vert",
                       "ft_plain_N", "flower3"])
    return grow_with_moves(rng, catalog.named_diagram(name), steps, cap=6)


def raw(d):
    """The orientation-free state sum: Z with its sign (-1)^(c - 1 + w)
    undone."""
    return z_eval(d).scale(-1 if (d.components() - 1 + d.writhe()) % 2
                           else 1)


def mirror(d):
    """d with every crossing changed."""
    swap = {"XPos": "XNeg", "XNeg": "XPos"}
    return Diagram.make({i: swap.get(k, k) for i, k in d.nodes}, d.arcs,
                        d.free_loops)


def trace_components(d):
    """The closed oriented loops of d through its nodes, as arc lists
    (free loops excluded): each arc leads on to the arc that leaves the
    opposite port of its head."""
    outs = d.out_ports()
    seen, comps = set(), []
    for arc in d.arcs:
        comp = []
        while arc not in seen:
            comp.append(arc)
            seen.add(arc)
            n, p = arc[1]
            arc = outs[(n, (p + 2) % 4)]
        if comp:
            comps.append(comp)
    return comps


def reverse_component(d, index: int):
    """d with the index-th loop of trace_components run backwards."""
    flip = set(trace_components(d)[index])
    return Diagram.make(d.node_map(), [(h, t) if (t, h) in flip else (t, h)
                                       for t, h in d.arcs], d.free_loops)


def disjoint_union(d1, d2):
    """d1 beside d2, each of d2's node ids primed until it is new."""
    taken, rename = set(d1.node_ids()), {}
    for i in d2.node_ids():
        j = i
        while j in taken or j in rename.values():
            j += "'"
        rename[i] = j
    nodes = d1.node_map()
    nodes.update((rename[i], k) for i, k in d2.nodes)
    arcs = list(d1.arcs) + [((rename[a], p), (rename[b], q))
                            for (a, p), (b, q) in d2.arcs]
    return Diagram.make(nodes, arcs, d1.free_loops + d2.free_loops)


def absorbed(tables, arcs):
    """The twist pass on the int index of tables and arcs, mapped back to
    names: the tables left (a twist's under the id of its first
    crossing), the arcs left, in their order, and the free loops made."""
    ids, at, tails = bracket._index(tables, arcs)
    kinds = [(tables[n], None, None) for n in ids]
    kind = list(range(len(ids)))
    live, tails, loops = bracket._absorb_twists(at, tails, kind, kinds)

    def end(k):
        return ids[k >> 2], k & 3
    return ({ids[i]: kinds[kind[i]][0] for i in live},
            [(end(t), end(at[t])) for t in tails], loops)
