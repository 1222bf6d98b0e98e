"""Shared helpers for the test suite."""

import itertools
import random

from knotgraph import catalog, moves
from knotgraph.bracket import _SMOOTHINGS
from knotgraph.ring import LOOP, ZERO, LaurentPoly


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


def brute_profile(kinds, internal):
    """Open-tangle state sum by enumerating every smoothing choice with a
    union-find over ports; the oracle for the contraction engine."""
    nodes = sorted(kinds)
    used = {pt for arc in internal for pt in arc}
    boundary = [(n, p) for n in nodes for p in range(4) if (n, p) not in used]
    profile = {}
    for choice in itertools.product(*(_SMOOTHINGS[kinds[n]] for n in nodes)):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for n, (j1, j2, _) in zip(nodes, choice):
            for p, q in (j1, j2):
                parent[find((n, p))] = find((n, q))
        for u, v in internal:
            parent[find(tuple(u))] = find(tuple(v))
        groups = {}
        for pt in boundary:
            groups.setdefault(find(pt), []).append(pt)
        loops = len({find((n, p)) for n in nodes for p in range(4)}
                    - set(groups))
        pairing = frozenset(frozenset(g) for g in groups.values())
        weight = LaurentPoly.monomial(sum(c[2] for c in choice)) * LOOP ** loops
        profile[pairing] = profile.get(pairing, ZERO) + weight
    return {k: v for k, v in profile.items() if v != ZERO}
