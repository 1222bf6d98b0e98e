"""Shared helpers for the test suite."""

import random

from knotgraph import catalog, moves


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
