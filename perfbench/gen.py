"""Seeded inputs for the benchmark, written as diagram text.

Nothing here imports knotgraph, so a change to the program cannot
change a workload's inputs: the same seed gives byte-identical text.
Every input is the closure of a braid word, which lets the checks read
the component count and the writhe off the word instead of asking the
program.

Shapes (strand and crossing counts, vertex counts, verb mix) are fixed
per slot; the seed picks the braid words and which crossings become
vertices.  Fixing the shapes keeps the cost of one item set close from
seed to seed while the inputs themselves change.

Port convention (the one the package's own braid closures use): a
crossing takes the strands at positions i and i+1 in at ports 0 and 1
and puts them out at ports 3 (position i) and 2 (position i+1); XPos is
a positive generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Letter = Tuple[int, int]   # (position in 1..strands-1, sign +1/-1)


@dataclass(frozen=True)
class Braid:
    strands: int
    word: Tuple[Letter, ...]
    vertices: Tuple[int, ...] = ()   # letter indices drawn as rigid vertices

    def text(self, name: str) -> str:
        nodes: List[str] = []
        arcs: List[str] = []
        bottom: Dict[int, str] = {}
        top: Dict[int, str] = {}
        for idx, (i, s) in enumerate(self.word):
            nid = "c%d" % idx
            kind = ("Vert" if idx in self.vertices
                    else "XPos" if s > 0 else "XNeg")
            nodes.append("node %s %s" % (nid, kind))
            for pos, port in ((i, 0), (i + 1, 1)):
                if pos in top:
                    arcs.append("arc %s -> %s.%d" % (top[pos], nid, port))
                else:
                    bottom[pos] = "%s.%d" % (nid, port)
            top[i] = "%s.3" % nid
            top[i + 1] = "%s.2" % nid
        loops = 0
        for pos in range(1, self.strands + 1):
            if pos in top:
                arcs.append("arc %s -> %s" % (top[pos], bottom[pos]))
            else:
                loops += 1
        lines = ["diagram %s" % name] + nodes + arcs
        if loops:
            lines.append("loop %d" % loops)
        return "\n".join(lines) + "\n"

    def components(self, unfolded: Sequence[int] = ()) -> int:
        """Cycles of the closure's permutation.  An unfolded vertex (the
        oriented smoothing) keeps both strands in place."""
        perm = list(range(self.strands + 1))
        for idx, (i, _) in enumerate(self.word):
            if idx not in unfolded:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen = set()
        cycles = 0
        for start in range(1, self.strands + 1):
            if start in seen:
                continue
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = perm[p]
        return cycles

    def writhe(self) -> int:
        """Every strand of a closed braid runs upward, so a crossing's
        sign is its letter's sign."""
        return sum(s for idx, (_, s) in enumerate(self.word)
                   if idx not in self.vertices)


@dataclass(frozen=True)
class Item:
    """One user-visible evaluation: `op` applied to `braid`."""

    name: str
    op: str
    braid: Braid
    k: int = 0          # vertex count of a graph input, else 0
    argv: Tuple[str, ...] = ()   # cli only; "{file}" stands for the input

    def text(self) -> str:
        return self.braid.text(self.name)


def _word(rng: random.Random, strands: int, length: int) -> Tuple[Letter, ...]:
    return tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                 for _ in range(length))


def _spread(j: int, m: int, lo: int, hi: int) -> int:
    """The j-th of m values spread evenly over lo..hi."""
    return lo + (j * (hi - lo)) // max(m - 1, 1)


# --- links: p_eval of torus links and random braid closures ----------------

LINK_TORUS = 100         # T(2, n) with n spread over 10..40
# strands -> (slots, largest crossing count).  Cost grows with the
# frontier width, so wider braids stop at fewer crossings; their cost
# still spreads over two orders of magnitude, which item_p90_ms sees.
LINK_BRAIDS = {3: (170, 40), 4: (130, 32), 5: (110, 28)}


def link_items(seed: int) -> List[Item]:
    rng = random.Random("links-%d" % seed)
    items = []
    for j in range(LINK_TORUS):
        n = _spread(j, LINK_TORUS, 10, 40)
        sign = rng.choice((1, -1))
        items.append(Item("torus%03d" % j, "torus",
                          Braid(2, ((1, sign),) * n)))
    for strands, (slots, hi) in LINK_BRAIDS.items():
        for j in range(slots):
            n = _spread(j, slots, 10, hi)
            items.append(Item("b%d_%03d" % (strands, j), "p",
                              Braid(strands, _word(rng, strands, n))))
    return items


# --- graphs: rigid-vertex braid closures under four evaluations ------------

# op -> item count for vertex count k = 1, 2, ...  Cost grows as 2^k (3^k
# for the three-branch general scheme).  The few items of four and five
# vertices (and three under the general scheme) make up the top few
# percent, so item_p90_ms lands inside the many items of three vertices
# rather than on the steep edge between cost classes.
GRAPH_MIX = {
    "vassiliev_p": (40, 35, 16, 3, 1),
    "casimir_z": (40, 35, 16, 3),
    "general_p": (45, 35, 2),
    "series8": (40, 35, 16, 3, 1),
}


def graph_items(seed: int) -> List[Item]:
    rng = random.Random("graphs-%d" % seed)
    items = []
    for op, counts in GRAPH_MIX.items():
        for k, count in enumerate(counts, 1):
            for j in range(count):
                strands = 3 + j % 2
                n = _spread(j, count, 8, 18)
                word = _word(rng, strands, n)
                verts = tuple(sorted(rng.sample(range(n), k)))
                items.append(Item("%s_k%d_%02d" % (op, k, j), op,
                                  Braid(strands, word, verts), k))
    return items


# --- cli: fresh processes over a seeded mix of verbs -----------------------

# (argv, count, input kind); "{file}" is replaced by the item's input path.
# After the four corpus runs, the twelve spinor and reidemeister checks
# are the dearest items, so item_p90_ms lands in the middle of them.
CLI_MIX = (
    (("eval", "{file}"), 21, "link"),
    (("jones", "{file}"), 21, "link"),
    (("graph-eval", "{file}"), 8, "graph"),
    (("graph-eval", "{file}", "--scheme", "casimir", "--level", "z"), 8,
     "graph"),
    (("resolve", "{file}"), 8, "graph"),
    (("vassiliev", "{file}", "--order", "4"), 8, "graph"),
    (("check", "spinor"), 6, None),
    (("check", "four-term"), 4, None),
    (("check", "fierz"), 3, None),
    (("check", "projector"), 3, None),
    (("check", "reidemeister"), 6, None),
    (("corpus",), 4, None),
)


def cli_items(seed: int) -> List[Item]:
    rng = random.Random("cli-%d" % seed)
    items = []
    for argv, count, kind in CLI_MIX:
        for j in range(count):
            if kind == "link":
                strands = 2 + j % 3
                braid = Braid(strands, _word(rng, strands,
                                             _spread(j, count, 3, 12)))
                k = 0
            elif kind == "graph":
                n = _spread(j, count, 4, 9)
                k = 1 + j % 3
                braid = Braid(3, _word(rng, 3, n),
                              tuple(sorted(rng.sample(range(n), k))))
            else:
                braid = Braid(2, ())
                k = 0
            name = "%s%03d" % (argv[0] if kind else "-".join(argv),
                               len(items))
            items.append(Item(name, "cli", braid, k, argv))
    # Interleave the verbs so that a slow phase of the machine does not
    # land on one verb only.
    rng.shuffle(items)
    return items


WORKLOADS = {"links": link_items, "graphs": graph_items, "cli": cli_items}


def items_for(workload: str, seed: int) -> List[Item]:
    return WORKLOADS[workload](seed)
