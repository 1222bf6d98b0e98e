#!/usr/bin/env python3
"""Rewrite the shipped corpus diagram files from the catalog.

Only the ``.dg`` files are written.  ``manifest.txt``, with its
hand-frozen expected values, and the ``.td`` tensor files are edited by
hand and are never derived from the code under test.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotgraph import catalog, moves  # noqa: E402
from knotgraph.diagram import serialize  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "knotgraph",
                   "corpus_data")

# every catalog name but the two aliases of G_a_vertex and G_b_vertex
DIAGRAMS = [n for n in catalog.NAMES
            if n not in ("case1_vertex", "case2_vertex")]


def kinked_unknot():
    d = catalog.named_diagram("kink+")
    arc = d.arcs[0]
    d = moves.r1_plus(d, arc, "-a")
    d = moves.r1_plus(d, d.arcs[0], "+b")
    return d


def diagram_texts():
    """File name -> text of every corpus diagram file."""
    texts = {name + ".dg": serialize(catalog.named_diagram(name), name)
             for name in DIAGRAMS}
    texts["kinked-unknot.dg"] = serialize(kinked_unknot(), "kinked-unknot")
    return texts


def main():
    for fname, text in diagram_texts().items():
        with open(os.path.join(OUT, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    print("wrote corpus diagrams to", os.path.abspath(OUT))


if __name__ == "__main__":
    main()
