"""Seeded, bounded fuzz of the input surface.

Random diagram text and random --scheme polynomial text may raise only
DiagramError or RingError, and the CLI exits 0, or 1 with exactly one
`error:` line.  No case has more than six nodes, so none reaches the
cost of a large evaluation.
"""

import random

from knotgraph import catalog
from knotgraph.bracket import p_eval, z_eval
from knotgraph.cli import main
from knotgraph.diagram import DiagramError, parse_diagram, serialize
from knotgraph.graphinv import (ResolutionScheme, VASSILIEV, eval_graph,
                                eval_with_casimir_marks, resolve_vertices)
from knotgraph.ring import RingError, parse_poly, rf
from knotgraph.vassiliev import vassiliev_series

MAX_NODES = 6
SHAPES = ("unknot", "two-circles", "kink+", "hopf-", "trefoil+",
          "figure-eight", "G_a_vertex", "G_a_composite", "G_b_vertex",
          "G_b_cvert", "gb_2vert", "flower3")
KINDS = ("XPos", "XNeg", "Vert", "CVert")
WORDS = ("node", "arc", "loop", "diagram", "->", "XPos", "XNeg", "Vert",
         "CVert", "Cross", "n0", "n1", "n9", "n0.0", "n1.3", "n0.4", "n1.-1",
         "n0.²", "n1.٣", ".2", "n0.", "0", "1", "3", "-1", "7" * 30, "#",
         "", "\t", "é", "\x00")
POLY_BITS = ("A", "A^", "^", "-", "+", "*", "/", " ", "1", "2", "0", "-3",
             "1/2", "1/0", "A^-2", "A^99999", "9" * 25, "²", "x", ",", "(",
             "..", "1e3", "-A", "--A", "+ +")


def _mutant(rng: random.Random) -> str:
    """A shipped diagram's text after a few random line and word edits."""
    lines = serialize(catalog.named_diagram(rng.choice(SHAPES)),
                      "d").splitlines()
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(7)
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        digits = [k for k, ch in enumerate(lines[i]) if ch.isdigit()]
        if edit == 0 and len(lines) > 1:
            del lines[i]
        elif edit == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3 and digits:      # another port or count
            k = rng.choice(digits)
            lines[i] = lines[i][:k] + rng.choice("0123459") + lines[i][k + 1:]
        elif edit == 4 and toks[0] == "node":
            lines[i] = " ".join(toks[:2] + [rng.choice(KINDS)])
        elif edit == 5:
            toks[rng.randrange(len(toks))] = rng.choice(WORDS)
            lines[i] = " ".join(toks)
        elif edit == 6:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(WORDS))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _diagram_texts(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        text = _mutant(rng)
        if sum(line.split()[:1] == ["node"]
               for line in text.splitlines()) <= MAX_NODES:
            out.append(text)
    return out


def _poly_text(rng: random.Random) -> str:
    if rng.random() < 0.3:      # a valid polynomial with one edit
        text = " + ".join(rng.choice(("A", "-1/2*A^-3", "3", "A^2", "-A"))
                          for _ in range(rng.randint(1, 3)))
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(POLY_BITS) + text[i + rng.randint(0, 2):]
    return "".join(rng.choice(POLY_BITS) for _ in range(rng.randint(0, 6)))


def _evaluate(d) -> None:
    if d.vertices():
        if any(k == "CVert" for _, k in d.nodes):
            eval_with_casimir_marks(d)
        else:
            eval_graph(d)
            resolve_vertices(d, VASSILIEV)
            vassiliev_series(d, 3)
    else:
        z_eval(d)
        p_eval(d)


def test_random_diagram_text_raises_only_domain_errors():
    rng = random.Random(81)
    outcomes = set()
    for text in _diagram_texts(rng, 600):
        try:
            d = parse_diagram(text)
            d.require_valid()
            _evaluate(d)
            outcomes.add("value")
        except (DiagramError, RingError):
            outcomes.add("error")
    assert outcomes == {"value", "error"}


def test_random_scheme_text_raises_only_ring_errors():
    rng = random.Random(82)
    graphs = [catalog.named_diagram(n) for n in ("G_b_vertex", "gb_2vert")]
    outcomes = set()
    for _ in range(300):
        try:
            p = rf(parse_poly(_poly_text(rng)))
            scheme = ResolutionScheme(p, rf(parse_poly("-1")), p)
            for g in graphs:
                eval_graph(g, scheme)
            outcomes.add("value")
        except RingError:
            outcomes.add("error")
    assert outcomes == {"value", "error"}


def _exits_cleanly(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == "", argv
    else:
        assert code == 1, argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
        assert captured.out == "", argv
    return code


def test_cli_on_random_inputs_is_exit_0_or_one_error_line(tmp_path, capsys):
    rng = random.Random(83)
    codes = set()
    for k, text in enumerate(_diagram_texts(rng, 80)):
        path = tmp_path / ("d%d.dg" % k)
        path.write_text(text, encoding="utf-8")
        for argv in (["eval"], ["jones"], ["graph-eval"], ["resolve"],
                     ["vassiliev", "--order", "3"]):
            codes.add(_exits_cleanly(capsys, argv + [str(path)]))
    graph = tmp_path / "graph.dg"
    graph.write_text(serialize(catalog.named_diagram("gb_2vert"), "g"))
    for _ in range(40):
        text = _poly_text(rng)
        for scheme in ("%s,-1,0" % text, "1,%s,0" % text, "1,-1,%s" % text):
            for verb in ("graph-eval", "resolve"):
                codes.add(_exits_cleanly(
                    capsys, [verb, str(graph), "--scheme", scheme]))
    assert codes == {0, 1}
