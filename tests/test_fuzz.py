"""Seeded, bounded fuzz of the input surface.

Random diagram text and random --scheme polynomial text may raise only
DiagramError or RingError, random corpus manifest lines also CorpusError
or SpinNetError, and the CLI exits 0, or 1 with exactly one `error:`
line.  No case has more than six nodes, a series order above 12, a walk
above 4 steps or more than 5 strands, so none reaches the cost of a
large evaluation.
"""

import os
import random
import shutil

from knotgraph import catalog
from knotgraph.bracket import p_eval, z_eval
from knotgraph.cli import main
from knotgraph.corpus import DATA_DIR, CorpusError, run_corpus
from knotgraph.diagram import DiagramError, parse_diagram, serialize
from knotgraph.graphinv import (ResolutionScheme, VASSILIEV, eval_graph,
                                eval_with_casimir_marks, resolve_vertices)
from knotgraph.ring import RingError, parse_poly, rf
from knotgraph.spinnet import SpinNetError
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


# manifest field junk: no digits, so every count stays within the bounds
JUNK = ("", "-", "\x00", "é", "\x85", " ", ",", "=", "|", "#", "nope.dg",
        "sub.dg", "manifest.txt", "eps-pair.td", "kind=x", "files")


def _manifest_line(rng: random.Random, shipped, fields) -> str:
    """A shipped manifest line with one to three fields replaced, by
    another line's value in that column, generated args, a junk word, or
    the old value with junk spliced in."""
    line = list(rng.choice(shipped))
    for _ in range(rng.randint(1, 3)):
        col = rng.randrange(7)
        pick = rng.randrange(4)
        if pick == 0:
            line[col] = rng.choice(fields[col])
        elif pick == 1 and col == 3:
            line[col] = rng.choice((
                "order=%d" % rng.randint(0, 12),
                "steps=%d" % rng.randint(0, 4), "n=%d" % rng.randint(0, 5),
                "kind=%s,n=%d" % (rng.choice(("skew", "sym")),
                                  rng.randint(0, 5))))
        elif pick == 2:
            line[col] = rng.choice(JUNK)
        else:
            i = rng.randrange(len(line[col]) + 1)
            line[col] = line[col][:i] + rng.choice(JUNK) + line[col][i:]
    return " | ".join(line) + "\n"


def test_random_manifest_lines_raise_only_domain_errors(tmp_path, capsys):
    """Run the corpus on one mutated manifest line at a time, next to
    copies of the shipped files; the CLI reports the same outcome."""
    for name in os.listdir(DATA_DIR):
        if name != "manifest.txt":
            shutil.copy(os.path.join(DATA_DIR, name), str(tmp_path))
    (tmp_path / "sub.dg").mkdir()
    with open(os.path.join(DATA_DIR, "manifest.txt"), encoding="utf-8") as fh:
        shipped = [[f.strip() for f in line.split("|")]
                   for line in fh if not line.startswith("#")]
    fields = [sorted({row[col] for row in shipped}) for col in range(7)]
    rng = random.Random(84)
    outcomes = set()
    for case in range(1000):
        line = _manifest_line(rng, shipped, fields)
        (tmp_path / "manifest.txt").write_text(line, encoding="utf-8")
        try:
            results = run_corpus(str(tmp_path))
            expect = 0 if all(r.passed for r in results) else 1
            outcomes.add("pass" if expect == 0 else "fail")
        except (CorpusError, DiagramError, RingError, SpinNetError):
            expect = None
            outcomes.add("error")
        if case % 5:
            continue
        code = main(["corpus", "--dir", str(tmp_path)])
        out, err = capsys.readouterr()
        if expect is None:
            assert code == 1 and out == "" and err.startswith("error: ")
            assert len(err.splitlines()) == 1
        else:
            assert code == expect and err == "" and out
    assert outcomes == {"pass", "fail", "error"}
