"""Shipped regression corpus: frozen diagram files with expected values.

The corpus lives in the ``corpus_data`` package directory: diagram files
(``*.dg``), tensor diagram files (``*.td``) and a ``manifest.txt`` whose
lines read ``name | file | op | args | expected | tag | anchor``.  Tags
record how each expectation was obtained: ``known`` for values fixed by
the invariant's defining relations, ``derived`` for values computed by
an independent oracle, ``trivial`` for bookkeeping facts.  The anchor is
a short human-readable reminder of what the entry pins down.

``run_corpus`` re-evaluates every entry and compares the rendered result
with the frozen text bit-exactly.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from . import graphinv as gi
from . import moves as mv
from . import spinnet as sn
from . import vassiliev
from .bracket import p_eval, z_eval
from .diagram import (Diagram, DiagramError, read_diagram, read_text,
                      replace_kind, text_lines, whole_number)
from .ring import Value, rf

DATA_DIR = os.path.join(os.path.dirname(__file__), "corpus_data")
# a graph_moves walk costs about 1 ms per step
MAX_STEPS = 100


class CorpusError(DiagramError):
    pass


class CorpusEntry(Value):
    __slots__ = ("name", "file", "op", "args", "expected", "tag", "anchor")


class EntryResult(Value):
    __slots__ = ("entry", "actual")

    @property
    def passed(self) -> bool:
        return self.actual == self.entry.expected


_TAGS = ("known", "derived", "trivial")


def load_manifest(path: Optional[str] = None) -> List[CorpusEntry]:
    try:
        text = read_text(os.path.join(path or DATA_DIR, "manifest.txt"))
    except DiagramError as exc:
        raise CorpusError(str(exc)) from None
    entries = []
    for lineno, raw in enumerate(text_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 7:
            raise CorpusError("manifest line %d: expected 7 fields" % lineno)
        entry = CorpusEntry(*parts)
        if entry.tag not in _TAGS:
            raise CorpusError("manifest line %d: unknown tag %r"
                              % (lineno, entry.tag))
        entries.append(entry)
    return entries


def corpus_diagrams(path: Optional[str] = None) -> Dict[str, Diagram]:
    """Every distinct diagram file of the corpus, parsed."""
    base = path or DATA_DIR
    out: Dict[str, Diagram] = {}
    for entry in load_manifest(base):
        if entry.file.endswith(".dg") and entry.file not in out:
            out[entry.file] = read_diagram(os.path.join(base, entry.file))
    return out


def _parse_args(args: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if args and args != "-":
        for part in args.split(","):
            if "=" in part:
                k, v = part.split("=", 1)
                out[k.strip()] = v.strip()
            else:
                out.setdefault("files", "")
                out["files"] = (out["files"] + " " + part.strip()).strip()
    return out


def _arg(args: Dict[str, str], key: str, default: Optional[str] = None) -> str:
    if key not in args and default is None:
        raise CorpusError("missing argument %s=" % key)
    return args.get(key, default)


def _count_arg(args: Dict[str, str], key: str,
               default: Optional[str] = None) -> int:
    text = _arg(args, key, default)
    try:
        return whole_number(text)
    except ValueError:
        raise CorpusError("argument %s=%.40r is not a count"
                          % (key, text)) from None


def _op_four_term(n: Diagram, args: Dict[str, str], base: str) -> str:
    files = _arg(args, "files", "").split()
    if len(files) != 3:
        raise CorpusError("expected three further diagram files")
    others = [read_diagram(os.path.join(base, f)) for f in files]
    quad = dict(zip("NSEW", [n] + others))
    return gi.six_valent_eval(quad)["residual"].render()


def _op_fierz_form(g: Diagram, args: Dict[str, str], base: str) -> str:
    """Marked-vertex value minus (1/2 unfolded - 1/4 plain)."""
    vs = g.vertices()
    if len(vs) != 1:
        raise CorpusError("expected exactly one vertex")
    v = vs[0]
    if g.node_map()[v] != "CVert":
        raise CorpusError("fierz_form wants a marked vertex")
    marked = gi.eval_with_casimir_marks(g)
    plain_graph = replace_kind(g, v, "Vert")
    plain = gi.eval_graph(plain_graph, gi.CASIMIR_PLAIN, level="z")
    unfolded = rf(z_eval(gi.vertex_unfold(g, v)))
    from fractions import Fraction
    residual = marked - unfolded.scale(Fraction(1, 2)) \
        + plain.scale(Fraction(1, 4))
    return residual.render()


def _op_spinor(g: Diagram, args: Dict[str, str], base: str) -> str:
    plain = g.plain_vertices()
    if not plain:
        raise CorpusError("spinor wants a plain vertex")
    reports = [gi.check_spinor(g, v) for v in plain]
    if any(not r["residual"].is_zero() for r in reports):
        return "nonzero"
    return "case=%s residual=0" % ",".join(str(r["case"]) for r in reports)


def _op_valuation(g: Diagram, args: Dict[str, str], base: str) -> str:
    rep = vassiliev.vassiliev_series(g, _count_arg(args, "order", "4"))
    return "none" if rep.vanishing_order is None else str(rep.vanishing_order)


def _op_graph_moves(g: Diagram, args: Dict[str, str], base: str) -> str:
    """Deterministic move walk; the invariant must not change."""
    steps = _count_arg(args, "steps", "4")
    if steps > MAX_STEPS:
        raise CorpusError("argument steps=%d is above the limit %d"
                          % (steps, MAX_STEPS))
    import random
    d = mv.random_walk(g, steps, random.Random(steps * 1000 + len(g.arcs)))
    same = gi.eval_graph(d, gi.VASSILIEV) == gi.eval_graph(g, gi.VASSILIEV)
    return "ok" if same else "changed"


def _op_projector(path: str, args: Dict[str, str], base: str) -> str:
    rep = sn.check_projector(_count_arg(args, "n"))
    return "ok" if rep["ok"] else ";".join(rep["failures"])


def _op_perm(path: str, args: Dict[str, str], base: str) -> str:
    n, kind = _count_arg(args, "n"), _arg(args, "kind")
    if kind not in ("skew", "sym"):
        raise CorpusError("argument kind=%.40r is not skew or sym" % kind)
    elem = sn.antisymmetrizer(n) if kind == "skew" else sn.symmetrizer(n)
    return elem.render()


# op -> (whether the entry's file is a diagram, the op's evaluation).  An
# evaluation takes the parsed diagram (else the file's path), the entry's
# arguments and the corpus directory, and returns the value as text.  It
# reaches vassiliev, moves and spinnet through their module objects, so
# that a command runs those modules only when it evaluates such an op.
_OPS = {
    "z": (True, lambda g, args, base: z_eval(g).render()),
    "p": (True, lambda g, args, base: p_eval(g).render()),
    "writhe": (True, lambda g, args, base: str(g.writhe())),
    "stats": (True, lambda g, args, base: "components=%d vertices=%d writhe=%d"
              % (g.components(), len(g.vertices()), g.writhe())),
    "z_casimir": (True, lambda g, args, base: gi.eval_graph(
        g, gi.CASIMIR_PLAIN, level="z").render()),
    "z_marked": (True, lambda g, args, base:
                 gi.eval_with_casimir_marks(g).render()),
    "fierz_form": (True, _op_fierz_form),
    "resolve_coeffs": (True, lambda g, args, base: ";".join(sorted(
        c.render() for c, _ in gi.resolve_vertices(g, gi.VASSILIEV).terms()))),
    "spinor": (True, _op_spinor),
    "casimir_diff": (True, lambda g, args, base:
                     gi.casimir_decompose(g)["difference"].render()),
    "vassiliev_valuation": (True, _op_valuation),
    "vassiliev_h0": (True, lambda g, args, base: str(
        vassiliev.vassiliev_series(g, 0).series.coeffs[0])),
    "graph_moves": (True, _op_graph_moves),
    "four_term": (True, _op_four_term),
    "six_valent": (True, _op_four_term),
    "casimir_constants": (False, lambda path, args, base: "C1=%s;C2=%s"
                          % (gi.C1.render(), gi.C2.render())),
    "prop31": (False, lambda path, args, base: "a1=%s;a2=%s"
               % tuple(a.render() for a in gi.derive_prop31())),
    "tensor": (False, lambda path, args, base: sn.eval_tensor_diagram(
        sn.parse_tensor_diagram(read_text(path))).render()),
    "spinor_tensor": (False, lambda path, args, base: "ok"
                      if sn.check_spinor_tensor_identity()["ok"] else "fail"),
    "fierz": (False, lambda path, args, base:
              "ok" if sn.check_fierz()["ok"] else "fail"),
    "projector": (False, _op_projector),
    "perm": (False, _op_perm),
}


def evaluate_entry(entry: CorpusEntry, base: str) -> str:
    if entry.op not in _OPS:
        raise CorpusError("unknown corpus op %r" % entry.op)
    reads_diagram, evaluate = _OPS[entry.op]
    path = os.path.join(base, entry.file)
    subject = read_diagram(path) if reads_diagram else path
    return evaluate(subject, _parse_args(entry.args), base)


def run_corpus(path: Optional[str] = None) -> List[EntryResult]:
    base = path or DATA_DIR
    return [EntryResult(entry, evaluate_entry(entry, base))
            for entry in load_manifest(base)]


def report_lines(results: List[EntryResult]) -> List[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = "%s %s/%s -> %s" % (status, r.entry.name, r.entry.op,
                                   r.actual)
        if not r.passed:
            line += "  (expected %s)" % r.entry.expected
        lines.append(line)
    lines.append("%d/%d corpus entries passed"
                 % (sum(r.passed for r in results), len(results)))
    return lines
