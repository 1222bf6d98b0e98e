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
from .diagram import (Diagram, DiagramError, parse_diagram, read_text,
                      replace_kind)
from .ring import Value, rf

DATA_DIR = os.path.join(os.path.dirname(__file__), "corpus_data")
# a graph_moves walk costs about 1 ms per step
MAX_STEPS = 100


class CorpusError(DiagramError):
    pass


class CorpusEntry(Value):
    __slots__ = ("name", "file", "op", "args", "expected", "tag", "anchor")

    def __init__(self, name: str, file: str, op: str, args: str,
                 expected: str, tag: str, anchor: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "anchor", anchor)


class EntryResult(Value):
    __slots__ = ("entry", "actual")

    def __init__(self, entry: CorpusEntry, actual: str) -> None:
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "actual", actual)

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
    for lineno, raw in enumerate(text.splitlines(), 1):
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


def load_diagram(base: str, fname: str) -> Diagram:
    """A corpus diagram file, parsed; parsing checks it well formed."""
    return parse_diagram(read_text(os.path.join(base, fname)))


def corpus_diagrams(path: Optional[str] = None) -> Dict[str, Diagram]:
    """Every distinct diagram file of the corpus, parsed."""
    base = path or DATA_DIR
    out: Dict[str, Diagram] = {}
    for entry in load_manifest(base):
        if entry.file.endswith(".dg") and entry.file not in out:
            out[entry.file] = load_diagram(base, entry.file)
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
        value = int(text)
    except ValueError:      # not a number, or more digits than int() reads
        raise CorpusError("argument %s=%.40r is not a count"
                          % (key, text)) from None
    if value < 0:
        raise CorpusError("argument %s=%d is negative" % (key, value))
    return value


def _three_files(args: Dict[str, str], base: str) -> List[Diagram]:
    files = _arg(args, "files", "").split()
    if len(files) != 3:
        raise CorpusError("expected three further diagram files")
    return [load_diagram(base, f) for f in files]


def _single_vertex(g: Diagram) -> str:
    vs = g.vertices()
    if len(vs) != 1:
        raise CorpusError("expected exactly one vertex")
    return vs[0]


def _op_stats(g: Diagram) -> str:
    return "components=%d vertices=%d writhe=%d" % (
        g.components(), len(g.vertices()), g.writhe())


def _op_fierz_form(g: Diagram) -> str:
    """Marked-vertex value minus (1/2 unfolded - 1/4 plain)."""
    v = _single_vertex(g)
    if g.kind_of(v) != "CVert":
        raise CorpusError("fierz_form wants a marked vertex")
    marked = gi.eval_with_casimir_marks(g)
    plain_graph = replace_kind(g, v, "Vert")
    plain = gi.eval_graph(plain_graph, gi.CASIMIR_PLAIN, level="z")
    unfolded = rf(z_eval(gi.vertex_unfold(g, v)))
    from fractions import Fraction
    residual = marked - unfolded.scale(Fraction(1, 2)) \
        + plain.scale(Fraction(1, 4))
    return residual.render()


def _op_resolve_coeffs(g: Diagram) -> str:
    fs = gi.resolve_vertices(g, gi.VASSILIEV)
    return ";".join(sorted(c.render() for c, _ in fs.terms()))


def _op_graph_moves(g: Diagram, steps: int) -> str:
    """Deterministic move walk; the invariant must not change."""
    if steps > MAX_STEPS:
        raise CorpusError("argument steps=%d is above the limit %d"
                          % (steps, MAX_STEPS))
    import random
    d = mv.random_walk(g, steps, random.Random(steps * 1000 + len(g.arcs)))
    same = gi.eval_graph(d, gi.VASSILIEV) == gi.eval_graph(g, gi.VASSILIEV)
    return "ok" if same else "changed"


def evaluate_entry(entry: CorpusEntry, base: str) -> str:
    op = entry.op
    args = _parse_args(entry.args)
    if op in ("z", "p", "writhe", "stats", "z_casimir", "z_marked",
              "fierz_form", "resolve_coeffs", "spinor", "casimir_diff",
              "vassiliev_valuation", "vassiliev_h0", "graph_moves"):
        g = load_diagram(base, entry.file)
        if op == "z":
            return z_eval(g).render()
        if op == "p":
            return p_eval(g).render()
        if op == "writhe":
            return str(g.writhe())
        if op == "stats":
            return _op_stats(g)
        if op == "z_casimir":
            return gi.eval_graph(g, gi.CASIMIR_PLAIN, level="z").render()
        if op == "z_marked":
            return gi.eval_with_casimir_marks(g).render()
        if op == "fierz_form":
            return _op_fierz_form(g)
        if op == "resolve_coeffs":
            return _op_resolve_coeffs(g)
        if op == "spinor":
            plain = [v for v, k in g.nodes if k == "Vert"]
            if not plain:
                raise CorpusError("spinor wants a plain vertex")
            reports = [gi.check_spinor(g, v) for v in plain]
            if any(not r["residual"].is_zero() for r in reports):
                return "nonzero"
            return "case=%s residual=0" % ",".join(
                str(r["case"]) for r in reports)
        if op == "casimir_diff":
            return gi.casimir_decompose(g)["difference"].render()
        if op == "vassiliev_valuation":
            rep = vassiliev.vassiliev_series(g, _count_arg(args, "order", "4"))
            return ("none" if rep.vanishing_order is None
                    else str(rep.vanishing_order))
        if op == "vassiliev_h0":
            rep = vassiliev.vassiliev_series(g, 0)
            return str(rep.series.coeffs[0])
        if op == "graph_moves":
            return _op_graph_moves(g, _count_arg(args, "steps", "4"))
    if op in ("four_term", "six_valent"):
        n = load_diagram(base, entry.file)
        return gi.check_four_term(n, *_three_files(args, base)).render()
    if op == "casimir_constants":
        return "C1=%s;C2=%s" % (gi.C1.render(), gi.C2.render())
    if op == "prop31":
        a1, a2 = gi.derive_prop31()
        return "a1=%s;a2=%s" % (a1.render(), a2.render())
    if op == "tensor":
        td = sn.parse_tensor_diagram(read_text(os.path.join(base, entry.file)))
        return sn.eval_tensor_diagram(td).render()
    if op == "spinor_tensor":
        return "ok" if sn.check_spinor_tensor_identity()["ok"] else "fail"
    if op == "fierz":
        return "ok" if sn.check_fierz()["ok"] else "fail"
    if op == "projector":
        rep = sn.check_projector(_count_arg(args, "n"))
        return "ok" if rep["ok"] else ";".join(rep["failures"])
    if op == "perm":
        n, kind = _count_arg(args, "n"), _arg(args, "kind")
        if kind not in ("skew", "sym"):
            raise CorpusError("argument kind=%.40r is not skew or sym" % kind)
        elem = sn.antisymmetrizer(n) if kind == "skew" else sn.symmetrizer(n)
        return elem.render()
    raise CorpusError("unknown corpus op %r" % op)


def run_corpus(path: Optional[str] = None) -> List[EntryResult]:
    base = path or DATA_DIR
    results = []
    for entry in load_manifest(base):
        results.append(EntryResult(entry, evaluate_entry(entry, base)))
    return results


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
