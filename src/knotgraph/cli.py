"""Line-oriented command front end.

Verbs: ``eval`` (framed value Z), ``jones`` (writhe-corrected value P),
``graph-eval`` (vertex graphs under a resolution scheme), ``resolve``
(formal sum of resolutions), ``vassiliev`` (series expansion),
``check`` (named verifications) and ``corpus`` (shipped regression set).
Exit code 0 means every requested computation or check succeeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import catalog
from . import corpus as corpus_mod
from . import graphinv as gi
from . import moves as mv
from . import spinnet as sn
from . import vassiliev as vs
from .bracket import p_eval, z_eval
from .diagram import DiagramError, parse_diagram, read_text, serialize
from .ring import RingError, parse_poly, rf


class CliError(ValueError):
    pass


def _load(path: str):
    return parse_diagram(read_text(path))


def _scheme(text: str) -> gi.ResolutionScheme:
    if text == "vassiliev":
        return gi.VASSILIEV
    if text == "casimir":
        return gi.CASIMIR_PLAIN
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("scheme must be vassiliev, casimir, or three "
                       "comma-separated polynomials a,b,c")
    a, b, c = (rf(parse_poly(p)) for p in parts)
    return gi.ResolutionScheme(a, b, c)


def _cmd_eval(args) -> int:
    print(z_eval(_load(args.file)).render())
    return 0


def _cmd_jones(args) -> int:
    print(p_eval(_load(args.file)).render())
    return 0


def _cmd_graph_eval(args) -> int:
    value = gi.eval_graph(_load(args.file), _scheme(args.scheme),
                          level=args.level)
    print(value.render())
    return 0


def _cmd_resolve(args) -> int:
    fs = gi.resolve_vertices(_load(args.file), _scheme(args.scheme))
    terms = fs.terms()
    print("terms: %d" % len(terms))
    for idx, (coeff, diag) in enumerate(terms):
        print("# term %d, coefficient %s" % (idx, coeff.render()))
        sys.stdout.write(serialize(diag, "term%d" % idx))
    return 0


def _cmd_vassiliev(args) -> int:
    rep = vs.vassiliev_series(_load(args.file), args.order)
    print(rep.series.render())
    print("vanishing order: %s"
          % ("none" if rep.vanishing_order is None
             else rep.vanishing_order))
    return 0


def _corpus(fn, *args):
    """fn(*args) with a bad manifest line or .td file as CliError."""
    try:
        return fn(*args)
    except (corpus_mod.CorpusError, sn.SpinNetError) as exc:
        raise CliError(str(exc)) from None


def _graphs_with_vertices():
    diagrams = _corpus(corpus_mod.corpus_diagrams)
    return sorted((name, d) for name, d in diagrams.items()
                  if d.vertices())


def _check_spinor(path: Optional[str]) -> int:
    targets = ([(path, _load(path))] if path else _graphs_with_vertices())
    bad = 0
    for name, g in targets:
        plain = [v for v, k in g.nodes if k == "Vert"]
        if path and not plain:
            raise CliError("%s has no plain vertex; check spinor checks "
                           "plain vertices only" % path)
        for v in plain:
            rep = gi.check_spinor(g, v)
            ok = rep["residual"].is_zero()
            bad += not ok
            print("%s %s vertex %s case %d residual: %s"
                  % ("PASS" if ok else "FAIL", name, v, rep["case"],
                     rep["residual"].render()))
    return 1 if bad else 0


def _quad_from_dir(path: str) -> dict:
    import glob
    quad = {}
    for label in ("N", "S", "E", "W"):
        hits = sorted(glob.glob(os.path.join(path, "*%s.dg" % label)))
        if len(hits) != 1:
            raise CliError("directory %s needs exactly one *%s.dg file"
                           % (path, label))
        quad[label] = _load(hits[0])
    return quad


def _check_four_term(path: Optional[str]) -> int:
    if path:
        quads = [(path, _quad_from_dir(path))]
    else:
        quads = [(closure, catalog.four_term_quadruple(closure))
                 for closure in catalog.CLOSURES]
    bad = 0
    for name, quad in quads:
        res = gi.check_four_term(quad["N"], quad["S"], quad["E"],
                                 quad["W"], gi.VASSILIEV)
        ok = res.is_zero()
        bad += not ok
        print("%s %s residual: %s" % ("PASS" if ok else "FAIL", name,
                                      res.render()))
    return 1 if bad else 0


def _check_fierz() -> int:
    rep = sn.check_fierz()
    print("PASS fierz" if rep["ok"] else
          "FAIL fierz: " + "; ".join(rep["failures"][:5]))
    rep2 = sn.check_spinor_tensor_identity()
    print("PASS tensor spinor identity" if rep2["ok"] else
          "FAIL tensor spinor identity")
    return 0 if rep["ok"] and rep2["ok"] else 1


def _check_projector() -> int:
    bad = 0
    for n in range(1, 5):
        rep = sn.check_projector(n)
        bad += not rep["ok"]
        print("%s projector n=%d skew_vanishes=%s"
              % ("PASS" if rep["ok"] else "FAIL", n,
                 rep["skew_vanishes"]))
    return 1 if bad else 0


def _check_reidemeister(path: Optional[str]) -> int:
    import random
    if path:
        targets = [(path, _load(path))]
    else:
        targets = sorted(_corpus(corpus_mod.corpus_diagrams).items())
    bad = 0
    for name, d in targets:
        skip = ("more than 6 crossings" if len(d.crossings()) > 6 else
                "a marked vertex" if any(k == "CVert" for _, k in d.nodes)
                else None)
        if skip and path:
            raise CliError("%s has %s; check reidemeister walks diagrams of "
                           "at most 6 crossings and no marked vertex"
                           % (path, skip))
        if skip:
            continue
        cur = mv.random_walk(d, 4, random.Random(sum(name.encode())))
        ok = gi.eval_graph(cur, gi.VASSILIEV) == gi.eval_graph(d, gi.VASSILIEV)
        bad += not ok
        print("%s %s move walk value unchanged" % ("PASS" if ok else "FAIL",
                                                   name))
    return 1 if bad else 0


def _cmd_check(args) -> int:
    what = args.what
    if what == "spinor":
        return _check_spinor(args.file)
    if what == "four-term":
        return _check_four_term(args.file)
    if what == "reidemeister":
        return _check_reidemeister(args.file)
    if args.file is not None:
        raise CliError("check %s takes no file; it checks fixed identities, "
                       "not a diagram" % what)
    if what == "fierz":
        return _check_fierz()
    if what == "projector":
        return _check_projector()
    raise CliError("unknown check %r" % what)


def _cmd_corpus(args) -> int:
    results = _corpus(corpus_mod.run_corpus, args.dir)
    for line in corpus_mod.report_lines(results):
        print(line)
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, the verbs' parsers too."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knotgraph",
        description="Exact bracket, writhe-corrected and rigid-vertex "
                    "graph invariants of diagram files.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="framed value Z of a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("jones", help="writhe-corrected value P")
    p.add_argument("file")
    p.set_defaults(func=_cmd_jones)

    p = sub.add_parser("graph-eval", help="vertex-graph invariant")
    p.add_argument("file")
    p.add_argument("--scheme", default="vassiliev",
                   help="vassiliev | casimir | a,b,c polynomials")
    p.add_argument("--level", default="p", choices=("p", "z"))
    p.set_defaults(func=_cmd_graph_eval)

    p = sub.add_parser("resolve", help="formal sum of vertex resolutions")
    p.add_argument("file")
    p.add_argument("--scheme", default="vassiliev")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("vassiliev", help="series expansion of the value")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=_cmd_vassiliev)

    p = sub.add_parser("check", help="run a named verification")
    p.add_argument("what", choices=("spinor", "four-term", "fierz",
                                    "projector", "reidemeister"))
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("corpus", help="run the shipped regression corpus")
    p.add_argument("--dir", default=None)
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DiagramError, RingError, CliError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
