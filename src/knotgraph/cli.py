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
from .bracket import LEVELS, p_eval, z_eval
from .diagram import DiagramError, read_diagram, serialize, whole_number
from .ring import RingError, parse_poly, rf


class CliError(ValueError):
    pass


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


def _order(text: str) -> int:
    """--order read by whole_number; argparse prints its message."""
    try:
        return whole_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _cmd_eval(args) -> int:
    print(z_eval(read_diagram(args.file)).render())
    return 0


def _cmd_jones(args) -> int:
    print(p_eval(read_diagram(args.file)).render())
    return 0


def _cmd_graph_eval(args) -> int:
    value = gi.eval_graph(read_diagram(args.file), _scheme(args.scheme),
                          level=args.level)
    print(value.render())
    return 0


def _cmd_resolve(args) -> int:
    fs = gi.resolve_vertices(read_diagram(args.file), _scheme(args.scheme))
    terms = fs.terms()
    print("terms: %d" % len(terms))
    for idx, (coeff, diag) in enumerate(terms):
        print("# term %d, coefficient %s" % (idx, coeff.render()))
        sys.stdout.write(serialize(diag, "term%d" % idx))
    return 0


def _cmd_vassiliev(args) -> int:
    rep = vs.vassiliev_series(read_diagram(args.file), args.order)
    print(rep.series.render())
    print("vanishing order: %s"
          % ("none" if rep.vanishing_order is None
             else rep.vanishing_order))
    return 0


def _targets(path: Optional[str], refusal, scope: str):
    """(name, diagram) of the FILE given, or of every corpus diagram.
    refusal(diagram) names what the check does not take, or is empty: a
    FILE with such a reason is an error, a corpus diagram is skipped."""
    for name, d in ([(path, read_diagram(path))] if path
                    else sorted(corpus_mod.corpus_diagrams().items())):
        reason = refusal(d)
        if reason and path:
            raise CliError("%s has %s; %s" % (path, reason, scope))
        if not reason:
            yield name, d


def _check_spinor(path: Optional[str]):
    for name, g in _targets(
            path, lambda g: "" if g.plain_vertices() else "no plain vertex",
            "check spinor checks plain vertices only"):
        for v in g.plain_vertices():
            rep = gi.check_spinor(g, v)
            yield rep["residual"].is_zero(), (
                "%s vertex %s case %d residual: %s"
                % (name, v, rep["case"], rep["residual"].render()))


def _quad_from_dir(path: str) -> dict:
    import glob
    if not os.path.isdir(path):
        raise CliError("%s is not a directory; check four-term reads a "
                       "directory of *N.dg, *S.dg, *E.dg and *W.dg files"
                       % path)
    quad = {}
    for label in ("N", "S", "E", "W"):
        hits = sorted(glob.glob(os.path.join(glob.escape(path),
                                                "*%s.dg" % label)))
        if len(hits) != 1:
            raise CliError("directory %s needs exactly one *%s.dg file"
                           % (path, label))
        quad[label] = read_diagram(hits[0])
    return quad


def _check_four_term(path: Optional[str]):
    quads = ([(path, _quad_from_dir(path))] if path else
             [(c, catalog.four_term_quadruple(c)) for c in catalog.CLOSURES])
    for name, quad in quads:
        res = gi.six_valent_eval(quad)["residual"]
        yield res.is_zero(), "%s residual: %s" % (name, res.render())


def _check_fierz():
    rep = sn.check_fierz()
    yield rep["ok"], "fierz" + (
        "" if rep["ok"] else ": " + "; ".join(rep["failures"][:5]))
    yield sn.check_spinor_tensor_identity()["ok"], "tensor spinor identity"


def _check_projector():
    for n in range(1, 5):
        rep = sn.check_projector(n)
        yield rep["ok"], ("projector n=%d skew_vanishes=%s"
                          % (n, rep["skew_vanishes"]))


def _check_reidemeister(path: Optional[str]):
    import random
    for name, d in _targets(path, lambda d: (
            "more than 6 crossings" if len(d.crossings()) > 6 else
            "a marked vertex" if any(k == "CVert" for _, k in d.nodes)
            else ""), "check reidemeister walks diagrams of at most 6 "
            "crossings and no marked vertex"):
        cur = mv.random_walk(d, 4, random.Random(sum(name.encode())))
        ok = gi.eval_graph(cur, gi.VASSILIEV) == gi.eval_graph(d, gi.VASSILIEV)
        yield ok, "%s move walk value unchanged" % name


# check name -> (generator of its (ok, text) rows, whether it takes a FILE)
_CHECKS = {
    "spinor": (_check_spinor, True),
    "four-term": (_check_four_term, True),
    "fierz": (_check_fierz, False),
    "projector": (_check_projector, False),
    "reidemeister": (_check_reidemeister, True),
}


def _cmd_check(args) -> int:
    """Prints each row of the check as it comes; 1 if any row failed."""
    fn, takes_file = _CHECKS[args.what]
    if args.file is not None and not takes_file:
        raise CliError("check %s takes no file; it checks fixed identities, "
                       "not a diagram" % args.what)
    bad = 0
    for ok, text in fn(args.file) if takes_file else fn():
        bad += not ok
        print("%s %s" % ("PASS" if ok else "FAIL", text))
    return 1 if bad else 0


def _cmd_corpus(args) -> int:
    results = corpus_mod.run_corpus(args.dir)
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
    p.add_argument("--level", default="p", choices=LEVELS)
    p.set_defaults(func=_cmd_graph_eval)

    p = sub.add_parser("resolve", help="formal sum of vertex resolutions")
    p.add_argument("file")
    p.add_argument("--scheme", default="vassiliev")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("vassiliev", help="series expansion of the value")
    p.add_argument("file")
    p.add_argument("--order", type=_order, default=4)
    p.set_defaults(func=_cmd_vassiliev)

    p = sub.add_parser("check", help="run a named verification")
    p.add_argument("what", choices=_CHECKS)
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
