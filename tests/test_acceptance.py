"""End-to-end acceptance checks.

Each test covers one numbered criterion, verifies it with exact
arithmetic, and prints a single PASS/FAIL line.  Randomised criteria use
fixed seeds so runs are reproducible.
"""

import os
import random
import subprocess
import sys

from conftest import random_braid_link, random_vertex_graph, raw
from knotgraph import catalog
from knotgraph.bracket import bracket_naive, p_eval, z_eval
from knotgraph.corpus import corpus_diagrams, run_corpus
from knotgraph.diagram import Diagram, replace_kind
from knotgraph.graphinv import (CASIMIR_PLAIN, VASSILIEV, ResolutionScheme,
                                casimir_decompose, check_four_term,
                                check_spinor, derive_prop31, eval_graph,
                                six_valent_eval, vertex_to_crossing,
                                vertex_unfold)
from knotgraph.moves import KINK_VARIANTS, applicable_moves, apply_move, r1_plus
from knotgraph.ring import A, A_INV, DELTA_POS, ONE, parse_poly, rf
from knotgraph.spinnet import (antisymmetrizer, check_fierz, check_projector,
                               check_spinor_tensor_identity, symmetrizer)
from knotgraph.vassiliev import vanishing_order_check, vassiliev_series

from fractions import Fraction


def _criterion(num, desc, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_reference_values():
    expect = {
        "unknot": ("z", "1"),
        "two-circles": ("z", "A^2 + A^-2"),
        "kink+": ("z", "A^3"),
        "kink-": ("z", "A^-3"),
        "hopf+": ("z", "A^4 + A^-4"),
        "hopf-": ("z", "A^4 + A^-4"),
        "trefoil+": ("z", "A^5 + A^-3 + -1*A^-7"),
        "trefoil-": ("z", "-1*A^7 + A^3 + A^-5"),
        "figure-eight": ("z", "A^8 + -1*A^4 + 1 + -1*A^-4 + A^-8"),
        "trefoil+_alt": ("p", "A^-4 + A^-12 + -1*A^-16"),
    }
    ok = True
    for name, (level, text) in expect.items():
        fn = z_eval if level == "z" else p_eval
        ok = ok and fn(catalog.named_diagram(name)) == parse_poly(text)
    # the two-loop vertex graph and its four companion values
    g = catalog.named_diagram("G_b_vertex")
    v = g.vertices()[0]
    ok = ok and z_eval(vertex_to_crossing(g, v, +1)) == parse_poly("A^4 + A^-4")
    ok = ok and z_eval(vertex_to_crossing(g, v, -1)) == parse_poly("A^2 + A^-2")
    ok = ok and eval_graph(g, CASIMIR_PLAIN, level="z") == \
        rf(parse_poly("A^3 + A^-3"))
    ok = ok and z_eval(vertex_unfold(g, v)) == parse_poly("A^3")
    _criterion(1, "frozen reference values reproduced exactly", ok)


def test_criterion_02_local_relations_on_200_sites():
    rng = random.Random(101)
    ok = True
    amam = A * A - A_INV * A_INV
    for _ in range(100):   # crossing replacement relation
        d = random_braid_link(rng)
        c = rng.choice(d.crossings())
        g = replace_kind(d, c, "Vert")
        lhs = A * raw(vertex_to_crossing(g, c, +1)) \
            - A_INV * raw(vertex_to_crossing(g, c, -1))
        ok = ok and lhs == amam * raw(vertex_unfold(g, c))
    for _ in range(60):    # curl relation
        d = random_braid_link(rng)
        variant = rng.choice(sorted(KINK_VARIANTS))
        sign = 1 if variant.startswith("+") else -1
        kinked = r1_plus(d, rng.choice(d.arcs), variant)
        ok = ok and z_eval(kinked) == \
            z_eval(d) * parse_poly("A^%d" % (3 * sign))
    for _ in range(40):    # disjoint circle relation
        d = random_braid_link(rng)
        plus = Diagram.make(d.node_map(), d.arcs, d.free_loops + 1)
        ok = ok and z_eval(plus) == z_eval(d) * DELTA_POS
    _criterion(2, "crossing/curl/circle relations on 200 randomized sites",
               ok)


def test_criterion_03_move_invariance_200_trials():
    rng = random.Random(102)
    ok = True
    for _ in range(200):   # link diagrams under curl/slide/triangle moves
        d = random_braid_link(rng)
        before = p_eval(d)
        cur = d
        for _ in range(2):
            cand = [m for m in applicable_moves(cur)
                    if m.move in ("R1+", "R1-", "R2+", "R2-", "R3")]
            if len(cur.crossings()) >= 6:
                cand = [m for m in cand if m.move not in ("R1+", "R2+")]
            if not cand:
                break
            cur = apply_move(cur, rng.choice(cand))
        ok = ok and p_eval(cur) == before
    custom = ResolutionScheme(rf(parse_poly("A^2 + 1")),
                              rf(parse_poly("-1/2*A^-1")),
                              rf(parse_poly("3")))
    schemes = (VASSILIEV, CASIMIR_PLAIN, custom)
    for trial in range(200):   # vertex graphs under all five moves
        g = random_vertex_graph(rng, steps=1)
        scheme = schemes[trial % 3]
        before = eval_graph(g, scheme)
        cand = applicable_moves(g)
        if len(g.crossings()) >= 5:
            cand = [m for m in cand if m.move not in ("R1+", "R2+")]
        cur = apply_move(g, rng.choice(cand)) if cand else g
        ok = ok and eval_graph(cur, scheme) == before
    _criterion(3, "value invariance under 400 randomized diagram moves", ok)


def test_criterion_04_engines_agree_on_corpus():
    ok = True
    for name, d in corpus_diagrams().items():
        if len(d.crossings()) + len(d.vertices()) > 8:
            continue
        for kind in ("XPos", "XNeg"):
            g = d
            for v in d.vertices():
                g = replace_kind(g, v, kind)
            ok = ok and z_eval(g) == bracket_naive(g)
    _criterion(4, "dynamic-programming and naive evaluators agree on the "
                  "corpus", ok)


def test_criterion_05_resolution_coefficients():
    a1, a2 = derive_prop31()
    ok = a1 == rf(parse_poly("2*A^2 + -4 + 2*A^-2"))
    ok = ok and a2 == rf(parse_poly("1/2*A^2 + 1 + 1/2*A^-2"))
    # the defining linear relation between the two coefficients
    ok = ok and a2 - a1.scale(Fraction(1, 4)) == rf(ONE.scale(2))
    _criterion(5, "solved resolution coefficients match the closed forms",
               ok)


def test_criterion_06_trace_identity_both_cases():
    ok = True
    cases = set()
    for name, d in corpus_diagrams().items():
        plain = [v for v in d.vertices() if d.node_map()[v] == "Vert"]
        if not plain or len(d.vertices()) > 2:
            continue
        for v in plain:
            rep = check_spinor(d, v)
            cases.add(rep["case"])
            ok = ok and rep["residual"].is_zero()
    ok = ok and cases == {1, 2}
    _criterion(6, "vertex trace identity holds for self-intersections and "
                  "two-loop vertices", ok)


def test_criterion_07_casimir_decomposition():
    ok = True
    for name in ("G_a_vertex", "G_a_composite", "G_b_vertex"):
        rep = casimir_decompose(catalog.named_diagram(name))
        ok = ok and rep["difference"].is_zero()
        ok = ok and rep["pos_residual"].is_zero()
        ok = ok and rep["neg_residual"].is_zero()
        ok = ok and rep["C1"] == rf(parse_poly(
            "-1/2*A^4 + -1/2*A^2 + 1/2*A^-2 + 1/2*A^-4"))
        ok = ok and rep["C2"] == rf(parse_poly(
            "2*A^4 + -2*A^2 + 2*A^-2 + -2*A^-4"))
    _criterion(7, "vertex decomposition and crossing recovery are exact",
               ok)


def test_criterion_08_four_term_relation():
    ok = True
    for closure in ("plain", "clasp", "clasp2"):
        quad = catalog.four_term_quadruple(closure)
        ok = ok and check_four_term(quad["N"], quad["S"], quad["E"],
                                    quad["W"]).is_zero()
        rep = six_valent_eval(quad)
        ok = ok and rep["residual"].is_zero()
        ok = ok and rep["route1"] == rep["route2"] == rep["value"]
    _criterion(8, "four-term relation and matching slide routes on all "
                  "quadruples", ok)


def test_criterion_09_finite_type_vanishing():
    ok = True
    for j in (1, 2, 3):
        ok = ok and vanishing_order_check(j)["failures"] == []
    for name in ("unknot", "two-circles", "kink-", "hopf+", "trefoil+",
                 "figure-eight"):
        rep = vassiliev_series(catalog.named_diagram(name), 2)
        ok = ok and rep.series.coeffs[0] == 1
    _criterion(9, "series vanish below the vertex count and start at 1 "
                  "for links", ok)


def test_criterion_10_tensor_identities():
    ok = check_spinor_tensor_identity()["ok"]
    fz = check_fierz()
    ok = ok and fz["ok"]
    ok = ok and fz["fierz_coefficients"] == (Fraction(1, 2),
                                             -Fraction(1, 4))
    ok = ok and antisymmetrizer(3).is_zero_tensor()
    for n in range(1, 5):
        ok = ok and check_projector(n)["ok"]
        s, a = symmetrizer(n), antisymmetrizer(n)
        ok = ok and s.compose(s) == s and a.compose(a) == a
    _criterion(10, "matrix and tensor identities verified entrywise", ok)


def test_criterion_11_deterministic_output():
    env = dict(os.environ)
    cmd = [sys.executable, "-c",
           "from knotgraph.cli import main; raise SystemExit(main(['corpus']))"]
    outs = []
    for seed in ("0", "12345"):
        env["PYTHONHASHSEED"] = seed
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        outs.append((r.returncode, r.stdout))
    ok = outs[0] == outs[1] and outs[0][0] == 0
    results = run_corpus()
    ok = ok and all(r.passed for r in results)
    ok = ok and run_corpus() == results
    _criterion(11, "corpus output is bit-identical across processes and "
                   "hash seeds", ok)
