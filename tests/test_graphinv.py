"""Tests for vertex resolution, the trace-identity and decomposition
checks, and the four-term relation."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_vertex_graph
from oracles import crossing_sign
from knotgraph import catalog
from knotgraph.bracket import closed_value, p_eval, z_eval
from knotgraph.diagram import Diagram, DiagramError, replace_kind, serialize
from knotgraph.graphinv import (CASIMIR_MARKED, CASIMIR_PLAIN, VASSILIEV,
                                C1, C2, FormalSum, ResolutionScheme,
                                casimir_decompose, check_four_term,
                                check_spinor, derive_prop31, eval_graph,
                                eval_with_casimir_marks, resolve_vertices,
                                six_valent_eval, vertex_case,
                                vertex_reversed_unfold, vertex_to_crossing,
                                vertex_unfold)
from knotgraph.ring import (A, A_INV, ONE, RF_ZERO, LaurentPoly, parse_poly,
                           rf)

ONE_VERTEX = ("G_a_vertex", "G_a_composite", "G_b_vertex")


def test_vertex_to_crossing_signs():
    for name in ONE_VERTEX:
        g = catalog.named_diagram(name)
        v = g.vertices()[0]
        pos = vertex_to_crossing(g, v, +1)
        neg = vertex_to_crossing(g, v, -1)
        assert crossing_sign(pos, v) == 1
        assert crossing_sign(neg, v) == -1
        assert pos.writhe() - neg.writhe() == 2


def test_vertex_unfold_merges_or_splits_loops():
    ga = catalog.named_diagram("G_a_vertex")       # self-intersection
    gb = catalog.named_diagram("G_b_vertex")       # two loops
    assert vertex_case(ga, ga.vertices()[0]) == 1
    assert vertex_case(gb, gb.vertices()[0]) == 2
    assert vertex_unfold(ga, ga.vertices()[0]).components() == 2
    assert vertex_unfold(gb, gb.vertices()[0]).components() == 1


def test_reversed_unfold_is_valid():
    for name in ONE_VERTEX + ("ga_2vert", "gb_2vert", "flower3"):
        g = catalog.named_diagram(name)
        for v in g.vertices():
            h = vertex_reversed_unfold(g, v)
            assert h.validate() == []
            assert len(h.vertices()) == len(g.vertices()) - 1


# (graph, vertex) -> (case, the reversed unfold as diagram text); frozen
_REVERSED_UNFOLDS = {
    ("G_a_vertex", "v0"): (1, "loop 1\n"),
    ("ga_2vert", "v0"): (1, "node v1 Vert\narc v1.0 -> v1.3\n"
                            "arc v1.1 -> v1.2\n"),
    ("ga_2vert", "v1"): (1, "node v0 Vert\narc v0.0 -> v0.3\n"
                            "arc v0.1 -> v0.2\n"),
    ("G_b_vertex", "n0"): (2, "node n1 XPos\narc n1.1 -> n1.0\n"
                              "arc n1.2 -> n1.3\n"),
    ("gb_2vert", "n0"): (2, "node n1 Vert\narc n1.1 -> n1.0\n"
                            "arc n1.2 -> n1.3\n"),
    ("gb_2vert", "n1"): (2, "node n0 Vert\narc n0.1 -> n0.0\n"
                            "arc n0.2 -> n0.3\n"),
}


@pytest.mark.parametrize("name,v", _REVERSED_UNFOLDS)
def test_reversed_unfold_of_the_reference_graphs(name, v):
    g = catalog.named_diagram(name)
    case, text = _REVERSED_UNFOLDS[name, v]
    assert vertex_case(g, v) == case
    assert serialize(vertex_reversed_unfold(g, v), "r") == "diagram r\n" + text


def test_formal_sum_merges_equal_diagrams():
    d = catalog.named_diagram("kink+")
    fs = FormalSum()
    fs.add(rf(parse_poly("A")), d)
    fs.add(rf(parse_poly("A^-1")), d)
    assert len(fs.terms()) == 1
    assert fs.terms()[0][0] == rf(parse_poly("A + A^-1"))
    fs.add(rf(parse_poly("-1*A + -1*A^-1")), d)
    assert fs.terms() == []


def test_resolution_term_counts():
    g = catalog.named_diagram("flower3")
    assert len(resolve_vertices(g, VASSILIEV).terms()) <= 8
    fs = resolve_vertices(g, ResolutionScheme(
        rf(parse_poly("1")), rf(parse_poly("1")), rf(parse_poly("1"))))
    assert all(not c.is_zero() for c, _ in fs.terms())


def test_eval_is_linear_in_the_scheme():
    rng = random.Random(31)
    for _ in range(10):
        g = random_vertex_graph(rng, steps=1)
        if len(g.vertices()) != 1:
            continue
        v = g.vertices()[0]
        a = rf(parse_poly("A^2"))
        b = rf(parse_poly("-3"))
        c = rf(parse_poly("1/2*A^-1"))
        combo = eval_graph(g, ResolutionScheme(a, b, c))
        # compare against the by-hand weighted sum of normalised values
        from knotgraph.bracket import p_eval
        byhand = (a * rf(p_eval(vertex_to_crossing(g, v, +1)))
                  + b * rf(p_eval(vertex_to_crossing(g, v, -1)))
                  + c * rf(p_eval(vertex_unfold(g, v))))
        assert combo == byhand


# the Vassiliev and plain Casimir schemes, a three-branch scheme with a
# nonzero unfold weight, the custom scheme of acceptance criterion 3, and
# a scheme whose denominator 3A + 1 leaves Fraction coefficients in the
# tables and leads other than +-1 in the gcd
SCHEMES = (
    VASSILIEV, CASIMIR_PLAIN,
    ResolutionScheme(rf(A), rf(ONE.scale(2)), rf(A_INV.scale(-3))),
    ResolutionScheme(rf(parse_poly("A^2 + 1")), rf(parse_poly("-1/2*A^-1")),
                     rf(parse_poly("3"))),
    ResolutionScheme(rf(ONE, parse_poly("3*A + 1")), rf(ONE.scale(2)),
                     RF_ZERO),
)


def test_local_tables_match_the_resolution_sum():
    for g in _local_table_graphs():
        for scheme in SCHEMES:
            fs = resolve_vertices(g, scheme)
            assert eval_graph(g, scheme, level="p") == fs.evaluate(p_eval)
            assert eval_graph(g, scheme, level="z") == fs.evaluate(z_eval)


def _local_table_graphs():
    """The graphs of test_local_tables_match_the_resolution_sum."""
    rng = random.Random(41)
    graphs = [catalog.named_diagram(n) for n in
              ("G_a_vertex", "G_b_vertex", "ga_2vert", "gb_2vert", "flower3")]
    return graphs + [random_vertex_graph(rng, steps=rng.randint(0, 3))
                     for _ in range(12)]


def test_levels_p_and_z_keep_their_values():
    """Every value at levels p and z on those graphs under SCHEMES, its
    render lines frozen as one sha256 digest, and gb_2vert's written out."""
    digest = hashlib.sha256()
    for g in _local_table_graphs():
        for scheme in SCHEMES:
            for level in ("p", "z"):
                digest.update((eval_graph(g, scheme, level=level).render()
                               + "\n").encode())
    assert digest.hexdigest() == ("e4995e1c6c95798e34e10d4628fe8e0f"
                                  "360b7bb8bb048f2a74d6e8b121376290")
    g = catalog.named_diagram("gb_2vert")
    assert eval_graph(g, VASSILIEV, level="p").render() == (
        "A^10 + -1*A^2 + -1*A^-2 + A^-10")
    assert eval_graph(g, VASSILIEV, level="z").render() == (
        "2*A^4 + -2*A^2 + -2*A^-2 + 2*A^-4")


@pytest.mark.parametrize("level", ["P", "", "q"])
def test_an_unknown_level_is_refused(level):
    """A level other than 'p' or 'z' is one DiagramError that names it,
    never the value of another level."""
    message = "level %r is not in ('z', 'p')" % level
    g = catalog.named_diagram("gb_2vert")
    with pytest.raises(DiagramError) as exc:
        eval_graph(g, VASSILIEV, level=level)
    assert str(exc.value) == message
    for d, schemes in ((g, {"Vert": VASSILIEV.over_one_den}),
                       (catalog.named_diagram("trefoil+"), {})):
        with pytest.raises(DiagramError) as exc:
            closed_value(d, schemes, level)
        assert str(exc.value) == message


def test_evaluation_does_not_validate_again(monkeypatch):
    """A Diagram is checked when it is built, so evaluating one checks
    nothing again."""
    rng = random.Random(47)
    graphs = [catalog.named_diagram(n)
              for n in ("G_a_vertex", "gb_2vert", "flower3")]
    graphs += [random_vertex_graph(rng) for _ in range(4)]
    marked = [replace_kind(g, g.vertices()[0], "CVert") for g in graphs]
    links = [catalog.named_diagram(n)
             for n in ("trefoil+", "hopf-", "figure-eight", "two-circles")]
    calls = []
    validate = Diagram.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Diagram, "validate", counted)
    for d in links:
        z_eval(d)
        p_eval(d)
    for g in graphs:
        for scheme in SCHEMES:
            for level in ("p", "z"):
                eval_graph(g, scheme, level=level)
    for g in graphs + marked:
        eval_with_casimir_marks(g)
    assert calls == []
    catalog.named_diagram("hopf+")      # the count does see a construction
    assert len(calls) == 1


def test_marked_vertex_matches_its_expansion():
    """A marked vertex expanded by hand with the marked weights, the rest
    resolved through the plain Casimir resolution sum."""
    rng = random.Random(43)
    checked = 0
    for _ in range(12):
        g = random_vertex_graph(rng, steps=rng.randint(0, 2))
        v = rng.choice(g.vertices())
        marked = replace_kind(g, v, "CVert")
        byhand = RF_ZERO
        for weight, branch in (
                (CASIMIR_MARKED.a, vertex_to_crossing(g, v, +1)),
                (CASIMIR_MARKED.b, vertex_to_crossing(g, v, -1)),
                (CASIMIR_MARKED.c, vertex_unfold(g, v))):
            fs = resolve_vertices(branch, CASIMIR_PLAIN)
            byhand = byhand + weight * fs.evaluate(z_eval)
        assert eval_with_casimir_marks(marked) == byhand
        frame = rf(LaurentPoly.monomial(-3 * g.writhe()))
        assert eval_with_casimir_marks(marked) * frame == byhand * frame
        checked += 1
    assert checked == 12


def test_resolution_order_does_not_matter():
    # resolving is defined vertex-by-vertex; the result must not depend on
    # node naming, checked by evaluating a renamed copy
    g = catalog.named_diagram("gb_2vert")
    renamed = catalog.named_diagram("gb_2vert")
    from knotgraph.diagram import Diagram
    rename = {"n0": "z9", "n1": "a0"}
    renamed = Diagram.make({rename[i]: k for i, k in g.nodes},
                           [((rename[a], p), (rename[b], q))
                            for (a, p), (b, q) in g.arcs], g.free_loops)
    for scheme in (VASSILIEV, CASIMIR_PLAIN):
        assert eval_graph(g, scheme) == eval_graph(renamed, scheme)


def test_resolution_applies_the_node_cap(monkeypatch):
    """resolve_vertices refuses a graph above the cap that eval_graph
    applies, with the same error, and expands one at the cap."""
    g = catalog.named_diagram("flower3")
    monkeypatch.setenv("MAX_CROSSINGS", "2")
    with pytest.raises(DiagramError) as refused:
        resolve_vertices(g, VASSILIEV)
    with pytest.raises(DiagramError) as expected:
        eval_graph(g, VASSILIEV)
    assert str(refused.value) == str(expected.value)
    monkeypatch.setenv("MAX_CROSSINGS", "3")
    assert resolve_vertices(g, VASSILIEV).evaluate(p_eval) == eval_graph(g)


def test_resolution_applies_its_limit():
    """Under (A, 2, -3A^-1) no weight vanishes, so 8 vertices make 3^8
    resolved diagrams, above the limit of 4096; the Vassiliev scheme
    makes 2^8 and expands them."""
    g = catalog._petal_chain(8)
    general = ResolutionScheme(rf(A), rf(LaurentPoly.const(2)),
                               rf(A_INV.scale(-3)))
    with pytest.raises(DiagramError, match="6561 resolved diagrams"):
        resolve_vertices(g, general)
    assert resolve_vertices(g, VASSILIEV).evaluate(p_eval) == eval_graph(g)


def test_marked_vertices_only_in_marked_evaluation():
    g = catalog.named_diagram("G_b_cvert")
    with pytest.raises(DiagramError):
        resolve_vertices(g, VASSILIEV)
    val = eval_with_casimir_marks(g)
    assert val == rf(parse_poly("1/4*A^3 + -1/4*A^-3"))


def test_plain_casimir_values():
    assert eval_graph(catalog.named_diagram("G_b_vertex"), CASIMIR_PLAIN,
                      level="z") == rf(parse_poly("A^3 + A^-3"))
    assert eval_graph(catalog.named_diagram("G_a_vertex"), CASIMIR_PLAIN,
                      level="z") == rf(parse_poly("A^2 + -1 + A^-2"))


def test_trace_identity_on_corpus_graphs():
    for name in ONE_VERTEX + ("case1_vertex", "case2_vertex",
                              "ga_2vert", "gb_2vert", "flower3"):
        g = catalog.named_diagram(name)
        for v in g.vertices():
            rep = check_spinor(g, v)
            assert rep["residual"].is_zero(), (name, v)


def test_trace_identity_refuses_a_marked_vertex():
    g = catalog.named_diagram("G_b_cvert")
    with pytest.raises(DiagramError, match="n0 is not a plain vertex"):
        check_spinor(g, "n0")
    with pytest.raises(DiagramError, match="no plain vertex"):
        check_spinor(g)


def test_trace_identity_covers_both_cases():
    cases = set()
    for name in ("case1_vertex", "case2_vertex"):
        g = catalog.named_diagram(name)
        cases.add(check_spinor(g)["case"])
    assert cases == {1, 2}


def test_trace_identity_on_randomised_graphs():
    rng = random.Random(32)
    for _ in range(10):
        g = random_vertex_graph(rng, steps=1)
        v = rng.choice([v for v in g.vertices()
                        if g.node_map()[v] == "Vert"])
        assert check_spinor(g, v)["residual"].is_zero()


def test_decomposition_constants():
    assert C1 == rf(parse_poly("-1/2*A^4 + -1/2*A^2 + 1/2*A^-2 + 1/2*A^-4"))
    assert C2 == rf(parse_poly("2*A^4 + -2*A^2 + 2*A^-2 + -2*A^-4"))


def test_decomposition_on_one_vertex_graphs():
    for name in ONE_VERTEX:
        rep = casimir_decompose(catalog.named_diagram(name))
        assert rep["difference"].is_zero(), name
        assert rep["pos_residual"].is_zero(), name
        assert rep["neg_residual"].is_zero(), name


def test_decomposition_rejects_other_graphs():
    with pytest.raises(DiagramError):
        casimir_decompose(catalog.named_diagram("gb_2vert"))
    with pytest.raises(DiagramError):
        casimir_decompose(catalog.named_diagram("G_b_cvert"))


def test_coefficient_solve():
    a1, a2 = derive_prop31()
    assert a1 == rf(parse_poly("2*A^2 + -4 + 2*A^-2"))
    assert a2 == rf(parse_poly("1/2*A^2 + 1 + 1/2*A^-2"))
    # the two coefficients satisfy the defining linear relation
    assert a2 - a1.scale(Fraction(1, 4)) == rf(ONE.scale(2))


def test_four_term_relation():
    for closure in ("plain", "clasp", "clasp2"):
        quad = catalog.four_term_quadruple(closure)
        res = check_four_term(quad["N"], quad["S"], quad["E"], quad["W"])
        assert res.is_zero(), closure


def test_four_term_relation_on_seeded_closures():
    """The Vassiliev residual vanishes on triple-point quadruples closed
    by 0-6 random clasps over ordered pairs of the strands a, b and c.
    Negative control: the (A, 2, -3A^-1) scheme is no Vassiliev scheme,
    and a quarter or more of its residuals are nonzero."""
    general = ResolutionScheme(rf(A), rf(ONE.scale(2)),
                               rf(A_INV.scale(-3)))
    rng = random.Random(29)
    nonzero = 0
    for _ in range(60):
        clasps = [tuple(rng.sample("abc", 2))
                  for _ in range(rng.randint(0, 6))]
        quad = [catalog._triple_core(on, side, clasps)
                for on, side in (("a", "above"), ("a", "below"),
                                 ("b", "above"), ("b", "below"))]
        assert check_four_term(*quad).is_zero(), clasps
        nonzero += not check_four_term(*quad, general).is_zero()
    assert nonzero >= 15


def test_four_term_fails_for_mismatched_quadruples():
    quad = catalog.four_term_quadruple("clasp")
    res = check_four_term(quad["N"], quad["S"], quad["E"], quad["N"])
    assert not res.is_zero()


def test_six_valent_routes_agree():
    for closure in ("plain", "clasp", "clasp2"):
        rep = six_valent_eval(catalog.four_term_quadruple(closure))
        assert rep["residual"].is_zero()
        assert rep["value"] == rep["route1"] == rep["route2"]


def test_six_valent_requires_full_quadruple():
    quad = catalog.four_term_quadruple("clasp")
    del quad["W"]
    with pytest.raises(DiagramError):
        six_valent_eval(quad)


def test_marked_scheme_constants():
    # the marked weights are the plain ones with the sign split and the
    # denominator A - A^-1 scaled by 4
    assert CASIMIR_MARKED.a == -CASIMIR_MARKED.b
    assert CASIMIR_PLAIN.a == CASIMIR_PLAIN.b
    assert CASIMIR_MARKED.c == RF_ZERO == CASIMIR_PLAIN.c
