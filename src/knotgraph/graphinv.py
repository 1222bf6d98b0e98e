"""Graph invariants from vertex resolution schemes.

A rigid vertex stands for a weighted combination of a positive crossing,
a negative crossing and the oriented smoothing (the unfold); the weight
triples give the Vassiliev, plain Casimir and marked Casimir extensions
of the bracket.  bracket.closed_value evaluates a graph in one
contraction, each vertex one node whose table combines the three
choices.  A scheme puts its weights over one common denominator when it
is built, as kernel terms, so the vertex tables, the contraction and the
final division by the product of the denominators all stay in ring's
integer kernel; a RationalFunc is built only for the value returned.
resolve_vertices and FormalSum build the explicit sum of resolved link
diagrams, for the resolve verb and as the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import catalog
from .bracket import check_size, closed_value, z_eval
from .diagram import (Diagram, DiagramError, crossing_kind, path_to_reentry,
                      replace_kind, splice_node, vertex_ports)
from .ring import (A, A_INV, DELTA_POS, ONE, LaurentPoly, RationalFunc,
                   RF_ONE, RF_ZERO, Terms, Value, _terms, poly_exact_div, rf,
                   rf_from_terms)


class ResolutionScheme(Value):
    """The weights of the positive-crossing (a), negative-crossing (b) and
    unfold (c) replacements of a vertex; over_one_den holds (den, a, b, c)
    as kernel terms, the weights being a/den, b/den, c/den."""

    _fields = ("a", "b", "c")
    __slots__ = _fields + ("over_one_den",)

    def __init__(self, a: RationalFunc, b: RationalFunc,
                 c: RationalFunc) -> None:
        Value.__init__(self, a, b, c)
        den = ONE
        for d in {a.den, b.den, c.den}:
            den = den * d
        weights = [poly_exact_div(f.num * den, f.den) for f in (a, b, c)]
        object.__setattr__(self, "over_one_den",
                           tuple(_terms(p) for p in [den] + weights))


VASSILIEV = ResolutionScheme(RF_ONE, rf(-ONE), RF_ZERO)

_APA = A + A_INV          # A + A^-1
_AMA = A - A_INV          # A - A^-1
CASIMIR_PLAIN = ResolutionScheme(rf(ONE, _APA), rf(ONE, _APA), RF_ZERO)
CASIMIR_MARKED = ResolutionScheme(rf(ONE, _AMA.scale(4)),
                                  rf(-ONE, _AMA.scale(4)), RF_ZERO)


class FormalSum:
    """Finite linear combination of diagrams with rational-function
    coefficients; equal diagrams (up to renumbering) are merged."""

    def __init__(self) -> None:
        self._terms: Dict[str, Tuple[RationalFunc, Diagram]] = {}

    def add(self, coeff: RationalFunc, d: Diagram) -> None:
        key = d.canonical_form()
        if key in self._terms:
            old, _ = self._terms[key]
            coeff = old + coeff
        if coeff.is_zero():
            self._terms.pop(key, None)
        else:
            self._terms[key] = (coeff, d)

    def terms(self) -> List[Tuple[RationalFunc, Diagram]]:
        return [self._terms[k] for k in sorted(self._terms)]

    def evaluate(self, value_fn) -> RationalFunc:
        total = RF_ZERO
        for coeff, d in self.terms():
            total = total + coeff * rf(value_fn(d))
        return total


# --- single-vertex surgeries ------------------------------------------------


def vertex_to_crossing(g: Diagram, v: str, sign: int) -> Diagram:
    """Replace a vertex by the crossing of the given sign (the local
    strands keep their roles; only the over/under choice is made)."""
    return replace_kind(g, v, crossing_kind(vertex_ports(g, v), sign))


def vertex_unfold(g: Diagram, v: str) -> Diagram:
    """Replace a vertex by the oriented smoothing: each incoming strand
    continues along the other strand's outgoing port."""
    p = vertex_ports(g, v)
    return splice_node(g, v, {p["in_a"]: p["out_b"], p["in_b"]: p["out_a"]})


def vertex_case(g: Diagram, v: str) -> int:
    """1 if both strands through the vertex lie on one closed loop
    (a self-intersection), 2 if they lie on two different loops."""
    p = vertex_ports(g, v)
    _, reentry = path_to_reentry(g, v, p["out_b"])
    return 1 if reentry == p["in_a"] else 2


def vertex_reversed_unfold(g: Diagram, v: str) -> Diagram:
    """The other unfolding: reverse the strand piece leaving the vertex's
    1-3 strand until it re-enters the vertex, then smooth.  For a
    self-intersection this reverses a sub-arc of the loop; for two loops
    it reverses the whole second loop."""
    p = vertex_ports(g, v)
    path, reentry = path_to_reentry(g, v, p["out_b"])
    other_in = p["in_b"] if reentry == p["in_a"] else p["in_a"]
    return splice_node(g, v, {other_in: reentry, p["out_b"]: p["out_a"]},
                       path)


# --- resolution and evaluation ----------------------------------------------

RESOLVE_LIMIT = 4096    # resolved diagrams: 2^12, or 3^7 if no weight is 0


def resolve_vertices(g: Diagram, s: ResolutionScheme) -> FormalSum:
    """The sum of resolved link diagrams, up to k^v of them for v
    vertices and k nonzero weights.  Raises DiagramError for a marked
    vertex, then above the node cap, then for k^v above RESOLVE_LIMIT."""
    if any(k == "CVert" for _, k in g.nodes):
        raise DiagramError(
            "marked vertices present; use the marked evaluation instead")
    check_size(g)
    count = sum(not w.is_zero() for w in (s.a, s.b, s.c)) ** len(g.vertices())
    if count > RESOLVE_LIMIT:
        raise DiagramError("up to %d resolved diagrams, above the limit %d"
                           % (count, RESOLVE_LIMIT))
    out = FormalSum()
    _expand(g, RF_ONE, s, out)
    return out


def _expand(g: Diagram, coeff: RationalFunc, s: ResolutionScheme,
            out: FormalSum) -> None:
    vs = g.vertices()
    if not vs:
        out.add(coeff, g)
        return
    v = vs[0]
    if not s.a.is_zero():
        _expand(vertex_to_crossing(g, v, +1), coeff * s.a, s, out)
    if not s.b.is_zero():
        _expand(vertex_to_crossing(g, v, -1), coeff * s.b, s, out)
    if not s.c.is_zero():
        _expand(vertex_unfold(g, v), coeff * s.c, s, out)


def eval_graph(g: Diagram, s: ResolutionScheme = VASSILIEV,
               level: str = "p") -> RationalFunc:
    """The graph's value in one contraction, each vertex a node with s's
    table: level 'p' is writhe-normalised (the move invariant), 'z' the
    framed bracket; any other level raises DiagramError."""
    return rf_from_terms(*closed_value(g, {"Vert": s.over_one_den}, level))


def eval_with_casimir_marks(g: Diagram) -> RationalFunc:
    """Evaluate a graph whose vertices may carry the mark: plain vertices
    resolve with weights (1, 1, 0)/(A + A^-1), marked ones with
    (1, -1, 0)/(4(A - A^-1)).  The result is at bracket (Z) level."""
    return rf_from_terms(*closed_value(
        g, {"Vert": CASIMIR_PLAIN.over_one_den,
            "CVert": CASIMIR_MARKED.over_one_den}, "z"))


# --- identity checks --------------------------------------------------------


def check_spinor(g: Diagram, vertex: Optional[str] = None) -> dict:
    """Trace identity at a plain vertex (the graph's first one if none is
    named): the graph value equals the unfold value plus (two loops) or
    minus (self-intersection) the reversed-unfold value, all at bracket
    (Z) level with any other vertices resolved by the Casimir weights.
    Raises DiagramError for a vertex that is not plain: a marked vertex
    obeys casimir_decompose instead."""
    plain = g.plain_vertices()
    if vertex is None:
        if not plain:
            raise DiagramError("no plain vertex to check")
        vertex = plain[0]
    elif vertex not in plain:
        raise DiagramError("%s is not a plain vertex; the trace identity "
                           "holds at plain vertices only" % vertex)
    case = vertex_case(g, vertex)
    val_g = eval_with_casimir_marks(g)
    val_u = eval_with_casimir_marks(vertex_unfold(g, vertex))
    val_r = eval_with_casimir_marks(vertex_reversed_unfold(g, vertex))
    rhs = val_u - val_r if case == 1 else val_u + val_r
    return {
        "vertex": vertex,
        "case": case,
        "graph": val_g,
        "unfold": val_u,
        "reversed_unfold": val_r,
        "residual": val_g - rhs,
    }


# constants of the vertex decomposition
_Y = LaurentPoly.from_dict({2: Fraction(1), -2: Fraction(-1)})    # A^2 - A^-2
C1 = rf((_Y * (DELTA_POS + ONE)).scale(Fraction(-1, 2)))
C2 = rf((_Y * (DELTA_POS - ONE)).scale(2))


def casimir_decompose(g: Diagram) -> dict:
    """For a one-vertex graph, compare the Vassiliev-scheme value with
    its expression through the plain and marked evaluations, and check
    that the crossing values are recovered from the two evaluations."""
    vs = g.vertices()
    if len(vs) != 1 or g.node_map()[vs[0]] != "Vert":
        raise DiagramError("expected exactly one plain vertex")
    v = vs[0]
    lhs = eval_graph(g, VASSILIEV, level="p")
    f_plain = eval_with_casimir_marks(g)
    f_marked = eval_with_casimir_marks(replace_kind(g, v, "CVert"))
    x = rf(DELTA_POS)
    y = rf(_Y)
    alpha_w = rf(LaurentPoly.monomial(-3 * g.writhe()))
    bracket = f_marked.scale(2) - (x + RF_ONE) / (x - RF_ONE) * f_plain.scale(Fraction(1, 2))
    rhs = alpha_w * (x - RF_ONE) * y * bracket
    # recover the crossing brackets from the two evaluations
    z_pos = z_eval(vertex_to_crossing(g, v, +1))
    z_neg = z_eval(vertex_to_crossing(g, v, -1))
    apa = rf(_APA)
    ama = rf(_AMA)
    rec_pos = apa.scale(Fraction(1, 2)) * f_plain + ama.scale(2) * f_marked
    rec_neg = apa.scale(Fraction(1, 2)) * f_plain - ama.scale(2) * f_marked
    return {
        "vertex": v,
        "lhs": lhs,
        "rhs": rhs,
        "difference": lhs - rhs,
        "C1": C1,
        "C2": C2,
        "plain": f_plain,
        "marked": f_marked,
        "pos_residual": rec_pos - rf(z_pos),
        "neg_residual": rec_neg - rf(z_neg),
    }


def check_four_term(n: Diagram, s: Diagram, e: Diagram, w: Diagram,
                    scheme: ResolutionScheme = VASSILIEV) -> RationalFunc:
    """The four-term residual P(N) - P(S) + P(E) - P(W): six_valent_eval's
    residual of the quadruple, zero for matched quadruples."""
    return six_valent_eval({"N": n, "S": s, "E": e, "W": w},
                           scheme)["residual"]


def six_valent_eval(quad: Dict[str, Diagram],
                    scheme: ResolutionScheme = VASSILIEV) -> dict:
    """Invariant of a triple point from its four two-vertex resolutions:
    the routes P(N) - P(S) and P(W) - P(E) past it must agree, and their
    difference is the four-term residual."""
    for k in ("N", "S", "E", "W"):
        if k not in quad:
            raise DiagramError("quadruple is missing diagram %r" % k)
    route1 = eval_graph(quad["N"], scheme) - eval_graph(quad["S"], scheme)
    route2 = eval_graph(quad["W"], scheme) - eval_graph(quad["E"], scheme)
    return {
        "route1": route1,
        "route2": route2,
        "residual": route1 - route2,
        "value": route1,
    }


def derive_prop31() -> Tuple[RationalFunc, RationalFunc]:
    """Solve for the two resolution coefficients from the two reference
    graphs: A*Z(+) + A^-1*Z(-) = x*Z(vertex) + y*Z(unfold) with
    x = a2 - a1/4 and y = a1/2."""
    rows = []
    for name in ("G_a_vertex", "G_b_vertex"):
        g = catalog.named_diagram(name)
        v = g.vertices()[0]
        zp = rf(z_eval(vertex_to_crossing(g, v, +1)))
        zn = rf(z_eval(vertex_to_crossing(g, v, -1)))
        zv = eval_with_casimir_marks(g)
        zu = rf(z_eval(vertex_unfold(g, v)))
        lhs = rf(A) * zp + rf(A_INV) * zn
        rows.append((zv, zu, lhs))
    (m11, m12, r1), (m21, m22, r2) = rows
    det = m11 * m22 - m12 * m21
    x = (r1 * m22 - r2 * m12) / det
    y = (m11 * r2 - m21 * r1) / det
    a1 = y.scale(2)
    a2 = x + y.scale(Fraction(1, 2))
    return a1, a2
