"""Finite-type invariants as series coefficients.

Substituting A = exp(h) into the writhe-normalised graph invariant with
the (1, -1, 0) vertex weights turns it into a power series in h; the
coefficient of h^i is an order-i invariant, and a graph with j vertices
kills every coefficient below order j.  The normalisation by the
component count divides the polynomial value's series by a unit series,
never through a gcd of rational functions.
"""

from __future__ import annotations

from typing import List

from . import catalog
from .diagram import Diagram
from .graphinv import VASSILIEV, eval_graph
from .ring import DELTA_POS, RingError, Value, poly_series

MAX_ORDER = 200     # order 200 takes at most 0.2 s on a graph of 18 nodes


class VassilievReport(Value):
    """A truncated series and its vanishing order: the index of its first
    nonzero coefficient, None if it is zero to the whole truncation."""

    __slots__ = ("series", "vanishing_order")

    def vanishes_below(self, j: int) -> bool:
        return self.vanishing_order is None or self.vanishing_order >= j


def vassiliev_series(g: Diagram, order: int) -> VassilievReport:
    """Series of the invariant divided by (A^2 + A^-2)^(components - 1),
    so that every crossingless diagram gives the constant series 1.  The
    component count is shared by all resolutions of a graph, so the
    normalisation rescales the whole alternating sum by one unit series
    and leaves vanishing orders untouched.  The Vassiliev weights are
    polynomials, so the value is one too, and its series is divided by
    the power's, a unit series starting at 2^(components - 1), with no
    gcd of polynomials.  Raises RingError for an order outside
    0..MAX_ORDER."""
    if not 0 <= order <= MAX_ORDER:
        raise RingError("order %d is outside 0..%d" % (order, MAX_ORDER))
    value = eval_graph(g, VASSILIEV, level="p").as_poly()
    unit = DELTA_POS ** (g.components() - 1)
    s = poly_series(value, order).divide(poly_series(unit, order))
    return VassilievReport(series=s, vanishing_order=s.valuation())


def vanishing_order_check(j: int, order: int = 4) -> dict:
    """Check that every corpus graph with j vertices has a series
    vanishing below order j."""
    graphs = {
        1: ["G_a_vertex", "G_a_composite", "G_b_vertex"],
        2: ["ga_2vert", "gb_2vert", "ft_N", "ft_S", "ft_E", "ft_W",
            "ft_plain_N", "ft_clasp2_N"],
        3: ["flower3"],
    }
    if j not in graphs:
        raise ValueError("no corpus graphs with %d vertices" % j)
    failures: List[str] = []
    reports = {}
    for name in graphs[j]:
        rep = vassiliev_series(catalog.named_diagram(name), order)
        reports[name] = rep
        if not rep.vanishes_below(j):
            failures.append(name)
    return {"j": j, "reports": reports, "failures": failures}
