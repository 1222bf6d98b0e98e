"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not.  The expected values come from the braid word (component
count, writhe) and from relations of the bracket, not from a second run
of the code under test, except where a check names its oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from knotgraph import bracket, graphinv
from knotgraph.ring import (A, A_INV, ONE, LaurentPoly, RationalFunc,
                            series_at_exp)

from perfbench.gen import Braid, Item

NAIVE_MAX = 10   # items this small are also compared with bracket_naive


def at_one(value) -> Fraction:
    """Value at A = 1 of a LaurentPoly or a RationalFunc."""
    if isinstance(value, RationalFunc):
        return value.num.eval_at_one() / value.den.eval_at_one()
    return value.eval_at_one()


# --- links ------------------------------------------------------------------

def torus_z(n: int) -> LaurentPoly:
    """Z of the closure of sigma_1^n from the crossing-replacement
    recurrence A*Z(T_n) - A^-1*Z(T_{n-2}) = (A^2 - A^-2)*Z(T_{n-1}),
    starting at two circles (loop value A^2 + A^-2) and a positive curl
    (A^3), with ring arithmetic only."""
    z = [A * A + A_INV * A_INV, A * A * A]
    y = A * A - A_INV * A_INV
    while len(z) <= n:
        z.append((y * z[-1] + A_INV * z[-2]) * A_INV)
    return z[n]


def check_link(item: Item, p: LaurentPoly, diagram) -> Optional[str]:
    """`p` is the item's p_eval output."""
    b = item.braid
    if not isinstance(p, LaurentPoly):
        return "not a LaurentPoly: %r" % (p,)
    want = Fraction(2) ** (b.components() - 1)
    if p.eval_at_one() != want:
        return "P(1) = %s, want 2^(c-1) = %s" % (p.eval_at_one(), want)
    w = b.writhe()
    z = LaurentPoly.monomial(3 * w) * p
    if item.op == "torus":
        n = len(b.word)
        expect = torus_z(n)
        if b.word[0][1] < 0:
            expect = expect.substitute_inverse()
        if z != expect:
            return "torus recurrence broken at n=%d" % n
    if len(b.word) <= NAIVE_MAX and z != bracket.bracket_naive(diagram):
        return "differs from bracket_naive"
    return None


# --- graphs -----------------------------------------------------------------

GENERAL = graphinv.ResolutionScheme(
    RationalFunc.make(A), RationalFunc.make(ONE.scale(2)),
    RationalFunc.make(A_INV.scale(-3)))


def general_at_one(b: Braid) -> Fraction:
    """The (A, 2, -3A^-1) value at A = 1: both crossings of a vertex keep
    the closure's permutation and weigh 1 + 2; the unfold keeps the
    strands in place and weighs -3.  Each resolved link has P(1) =
    2^(c-1)."""
    total = Fraction(0)
    k = len(b.vertices)
    for mask in range(1 << k):
        unfolded = [v for bit, v in enumerate(b.vertices) if mask >> bit & 1]
        total += (Fraction(3) ** (k - len(unfolded))
                  * Fraction(-3) ** len(unfolded)
                  * Fraction(2) ** (b.components(unfolded) - 1))
    return total


def check_graph(item: Item, value) -> Optional[str]:
    b = item.braid
    if item.op == "series8":
        v = value.vanishing_order
        if v is not None and v < item.k:
            return "series valuation %d below vertex count %d" % (v, item.k)
        return None
    if not isinstance(value, RationalFunc):
        return "not a RationalFunc: %r" % (value,)
    one = at_one(value)
    if item.op == "vassiliev_p":
        if one != 0:
            return "Vassiliev value at A=1 is %s, not 0" % one
        v = series_at_exp(value, item.k).valuation()
        if v is not None and v < item.k:
            return "series valuation %d below vertex count %d" % (v, item.k)
    elif item.op == "casimir_z":
        want = Fraction(2) ** (b.components() - 1)
        if one != want:
            return "Casimir value at A=1 is %s, want %s" % (one, want)
    elif item.op == "general_p":
        want = general_at_one(b)
        if one != want:
            return "general value at A=1 is %s, want %s" % (one, want)
    return None


def graph_oracle(item: Item, graph) -> object:
    """The same value by resolve_vertices(...).evaluate(...), the
    per-resolution route, for the seeded sample."""
    scheme, fn = {
        "vassiliev_p": (graphinv.VASSILIEV, bracket.p_eval),
        "casimir_z": (graphinv.CASIMIR_PLAIN, bracket.z_eval),
        "general_p": (GENERAL, bracket.p_eval),
    }[item.op]
    return graphinv.resolve_vertices(graph, scheme).evaluate(fn)


# --- cli --------------------------------------------------------------------

_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?(-?)A(?:\^(-?\d+))?$")


def parse_rendered_poly(text: str) -> Fraction:
    """Value at A = 1 of a rendered LaurentPoly (``c*A^e + ...``)."""
    total = Fraction(0)
    if text == "0":
        return total
    for term in text.split(" + "):
        m = _TERM.match(term)
        if m:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            total += -coeff if m.group(2) else coeff
        else:
            total += Fraction(term)
    return total


def rendered_at_one(text: str) -> Fraction:
    """Value at A = 1 of a rendered LaurentPoly or ``(num)/(den)``."""
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return parse_rendered_poly(num) / parse_rendered_poly(den)
    return parse_rendered_poly(text)


def check_cli(item: Item, rc: int, out: str, err: str) -> Optional[str]:
    if rc != 0:
        return "exit code %d" % rc
    if "error:" in out or "error:" in err or "Traceback" in err:
        return "error output: %s" % (err or out).strip()[-200:]
    lines = out.splitlines()
    if not lines:
        return "no output"
    verb = item.argv[0]
    b = item.braid
    if verb in ("eval", "jones"):
        want = Fraction(2) ** (b.components() - 1)
        if rendered_at_one(lines[0]) != want:
            return "P(1) != 2^(c-1)"
    elif verb == "graph-eval":
        want = (Fraction(0) if "casimir" not in item.argv
                else Fraction(2) ** (b.components() - 1))
        if rendered_at_one(lines[0]) != want:
            return "value at A=1 is not %s" % want
    elif verb == "resolve":
        m = re.match(r"terms: (\d+)$", lines[0])
        n = int(m.group(1)) if m else -1
        if not 1 <= n <= 2 ** item.k or out.count("# term ") != n:
            return "bad term count"
    elif verb == "vassiliev":
        m = re.match(r"vanishing order: (none|\d+)$", lines[-1])
        if not m or (m.group(1) != "none" and int(m.group(1)) < item.k):
            return "series vanishes below the vertex count"
    elif verb == "check":
        if any(not line.startswith("PASS") for line in lines):
            return "a check did not pass"
    elif verb == "corpus":
        if not re.match(r"(\d+)/\1 corpus entries passed$", lines[-1]) \
                or "51/51" not in lines[-1]:
            return "corpus: %s" % lines[-1]
    return None
