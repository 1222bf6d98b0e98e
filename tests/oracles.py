"""Independent values for links far above bracket_naive's reach.

Each oracle reads only a diagram or a pair of numbers, never the
contraction engine, so it checks the engine at any size:

- torus_jones: Jones's closed form for the torus knot T(p, q),
  V = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
  (Jones, Annals of Math. 126, 1987), written in A with t = A^-4, the
  substitution under which it equals p_eval of a positive braid_closure
  word.
- fox_determinant: the determinant of a link, the absolute value of a
  first minor of its Fox colouring matrix (Lickorish, "An Introduction
  to Knot Theory", 1997).  It equals |V(-1)|, that is |P(zeta)| for
  zeta = e^(i pi / 4), which value_at_zeta_squared gives exactly.
- polyak_viro_c2: the second coefficient c2 of the Conway polynomial of
  a knot by the Polyak-Viro Gauss-diagram formula (Polyak and Viro,
  IMRN 1994 no. 11), read off gauss_code.  With A = exp(h), the h^2
  coefficient of the knot's P is -48 c2.
- well_formed: whether nodes, arcs and a free loop count make a well
  formed diagram, by counting each port's uses and in/out roles.  It
  uses nothing of knotgraph.diagram, so it checks Diagram.validate.
- tensor_value: the value of a closed spinor tensor diagram, summed over
  every {0,1} assignment of its index labels.  It reads plain
  (symbol, i, j) tuples and uses nothing of knotgraph.spinnet, so it
  checks the chain walk of eval_tensor_diagram up to about 12 labels.
- crossing_sign: +1 or -1 for a crossing from the directions of its two
  strands, read off the arcs and the node's kind, so it checks
  Diagram.writhe's parity rule.
- sl2_weight: the sl2 weight system in the 2-dimensional representation
  of the chord diagram a Gauss code gives, each chord carrying the
  Casimir t = P - 1/2 on V (x) V.  For a knot with j of its crossings
  drawn as rigid vertices, the h^j coefficient of the graph's z value
  under VASSILIEV is 2^(2j-1) times it, and lower ones vanish.
- poly_series and fraction_quotient_series: the series of a Laurent
  polynomial, and of a quotient of two, under A = exp(h), in Fraction
  arithmetic throughout: each series expanded term by term, the common
  h-valuation cancelled, then long division.  It checks the integer
  routine ring.quotient_series.
"""

import itertools
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from knotgraph.diagram import Diagram
from knotgraph.ring import LaurentPoly, Series


def torus_jones(p: int, q: int) -> LaurentPoly:
    """Jones's closed form for T(p, q), p and q coprime, with t = A^-4."""
    top = p + q
    num = [0] * (top + 1)           # 1 - t^(p+1) - t^(q+1) + t^(p+q)
    num[0] += 1
    num[p + 1] -= 1
    num[q + 1] -= 1
    num[top] += 1
    quot = [0] * (top - 1)          # num / (1 - t^2): q_k = n_k + q_(k-2)
    for k in range(top - 1):
        quot[k] = num[k] + (quot[k - 2] if k >= 2 else 0)
    assert num[top - 1] + quot[top - 3] == 0 and num[top] + quot[top - 2] == 0
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly.from_dict({-4 * (k + shift): c
                                  for k, c in enumerate(quot) if c})


def crossing_sign(d: Diagram, node: str) -> int:
    """+1 or -1 for a crossing node, 0 for a vertex.  Port p points at
    p * 90 degrees; the over strand pairs ports 0-2 at XPos and 1-3 at
    XNeg; the crossing is positive where the under strand leaves 90
    degrees counterclockwise of the over strand."""
    kind = dict(d.nodes)[node]
    if kind not in ("XPos", "XNeg"):
        return 0
    outs = {p for (n, p), _ in d.arcs if n == node}
    over = 0 if kind == "XPos" else 1
    out_over = over if over in outs else over + 2
    out_under = 1 - over if 1 - over in outs else 3 - over
    return 1 if (out_under - out_over) % 4 == 1 else -1


def value_at_zeta_squared(poly: LaurentPoly) -> int:
    """|P(zeta)|^2 for zeta = e^(i pi / 4).  A link's P has only even
    powers of A, so P(zeta) = X + iY with zeta^2 = i and X, Y integers."""
    parts = [0, 0, 0, 0]            # coefficients of 1, i, -1, -i
    for e, c in poly.as_dict().items():
        assert e % 2 == 0 and c.denominator == 1, "not a link's value"
        parts[(e // 2) % 4] += int(c)
    x, y = parts[0] - parts[2], parts[1] - parts[3]
    return x * x + y * y


def _bareiss(rows: List[List[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [row[:] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def fox_determinant(d: Diagram) -> int:
    """The determinant of a link diagram without vertices.  Its Wirtinger
    arcs run from one under-passage to the next; crossing x gives the row
    2 over - under-in - under-out.  A free loop, or a component that never
    passes under, can be lifted off the rest: the link is split and its
    determinant is 0."""
    if d.free_loops:
        return 0 if d.nodes or d.free_loops > 1 else 1
    ins, outs = d.in_ports(), d.out_ports()
    index = {arc: i for i, arc in enumerate(d.arcs)}
    parent = list(range(len(d.arcs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows = []
    for x, kind in d.nodes:
        over = (0, 2) if kind == "XPos" else (1, 3)
        under = (1, 3) if kind == "XPos" else (0, 2)
        over_in = over[0] if (x, over[0]) in ins else over[1]
        under_in = under[0] if (x, under[0]) in ins else under[1]
        # the over strand continues one Wirtinger arc through x
        a = find(index[ins[(x, over_in)]])
        b = find(index[outs[(x, (over_in + 2) % 4)]])
        parent[a] = b
        rows.append((ins[(x, over_in)], ins[(x, under_in)],
                     outs[(x, (under_in + 2) % 4)]))
    column: Dict[int, int] = {}
    for i in range(len(d.arcs)):
        column.setdefault(find(i), len(column))
    if len(column) != len(rows):
        return 0
    matrix = []
    for over, under_in, under_out in rows:
        row = [0] * len(column)
        row[column[find(index[over])]] += 2
        row[column[find(index[under_in])]] -= 1
        row[column[find(index[under_out])]] -= 1
        matrix.append(row[:-1])
    return abs(_bareiss(matrix[:-1]))


def gauss_code(d: Diagram) -> List[Tuple[str, bool]]:
    """The crossings of a knot diagram in the order its strand meets them
    from the head of its first arc, each as (node, passes over)."""
    outs, kinds = d.out_ports(), d.node_map()
    code = []
    arc = d.arcs[0]
    for _ in d.arcs:
        x, p = arc[1]
        code.append((x, (p % 2 == 0) == (kinds[x] == "XPos")))
        arc = outs[(x, (p + 2) % 4)]
    assert arc == d.arcs[0], "not a knot"
    return code


def polyak_viro_c2(code: List[Tuple[str, bool]], sign: Dict[str, int]) -> int:
    """The sum of sign[a] * sign[b] over the pairs of crossings that the
    code meets in the order a under, b over, a over, b under."""
    under = {x: i for i, (x, over) in enumerate(code) if not over}
    over = {x: i for i, (x, over) in enumerate(code) if over}
    return sum(sign[a] * sign[b] for a in under for b in under
               if under[a] < over[b] < over[a] < under[b])


def well_formed(nodes: List[Tuple[str, str]],
                arcs: List[Tuple[Tuple[str, int], Tuple[str, int]]],
                loops: int) -> bool:
    """Whether (id, kind) nodes, (tail, head) arcs of (id, port) ends and a
    free loop count make a diagram: each id once with one of the four
    kinds, each of its ports 0-3 at exactly one arc end, no other end, on
    each strand (ports 0 and 2, ports 1 and 3) one tail and one head, and
    no negative loop count."""
    ids = [i for i, _ in nodes]
    if any(ids.count(i) > 1 for i in ids) or any(
            k not in ("XPos", "XNeg", "Vert", "CVert") for _, k in nodes):
        return False
    roles: Dict[Tuple[str, int], List[str]] = {
        (i, p): [] for i in ids for p in range(4)}
    for tail, head in arcs:
        for end, role in ((tail, "out"), (head, "in")):
            if end not in roles:
                return False
            roles[end].append(role)
    if any(len(r) != 1 for r in roles.values()):
        return False
    return loops >= 0 and all(
        sorted(roles[(i, a)] + roles[(i, a + 2)]) == ["in", "out"]
        for i in ids for a in (0, 1))


def tensor_value(factors: Sequence[Tuple[str, str, str]]) -> complex:
    """Sum over every {0,1} assignment of the labels of the product of
    the factors' entries: delta is the identity, and epsL and epsU are
    sqrt(-1) times eps, eps[01] = -eps[10] = 1.  Every entry is 0, 1 or
    +-sqrt(-1), so the complex arithmetic is exact."""
    eps = ((0, 1j), (-1j, 0))
    entry = {"delta": ((1, 0), (0, 1)), "epsL": eps, "epsU": eps}
    names = sorted({k for _, i, j in factors for k in (i, j)})
    total = 0
    for values in itertools.product((0, 1), repeat=len(names)):
        at = dict(zip(names, values))
        prod = 1
        for sym, i, j in factors:
            prod *= entry[sym][at[i]][at[j]]
            if not prod:
                break
        total += prod
    return complex(total)


def sl2_weight(chords: Sequence[str],
               identity: Fraction = Fraction(-1, 2)) -> Fraction:
    """The sum over subsets S of the j chords of
    identity^(j - |S|) * 2^cycles(S), where chords lists the chord ends
    in the order the circle meets them (each name twice, j >= 1) and
    cycles(S) counts the circles left after the two strands are swapped
    at each chord in S.  Each chord so carries P + identity on V (x) V,
    dim V = 2; the Casimir is P - 1/2."""
    n = len(chords)
    partner: Dict[int, int] = {}
    first: Dict[str, int] = {}
    for i, c in enumerate(chords):
        if c in first:
            partner[i], partner[first[c]] = first[c], i
        else:
            first[c] = i
    total = Fraction(0)
    for size in range(len(first) + 1):
        for subset in itertools.combinations(sorted(first), size):
            swapped = set(subset)
            seen: set = set()
            cycles = 0
            for start in range(n):
                cycles += start not in seen
                i = start
                while i not in seen:
                    seen.add(i)
                    i = ((partner[i] if chords[i] in swapped else i) + 1) % n
            total += identity ** (len(first) - size) * 2 ** cycles
    return total


def poly_series(p: LaurentPoly, order: int) -> Series:
    """p under A = exp(h) to h^order: the coefficient of h^n is the sum
    of c * e^n / n! over the terms c*A^e."""
    return Series(order, tuple(
        sum((c * e ** n for e, c in p.terms), Fraction(0)) / factorial(n)
        for n in range(order + 1)))


def fraction_quotient_series(num: LaurentPoly, den: LaurentPoly,
                             order: int) -> Optional[Series]:
    """num/den (den nonzero) under A = exp(h) to h^order, None for a pole
    at h = 0.  Both are expanded past the order by den's number of terms
    less one, which bounds the multiplicity of den's root at A = 1
    (Hajos's lemma), so den's h-valuation v lies within the expansion;
    v is cancelled, then the series are divided term by term."""
    extra = order + len(den.terms) - 1
    s = poly_series(num, extra).coeffs
    t = poly_series(den, extra).coeffs
    v = next(i for i, c in enumerate(t) if c)
    if any(s[:v]):
        return None
    s, t = s[v:], t[v:]
    out: List[Fraction] = []
    for i in range(order + 1):
        out.append((s[i] - sum((t[j] * out[i - j] for j in range(1, i + 1)),
                               Fraction(0))) / t[0])
    return Series(order, tuple(out))
