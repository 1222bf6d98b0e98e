"""Closed spinor tensor diagrams over a 2-dimensional index space.

Diagrams are products of three tensor symbols: the identity delta (one
upper, one lower index), the lower epsilon and the upper epsilon, with
``eps[01] = -eps[10] = 1`` and every epsilon carrying a factor sqrt(-1).
Every index label must occur exactly twice, once upper and once lower,
so the factors form closed chains of 2x2 matrices, and a diagram's value
is the product of its chains' traces (Penrose 1971).

The module also provides formal sums of permutations (used to build
symmetrizers and skew-symmetrizers) and entrywise checks of the matrix
identities behind the Casimir insertion: the Fierz rearrangement for
su(2) generators, their structure constants and trace normalisation, and
the two-index symmetrizer constant.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .diagram import DiagramError, text_lines
from .ring import Value


class SpinNetError(DiagramError):
    pass


# --- exact complex rationals -------------------------------------------------


class GaussianRational(Value):
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0),
                 im: Fraction = Fraction(0)) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x))

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return Value.__eq__(self, other)

    def __hash__(self) -> int:
        # equal to a rational where im == 0, so hashed as that rational is
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def render(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "%s + %s*i" % (self.re, self.im)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))

DIM = 2

Matrix = Tuple[Tuple[GaussianRational, ...], ...]


def _times(x: Matrix, y: Matrix) -> Matrix:
    """The matrix product x y."""
    return tuple(tuple(sum((x[i][k] * y[k][j] for k in range(DIM)), GR_ZERO)
                       for j in range(DIM)) for i in range(DIM))


def _trace(x: Matrix) -> GaussianRational:
    return x[0][0] + x[1][1]


# --- tensor diagrams ---------------------------------------------------------

# sqrt(-1) * eps with eps[01] = -eps[10] = 1
_EPS = ((GR_ZERO, GR_I), (-GR_I, GR_ZERO))
# symbol -> its matrix where a chain enters it at its first slot, and
# where it enters at its second: the transpose
_CHAIN = {sym: (m, tuple(zip(*m))) for sym, m in (
    ("delta", ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE))),
    ("epsL", _EPS), ("epsU", _EPS))}
_SYMBOLS = tuple(_CHAIN)


class TensorDiagram(Value):
    """A product of factors (symbol, index1, index2): for "delta" index1
    is upper and index2 lower, "epsL" has two lower indices, "epsU" two
    upper."""

    __slots__ = ("factors",)

    @staticmethod
    def make(factors: Iterable[Sequence[str]]) -> "TensorDiagram":
        out = []
        for f in factors:
            if len(f) != 3 or f[0] not in _SYMBOLS:
                raise SpinNetError("bad tensor factor %r" % (f,))
            out.append((f[0], str(f[1]), str(f[2])))
        return TensorDiagram(tuple(out))

    def validate(self) -> None:
        """Each label in one upper and one lower slot."""
        upper: Dict[str, int] = {}
        lower: Dict[str, int] = {}
        for sym, i, j in self.factors:
            for k, up in ((i, sym != "epsL"), (j, sym == "epsU")):
                side = upper if up else lower
                side[k] = side.get(k, 0) + 1
        for name in dict.fromkeys(k for f in self.factors for k in f[1:]):
            if upper.get(name, 0) != 1 or lower.get(name, 0) != 1:
                raise SpinNetError(
                    "index %r must appear exactly once upper and once "
                    "lower" % name)


def eval_tensor_diagram(td: TensorDiagram) -> GaussianRational:
    """The product of one trace per closed chain of factors.  A chain
    leaves a factor at the slot it did not enter by, and that slot's label
    leads into the next factor, which is taken transposed where the chain
    enters it at its second slot."""
    td.validate()
    slots: Dict[str, List[Tuple[int, int]]] = {}
    for f, (_, i, j) in enumerate(td.factors):
        slots.setdefault(i, []).append((f, 0))
        slots.setdefault(j, []).append((f, 1))
    total, done = GR_ONE, set()
    for start, (sym, _, _) in enumerate(td.factors):
        if start in done:
            continue
        chain, f, into = _CHAIN[sym][0], start, 0
        while True:
            end, other = slots[td.factors[f][2 - into]]
            f, into = other if end == (f, 1 - into) else end
            if f == start:
                break
            done.add(f)
            chain = _times(chain, _CHAIN[td.factors[f][0]][into])
        total = total * _trace(chain)
    return total


def parse_tensor_diagram(text: str) -> TensorDiagram:
    """One factor per line: ``delta i j`` / ``epsL a b`` / ``epsU a b``;
    blank lines and ``#`` comments are skipped."""
    factors = []
    for lineno, raw in enumerate(text_lines(text), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in _SYMBOLS:
            raise SpinNetError("line %d: expected 'delta|epsL|epsU i j', "
                               "got %r" % (lineno, raw))
        factors.append(tuple(parts))
    return TensorDiagram.make(factors)


# --- formal sums of permutations ---------------------------------------------

PermT = Tuple[int, ...]


class PermElement(Value):
    """Rational linear combination of permutations of n strands."""

    __slots__ = ("n", "terms")

    @staticmethod
    def make(n: int, terms: Dict[PermT, Fraction]) -> "PermElement":
        clean = {}
        for perm, coeff in terms.items():
            perm = tuple(perm)
            if sorted(perm) != list(range(n)):
                raise SpinNetError("bad permutation %r for n=%d" % (perm, n))
            c = Fraction(coeff)
            if c:
                clean[perm] = clean.get(perm, Fraction(0)) + c
        items = tuple(sorted((p, c) for p, c in clean.items() if c))
        return PermElement(n, items)

    def compose(self, other: "PermElement") -> "PermElement":
        """(self . other): apply other first, then self."""
        if self.n != other.n:
            raise SpinNetError("mixed strand counts")
        out: Dict[PermT, Fraction] = {}
        for p1, c1 in self.terms:
            for p2, c2 in other.terms:
                comp = tuple(p1[p2[i]] for i in range(self.n))
                out[comp] = out.get(comp, Fraction(0)) + c1 * c2
        return PermElement.make(self.n, out)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("%s*[%s]" % (c, " ".join(map(str, p)))
                          for p, c in self.terms)

    def as_tensor_entry(self, outs: Sequence[int],
                        ins: Sequence[int]) -> Fraction:
        """Matrix entry of the element acting on n dimension-2 slots:
        each permutation routes input slot i to output slot perm[i]."""
        total = Fraction(0)
        for perm, coeff in self.terms:
            if all(outs[perm[i]] == ins[i] for i in range(self.n)):
                total += coeff
        return total

    def is_zero_tensor(self) -> bool:
        return all(self.as_tensor_entry(outs, ins) == 0
                   for outs in itertools.product(range(DIM), repeat=self.n)
                   for ins in itertools.product(range(DIM), repeat=self.n))


def _perm_sign(perm: PermT) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _projector(n: int, sign: Callable[[PermT], int]) -> PermElement:
    """(1/n!) sum of all permutations p of n strands, each times sign(p)."""
    if not 1 <= n <= 5:
        raise SpinNetError("strand count %d out of range 1..5" % n)
    coeff = Fraction(1, math.factorial(n))
    return PermElement.make(
        n, {p: coeff * sign(p) for p in itertools.permutations(range(n))})


def symmetrizer(n: int) -> PermElement:
    """(1/n!) sum of all permutations of n strands."""
    return _projector(n, lambda p: 1)


def antisymmetrizer(n: int) -> PermElement:
    """(1/n!) signed sum of all permutations of n strands."""
    return _projector(n, _perm_sign)


def check_projector(n: int) -> dict:
    """Idempotence of both projectors; for n >= 3 the skew-symmetrizer
    vanishes identically on the 2-dimensional index space."""
    if n > 4:
        raise SpinNetError("projector check limited to n <= 4")
    failures: List[str] = []
    sym = symmetrizer(n)
    skew = antisymmetrizer(n)
    if sym.compose(sym) != sym:
        failures.append("symmetrizer(%d) not idempotent" % n)
    if skew.compose(skew) != skew:
        failures.append("antisymmetrizer(%d) not idempotent" % n)
    vanishes = skew.is_zero_tensor()
    if n >= 3 and not vanishes:
        failures.append("antisymmetrizer(%d) nonzero on dimension 2" % n)
    if n < 3 and vanishes:
        failures.append("antisymmetrizer(%d) unexpectedly zero" % n)
    return {"n": n, "skew_vanishes": vanishes, "failures": failures,
            "ok": not failures}


# --- su(2) generators and the Fierz rearrangement ----------------------------

_HALF = Fraction(1, 2)

# Pauli matrices sigma_1, sigma_2, sigma_3
_PAULI = (
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ZERO, -GR_I), (GR_I, GR_ZERO)),
    ((GR_ONE, GR_ZERO), (GR_ZERO, -GR_ONE)),
)


def generators() -> Tuple[Matrix, ...]:
    """T_a = sigma_a / 2 for a = 1, 2, 3."""
    half = GaussianRational(_HALF)
    return tuple(tuple(tuple(half * x for x in row) for row in s)
                 for s in _PAULI)


def _eps3(a: int, b: int, c: int) -> int:
    """Totally antisymmetric symbol on three letters, eps(0,1,2) = 1."""
    perm = (a, b, c)
    if sorted(perm) != [0, 1, 2]:
        return 0
    return _perm_sign(perm)


def check_fierz() -> dict:
    """Entrywise checks of the generator identities:

    - sum_a (T_a)_ij (T_a)_kl = 1/2 d_il d_jk - 1/4 d_ij d_kl
    - [T_a, T_b] = i eps_abc T_c
    - Tr(T_a T_b) = 1/2 d_ab
    - two-slot symmetrizer entry = 1/2 (d d + d d)
    """
    ts = generators()
    failures: List[str] = []
    for i, j, k, l in itertools.product(range(DIM), repeat=4):
        lhs = GR_ZERO
        for t in ts:
            lhs = lhs + t[i][j] * t[k][l]
        rhs = (GaussianRational(_HALF * (i == l) * (j == k))
               - GaussianRational(Fraction(1, 4) * (i == j) * (k == l)))
        if lhs != rhs:
            failures.append("fierz entry (%d,%d,%d,%d)" % (i, j, k, l))
    for a in range(3):
        for b in range(3):
            ab, ba = _times(ts[a], ts[b]), _times(ts[b], ts[a])
            for i, j in itertools.product(range(DIM), repeat=2):
                rhs = GR_ZERO
                for c in range(3):
                    rhs = rhs + GR_I * _eps3(a, b, c) * ts[c][i][j]
                if ab[i][j] - ba[i][j] != rhs:
                    failures.append("commutator (%d,%d) entry (%d,%d)"
                                    % (a + 1, b + 1, i, j))
            if _trace(ab) != GaussianRational(_HALF * (a == b)):
                failures.append("trace (%d,%d)" % (a + 1, b + 1))
    sym2 = symmetrizer(2)
    for i, j, k, l in itertools.product(range(DIM), repeat=4):
        want = _HALF * ((i == k) * (j == l) + (i == l) * (j == k))
        if sym2.as_tensor_entry((i, j), (k, l)) != want:
            failures.append("symmetrizer entry (%d,%d,%d,%d)" % (i, j, k, l))
    return {"fierz_coefficients": (_HALF, -Fraction(1, 4)),
            "failures": failures, "ok": not failures}


def check_spinor_tensor_identity() -> dict:
    """i eps^{ab} i eps_{cd} - d^a_d d^b_c + d^a_c d^b_d = 0 for all 16
    index assignments; the tensor-level face of the diagrammatic strand
    identity."""
    failures: List[str] = []
    for a, b, c, d in itertools.product(range(DIM), repeat=4):
        val = (_EPS[a][b] * _EPS[c][d]
               - GaussianRational(Fraction((a == d) * (b == c)))
               + GaussianRational(Fraction((a == c) * (b == d))))
        if not val.is_zero():
            failures.append("assignment (%d,%d,%d,%d)" % (a, b, c, d))
    return {"failures": failures, "ok": not failures}
