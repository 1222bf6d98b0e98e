"""Exact arithmetic in one formal variable A.

Three layers live here:

  * LaurentPoly  -- finite maps exponent -> Fraction, no zero entries.
  * RationalFunc -- canonical quotients of two LaurentPolys.
  * Series       -- truncated power series in h, where A = exp(h).

Everything is immutable and hashable so values can be memoised and
shared freely.

Beneath them lies the one Laurent kernel: a plain dict from exponent
to coefficient (an int, or a Fraction where the coefficient is
non-integral), with `_times`, a `_divmod` that cancels the top term and
a `_gcd` built on it.  LaurentPoly multiplication, polynomial division,
the canonical form of RationalFunc and the bracket engine all use it.
`rf_from_terms` is that canonical form on kernel terms: RationalFunc.make
calls it, and so does graph evaluation, whose values never leave the
kernel before it.

A Series comes from one routine, `quotient_series`, which expands a
quotient of Laurent polynomials in integers and builds each coefficient
as one Fraction; `series_at_exp` and the Vassiliev series both call it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from operator import attrgetter
from typing import Dict, Mapping, Sequence, Tuple, Union


class RingError(ValueError):
    pass


class Value:
    """An immutable value.  A subclass names its fields in __slots__ (or in
    _fields, where a slot after them holds a value derived from them).
    The constructor here stores the fields, given in order or by name; a
    subclass that defaults, checks or derives a field writes its own
    __init__, which sets a slot with object.__setattr__.  Values of one
    class are equal when their fields are; a value hashes as the tuple of
    its fields and shows as Name(field=value, ...)."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields += vars(cls).get("__slots__", ())
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(get if len(cls._fields) > 1
                                    else lambda v: (get(v),))

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named:       # the fields after those given in order, by name
            values += tuple(named.pop(name) for name in fields[len(values):]
                            if name in named)
        if named or len(values) != len(fields):
            raise TypeError("%s() takes the fields %s, each once" % (
                self.__class__.__qualname__, ", ".join(fields)))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        # copy and pickle rebuild a value from its fields, not by setattr
        return self.__class__, self._astuple(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to attribute %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete attribute %r" % name)


def _clean(terms: Mapping[int, Fraction]) -> Tuple[Tuple[int, Fraction], ...]:
    out = []
    for e in sorted(terms, reverse=True):
        c = Fraction(terms[e])
        if c != 0:
            out.append((int(e), c))
    return tuple(out)


class LaurentPoly(Value):
    """A Laurent polynomial in A with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[int, Fraction], ...] = ()) -> None:
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(d: Mapping[int, Fraction]) -> "LaurentPoly":
        return LaurentPoly(_clean(d))

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly.from_dict({0: Fraction(c)})

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: Fraction(coeff)})

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return LaurentPoly(_clean(d))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_clean(_times(_terms(self), _terms(other))))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly()
        return LaurentPoly(tuple((e, k * c) for e, k in self.terms))

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by A^n."""
        return LaurentPoly(tuple((e + n, c) for e, c in self.terms))

    def substitute_inverse(self) -> "LaurentPoly":
        """The image under A -> A^-1 (mirror symmetry)."""
        return LaurentPoly(_clean({-e: c for e, c in self.terms}))

    def eval_at_one(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise RingError("negative power of a LaurentPoly; use RationalFunc")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                a = "A" if e == 1 else "A^%d" % e
                if c == 1:
                    parts.append(a)
                else:
                    parts.append("%s*%s" % (c, a))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self.render()


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
# The loop value of the orientation-free state sum.
LOOP = LaurentPoly.from_dict({2: Fraction(-1), -2: Fraction(-1)})
# Its oriented counterpart, A^2 + A^-2.
DELTA_POS = LaurentPoly.from_dict({2: Fraction(1), -2: Fraction(1)})


# parse_poly refuses exponents beyond this, so that no input can make
# _divmod walk a huge exponent span.
MAX_EXPONENT = 10 ** 4

_NUM = r"-?\d+(?:/\d+)?"
# one term: a bare coefficient, or [coefficient* | -]A[^exponent]
_TERM = re.compile(r"(?P<const>%s)|(?:(?P<coeff>%s)\*|(?P<neg>-))?A"
                   r"(?:\^(?P<exp>-?\d+))?" % (_NUM, _NUM))


def parse_poly(text: str) -> LaurentPoly:
    """Inverse of LaurentPoly.render: terms like ``-1/2*A^-3`` joined by
    ``+``; a bare coefficient, ``A``, ``A^k`` or ``-A^k`` is also a term.
    Anything else, or an exponent beyond +-MAX_EXPONENT, raises
    RingError."""
    if not text.strip():
        raise RingError("empty polynomial")
    terms: Dict[int, Fraction] = {}
    for chunk in text.split("+"):
        m = _TERM.fullmatch(chunk.strip())
        if m is None:
            raise RingError("bad term %r in %r" % (chunk.strip(), text))
        try:
            coeff = Fraction(m["const"] or m["coeff"] or "1")
            exp = 0 if m["const"] else int(m["exp"] or 1)
        except ZeroDivisionError:
            raise RingError("zero denominator in %r" % chunk.strip()) from None
        except ValueError:      # more digits than int() converts
            raise RingError("number too long in %.40r"
                            % chunk.strip()) from None
        if abs(exp) > MAX_EXPONENT:
            raise RingError("exponent in %.40r is beyond +-%d"
                            % (chunk.strip(), MAX_EXPONENT))
        if m["neg"]:
            coeff = -coeff
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return LaurentPoly.from_dict(terms)


# --- the Laurent kernel ------------------------------------------------------

# A Laurent polynomial as the kernel holds it: exponent -> int, or Fraction
# where the coefficient is non-integral; no zero entries.
Terms = Dict[int, Union[int, Fraction]]


def _terms(p: LaurentPoly) -> Terms:
    return {e: c.numerator if c.denominator == 1 else c for e, c in p.terms}


def _times(p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _divmod(num: Terms, den: Terms) -> Tuple[Terms, Terms]:
    """Quotient and remainder of num by den as ordinary polynomials, both
    shifted to minimal exponent 0: num == quot*den + rem, where rem spans
    fewer exponents than den from num's lowest one up.  Each step cancels
    the top term left.  A leading coefficient other than +-1 divides
    through Fraction, so the quotient stays exact.  A zero den is a
    RingError."""
    if not den:
        raise RingError("division by zero polynomial")
    top = max(den)
    lead = den[top]
    inv = lead if lead in (1, -1) else 1 / Fraction(lead)
    rest = dict(num)
    quot: Terms = {}
    if rest:
        for e in range(max(rest), min(rest) + top - min(den) - 1, -1):
            c = rest.pop(e, 0)
            if c:
                f = quot[e - top] = c * inv
                for e2, c2 in den.items():
                    if e2 != top:
                        k = e - top + e2
                        rest[k] = rest.get(k, 0) - f * c2
    return quot, {e: c for e, c in rest.items() if c}


def _exact_div(num: Terms, den: Terms) -> Terms:
    """The quotient num / den; RingError if den does not divide num."""
    quot, rest = _divmod(num, den)
    if rest:
        raise RingError("inexact polynomial division")
    return quot


def _gcd(a: Terms, b: Terms) -> Terms:
    """A greatest common divisor of a and b (not both zero) by Euclid's
    algorithm, up to a unit c*A^k: a single term when they are coprime."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def poly_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(_clean(_exact_div(_terms(num), _terms(den))))


class RationalFunc(Value):
    """num/den in canonical form: gcd removed, den with minimal exponent 0
    and leading coefficient 1."""

    __slots__ = ("num", "den")

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly = ONE) -> "RationalFunc":
        return rf_from_terms(_terms(num), _terms(den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> LaurentPoly:
        if self.den != ONE:
            raise RingError("value is not a polynomial: %s" % self.render())
        return self.num

    def __add__(self, o: "RationalFunc") -> "RationalFunc":
        return RationalFunc.make(self.num * o.den + o.num * self.den,
                                 self.den * o.den)

    def __sub__(self, o: "RationalFunc") -> "RationalFunc":
        return self + -o

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __mul__(self, o: "RationalFunc") -> "RationalFunc":
        return RationalFunc.make(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalFunc") -> "RationalFunc":
        if o.is_zero():
            raise RingError("division by zero")
        return RationalFunc.make(self.num * o.den, self.den * o.num)

    def scale(self, c) -> "RationalFunc":
        return RationalFunc.make(self.num.scale(c), self.den)

    def render(self) -> str:
        if self.den == ONE:
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "RationalFunc(%s)" % self.render()


def rf_from_terms(num: Terms, den: Terms) -> RationalFunc:
    """The canonical num/den of two kernel term dicts.  A monomial den
    divides num already, so its gcd is a unit and is not computed; a
    leading coefficient of +-1 normalises without leaving the ints."""
    if not den:
        raise RingError("zero denominator")
    if not num:
        return RationalFunc(ZERO, ONE)
    if len(den) > 1:
        g = _gcd(num, den)
        if len(g) > 1:
            num, den = _exact_div(num, g), _exact_div(den, g)
    # normalise: den has minimal exponent 0, leading coefficient 1
    lo, lead = min(den), den[max(den)]
    inv = lead if lead in (1, -1) else 1 / Fraction(lead)
    num, den = ({e - lo: c * inv for e, c in t.items()} for t in (num, den))
    return RationalFunc(LaurentPoly(_clean(num)), LaurentPoly(_clean(den)))


def rf(num: LaurentPoly, den: LaurentPoly = ONE) -> RationalFunc:
    return RationalFunc.make(num, den)


RF_ZERO = rf(ZERO)
RF_ONE = rf(ONE)


class Series(Value):
    """Power series in h truncated at a fixed order, with A = exp(h)."""

    __slots__ = ("order", "coeffs")

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*h" % c)
            else:
                parts.append("%s*h^%d" % (c, i))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


# (exponent, int or Fraction coefficient) pairs, as LaurentPoly.terms
Pairs = Sequence[Tuple[int, Union[int, Fraction]]]


def _integral(terms: Pairs) -> Tuple[Dict[int, int], int]:
    """Integer terms over their least common denominator L, and L."""
    den = lcm(*(c.denominator for _, c in terms))
    return {e: c.numerator * (den // c.denominator) for e, c in terms}, den


def _over_a_minus_one(t: Dict[int, int]) -> Dict[int, int]:
    """t / (A - 1) for integer terms t that vanish at A = 1: from
    t = (A - 1) q, each q_e is q_(e-1) - t_e."""
    out, acc = {}, 0
    for e in range(min(t, default=0), max(t, default=0)):
        acc -= t.get(e, 0)
        if acc:
            out[e] = acc
    return out


def _moments(t: Dict[int, int], order: int) -> list:
    """The sums of k * e^n over the terms k*A^e of t, for n = 0..order:
    n! times the h^n coefficients of t under A = exp(h)."""
    es, ks = list(t), list(t.values())
    out = [sum(ks)]
    for _ in range(order):
        ks = [k * e for k, e in zip(ks, es)]
        out.append(sum(ks))
    return out


def quotient_series(num: Pairs, den: Pairs, order: int) -> Series:
    """num/den under A = exp(h), truncated at h^order, in integers.

    With num = a / L_a and den = b / L_b for integer terms a and b, a
    root of b at A = 1 is cancelled by exact division of both by A - 1;
    a root of a of lower multiplicity there is a pole, a RingError.
    Then b_0 = b(1) is nonzero.  With a_n the sum of k e^n over the
    terms k A^e of a, and b_n likewise, the quotient's h^n coefficient
    is R_n L_b / (b_0^(n+1) n! L_a), built as one Fraction, where the
    integer R_n = a_n b_0^n - sum_(j=1..n) C(n, j) b_j b_0^(j-1) R_(n-j).
    Raises RingError for a negative order or a zero den."""
    if order < 0:
        raise RingError("series order %d is negative" % order)
    a, la = _integral(num)
    b, lb = _integral(den)
    if not b:
        raise RingError("division by zero series")
    while not sum(b.values()):
        if sum(a.values()):
            raise RingError("pole at h = 0 within truncation order")
        a, b = _over_a_minus_one(a), _over_a_minus_one(b)
    an, bn = _moments(a, order), _moments(b, order)
    b0 = bn[0]
    # (j, b_j b_0^(j-1)) for the j >= 1 where b_j is nonzero: an even
    # den, such as a power of A^2 + A^-2, has every odd b_j zero
    steps = [(j, c * b0 ** (j - 1)) for j, c in enumerate(bn[1:], 1) if c]
    rs, coeffs = [], []
    power = fact = 1                # b_0^n and n!
    for n in range(order + 1):
        fact *= n or 1
        r = an[n] * power
        for j, d in steps:
            if j > n:
                break
            r -= comb(n, j) * d * rs[n - j]
        rs.append(r)
        power *= b0
        coeffs.append(Fraction(r * lb, power * fact * la))
    return Series(order, tuple(coeffs))


def series_at_exp(f: RationalFunc, order: int) -> Series:
    """Truncated expansion of f under A = exp(h): quotient_series of its
    numerator and denominator.  A denominator vanishing at h = 0 cancels
    against the numerator; a genuine pole, a negative order, raises
    RingError."""
    return quotient_series(f.num.terms, f.den.terms, order)
