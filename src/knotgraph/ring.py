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
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Dict, Iterable, Mapping, Tuple, Union


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

    @staticmethod
    def make(order: int, coeffs: Iterable) -> "Series":
        cs = [Fraction(c) for c in coeffs]
        cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(Fraction(0))
        return Series(order, tuple(cs))

    @staticmethod
    def const(c, order: int) -> "Series":
        return Series.make(order, [Fraction(c)])

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def drop_h(self, k: int) -> "Series":
        """Divide by h^k assuming the first k coefficients vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise RingError("cannot divide by h^%d: nonzero low coefficient" % k)
        return Series.make(self.order - k, self.coeffs[k:])

    def divide(self, o: "Series") -> "Series":
        """Series division, cancelling a common h-valuation first."""
        v = o.valuation()
        if v is None:
            raise RingError("division by zero series")
        if v > 0:
            sv = self.valuation()
            if sv is None:
                return Series.const(0, self.order - v)
            if sv < v:
                raise RingError("pole at h = 0 within truncation order")
            return self.drop_h(v).divide(o.drop_h(v))
        n = min(self.order, o.order)
        inv0 = 1 / o.coeffs[0]
        # an even divisor, such as a power of A^2 + A^-2, has every odd
        # coefficient zero
        terms = [(j, c) for j, c in enumerate(o.coeffs[1:n + 1], 1) if c]
        cs = []
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j, c in terms:
                if j > i:
                    break
                acc -= c * cs[i - j]
            cs.append(acc * inv0)
        return Series.make(n, cs)

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


def poly_series(p: LaurentPoly, order: int) -> Series:
    """Expand a Laurent polynomial with A = exp(h): the coefficient of h^n
    is the sum of c * e^n / n! over the terms c*A^e."""
    den = lcm(*(c.denominator for _, c in p.terms))
    ints = [(e, c.numerator * (den // c.denominator)) for e, c in p.terms]
    coeffs = []
    fact = 1
    for n in range(order + 1):
        fact *= n or 1
        coeffs.append(Fraction(sum(k * e ** n for e, k in ints), den * fact))
    return Series(order, tuple(coeffs))


def series_at_exp(f: RationalFunc, order: int) -> Series:
    """Truncated expansion of f under A = exp(h).

    A denominator vanishing at h = 0 is handled by cancelling the common
    h-valuation against the numerator; a genuine pole raises RingError.
    That valuation is the multiplicity of the denominator's root at A = 1,
    which is below its number of terms (Hajos's lemma), so expanding that
    many orders less one beyond the truncation is always enough.
    """
    if f.is_zero():
        return Series.const(0, order)
    guard = len(f.den.terms) - 1
    q = poly_series(f.num, order + guard).divide(
        poly_series(f.den, order + guard))
    return Series.make(order, q.coeffs[: order + 1])
