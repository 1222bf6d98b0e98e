"""Unit and property tests for the exact arithmetic layer."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from knotgraph.ring import (A, A_INV, DELTA_POS, LOOP, ONE, ZERO, LaurentPoly,
                            RationalFunc, RingError, Series, _divmod,
                            _exact_div, _gcd, _terms, _times, parse_poly,
                            poly_exact_div, poly_series, rf, rf_from_terms,
                            series_at_exp)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(st.integers(-6, 6), fractions, max_size=5).map(
    LaurentPoly.from_dict)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@given(polys, polys, polys)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@given(polys)
def test_render_parse_roundtrip(p):
    assert parse_poly(p.render()) == p


@given(polys)
def test_substitute_inverse_is_involutive(p):
    assert p.substitute_inverse().substitute_inverse() == p


@given(polys, polys)
def test_substitute_inverse_is_a_ring_map(p, q):
    assert (p * q).substitute_inverse() == \
        p.substitute_inverse() * q.substitute_inverse()
    assert (p + q).substitute_inverse() == \
        p.substitute_inverse() + q.substitute_inverse()


@given(polys, polys)
def test_eval_at_one_is_a_ring_map(p, q):
    assert (p * q).eval_at_one() == p.eval_at_one() * q.eval_at_one()
    assert (p + q).eval_at_one() == p.eval_at_one() + q.eval_at_one()


@given(polys, nonzero_polys)
def test_kernel_divmod_reconstructs(num, den):
    q, r = _divmod(_terms(num), _terms(den))
    assert num == LaurentPoly.from_dict(q) * den + LaurentPoly.from_dict(r)
    if r:
        # remainder degree (as an ordinary polynomial) below the divisor's
        assert max(r) - min(r) < den.terms[0][0] - den.terms[-1][0]


@given(polys, nonzero_polys)
def test_exact_division_inverts_multiplication(p, d):
    assert poly_exact_div(p * d, d) == p


def test_exact_division_rejects_remainders():
    with pytest.raises(RingError, match="^inexact polynomial division$"):
        poly_exact_div(A + ONE, A + A_INV)


def test_a_zero_divisor_is_refused_by_the_kernel():
    with pytest.raises(RingError, match="^division by zero polynomial$"):
        poly_exact_div(A + ONE, ZERO)
    for divide in (_divmod, _exact_div):
        with pytest.raises(RingError, match="^division by zero polynomial$"):
            divide({1: 1, 0: 1}, {})


@given(polys, nonzero_polys, polys, nonzero_polys)
@settings(max_examples=40)
def test_rational_field_axioms(pn, pd, qn, qd):
    x = rf(pn, pd)
    y = rf(qn, qd)
    assert x + y == y + x
    assert x - x == rf(ZERO)
    if not y.is_zero():
        assert (x / y) * y == x
    assert x * y == y * x


@given(nonzero_polys, nonzero_polys)
def test_rational_cancellation(p, q):
    assert rf(p * q, q) == rf(p)


@given(polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_common_factors_cancel_to_the_canonical_form(p, q, g):
    f = rf(p * g, q * g)
    assert f == rf(p, q)
    # the denominator is monic with minimal exponent 0
    assert f.den.terms[-1][0] == 0 and f.den.terms[0][1] == 1
    assert all(type(c) is Fraction for _, c in f.num.terms + f.den.terms)


def test_rational_canonical_form_is_unique():
    a = rf(A * A - A_INV * A_INV, A - A_INV)       # (A^2-A^-2)/(A-A^-1)
    assert a == rf(A + A_INV)
    assert a.den == ONE
    assert a.as_poly() == A + A_INV


def _canonical_by_gcd(num: LaurentPoly, den: LaurentPoly) -> RationalFunc:
    """The canonical form by the general route: the gcd is always taken
    and the den always normalised through a Fraction."""
    if num.is_zero():
        return RationalFunc(ZERO, ONE)
    n, d = _terms(num), _terms(den)
    g = _gcd(n, d)
    n, d = _exact_div(n, g), _exact_div(d, g)
    lo, inv = min(d), 1 / Fraction(d[max(d)])
    return RationalFunc(*(LaurentPoly.from_dict({e - lo: c * inv
                                                 for e, c in t.items()})
                          for t in (n, d)))


def test_kernel_constructor_matches_the_gcd_route():
    """rf_from_terms skips the gcd for a monomial den and keeps leads of
    +-1 in ints; on seeded pairs with monomial dens, shared factors and
    leads +-1, +-2 and 1/3 it renders as RationalFunc.make and the
    general route do, also from terms with integral Fractions."""
    rng = random.Random(61)
    small = (1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-2, 3))
    leads = (1, -1, 2, -2, Fraction(1, 3))

    def poly(lead, size):
        top = rng.randint(-3, 3)
        terms = {top - rng.randint(1, 5): rng.choice(small)
                 for _ in range(size - 1)}
        terms[top] = lead
        return terms

    kinds = set()
    for _ in range(400):
        size = rng.choice((1, 1, 2, 3, 4))
        den = poly(rng.choice(leads), size)
        num = poly(rng.choice(small), rng.randint(1, 4))
        if rng.random() < 0.4:      # a factor shared with den
            shared = poly(rng.choice(leads), rng.randint(1, 3))
            num, den = _times(num, shared), _times(den, shared)
        if rng.random() < 0.1:
            num = {}
        kinds.add((len(den) == 1, den[max(den)]))
        n, d = LaurentPoly.from_dict(num), LaurentPoly.from_dict(den)
        want = _canonical_by_gcd(n, d).render()
        assert RationalFunc.make(n, d).render() == want
        assert rf_from_terms(_terms(n), _terms(d)).render() == want
        as_fractions = [{e: Fraction(c) for e, c in t.items()}
                        for t in (num, den)]
        assert rf_from_terms(*as_fractions).render() == want
    assert {lead for mono, lead in kinds if mono} >= set(leads)
    assert {lead for mono, lead in kinds if not mono} >= set(leads)
    with pytest.raises(RingError):
        rf_from_terms({0: 1}, {})


def test_division_by_zero_raises():
    with pytest.raises(RingError):
        rf(ONE, ZERO)
    with pytest.raises(RingError):
        rf(ONE) / rf(ZERO)


def test_loop_and_delta_constants():
    assert LOOP == parse_poly("-1*A^2 + -1*A^-2")
    assert DELTA_POS == parse_poly("A^2 + A^-2")
    assert LOOP == -DELTA_POS


# --- series layer, with sympy as an independent oracle ----------------------


def _sympy_series_coeffs(f, order):
    h = sympy.Symbol("h")
    Aexp = sympy.exp(h)
    def lift(p):
        return sum(sympy.Rational(c) * Aexp ** e for e, c in p.terms)
    expr = lift(f.num) / lift(f.den)
    ser = sympy.series(expr, h, 0, order + 1).removeO()
    poly = sympy.Poly(sympy.expand(ser), h)
    return [sympy.Rational(poly.coeff_monomial(h ** i))
            for i in range(order + 1)]


@given(polys, nonzero_polys)
@settings(max_examples=25, deadline=None)
def test_series_at_exp_matches_sympy(num, den):
    f = rf(num, den)
    order = 4
    try:
        ours = series_at_exp(f, order)
    except RingError:
        return  # genuine pole at h = 0; sympy would produce h^-k terms
    theirs = _sympy_series_coeffs(f, order)
    assert [Fraction(int(c.p), int(c.q)) for c in theirs] == list(ours.coeffs)


def test_series_cancels_common_vanishing():
    # (A^2 - A^-2)/(A - A^-1) = A + A^-1 even though both vanish at h = 0
    f = rf(A * A - A_INV * A_INV, A - A_INV)
    assert series_at_exp(f, 5) == poly_series(A + A_INV, 5)


@pytest.mark.parametrize("k", range(1, 7))
def test_series_guard_covers_the_root_at_one(k):
    # d = (A - A^-1)^k has k + 1 terms and a root of multiplicity k at
    # A = 1; rf would cancel it, so the quotient is built uncancelled
    d = (A - A_INV) ** k
    assert len(d.terms) == k + 1
    p = parse_poly("A^3 + -1/2*A^-1")     # no h^n coefficient vanishes
    for n in range(7):
        assert series_at_exp(RationalFunc(d * p, d), n) == poly_series(p, n)


def test_series_of_a_polynomial_equals_poly_series():
    # den 1, as for the Vassiliev value of gb_2vert: the series must be
    # poly_series itself, byte for byte, with Fraction coefficients
    rng = random.Random(19)
    values = [parse_poly("A^8 + -1*A^4 + -1*A^-4 + A^-8")]
    values += [LaurentPoly.from_dict(
        {rng.randint(-12, 12): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
         for _ in range(4)}) for _ in range(2)]
    for p in values:
        f = rf(p)
        assert f.den == ONE
        for n in range(61):
            direct = poly_series(p, n)
            ours = series_at_exp(f, n)
            assert ours == direct and ours.render() == direct.render()
            assert all(type(c) is Fraction for c in ours.coeffs)


def test_series_reports_true_poles():
    with pytest.raises(RingError):
        series_at_exp(rf(ONE, A - A_INV), 4)


def test_exp_series_values():
    s = poly_series(A ** 2, 4)
    assert s.coeffs == (1, 2, 2, Fraction(4, 3), Fraction(2, 3))


def _series_times(s, t):
    """The truncated product of two series of one order."""
    return Series(s.order, tuple(
        sum((s.coeffs[i] * t.coeffs[k - i] for i in range(k + 1)),
            Fraction(0)) for k in range(s.order + 1)))


@given(polys, polys)
@settings(max_examples=30)
def test_poly_series_is_a_ring_map(p, q):
    n = 5
    sp, sq = poly_series(p, n), poly_series(q, n)
    assert _series_times(sp, sq) == poly_series(p * q, n)
    assert tuple(a + b for a, b in zip(sp.coeffs, sq.coeffs)) == \
        poly_series(p + q, n).coeffs


@given(polys, nonzero_polys)
@settings(max_examples=30)
def test_series_division_roundtrip(p, q):
    n = 4
    sq = poly_series(q, n + 8)
    sp = poly_series(p, n + 8)
    if sq.valuation() is None:
        return
    prod = _series_times(sp, sq)
    if sp.valuation() is not None and sq.valuation() > 0:
        return  # cancellation handled by series_at_exp's guard orders
    got = prod.divide(sq)
    assert got.coeffs[: n + 1] == sp.coeffs[: n + 1]


def test_series_valuation_and_drop():
    s = Series.make(4, [0, 0, 3, 1, 0])
    assert s.valuation() == 2
    assert s.drop_h(2).coeffs == (3, 1, 0)
    with pytest.raises(RingError):
        s.drop_h(3)


def test_series_division_by_zero_is_refused():
    with pytest.raises(RingError, match="^division by zero series$"):
        poly_series(A, 3).divide(Series.const(0, 3))


def test_a_negative_power_is_refused():
    with pytest.raises(RingError, match="^negative power of a LaurentPoly"):
        A ** -1


def test_as_poly_refuses_a_proper_quotient():
    with pytest.raises(RingError,
                       match=r"^value is not a polynomial: \(1\)/\(A\^2 \+ 1\)$"):
        rf(A_INV, A + A_INV).as_poly()


def test_parse_poly_rejects_garbage():
    for bad in ("", "A^", "1**A", "B^2", "1-A", "2A", "A^x", "1/0*A", "1/0",
                "1 +", "+ A", "1.5", "A*2", "- A", "1 2"):
        with pytest.raises(RingError):
            parse_poly(bad)


def test_parse_poly_bounds_exponents():
    assert parse_poly("A^10000 + -1*A^-10000").terms[0][0] == 10000
    digits = "9" * 5000     # beyond what int() converts from text
    for bad in ("A^10001", "-A^-10001", "1 + 2*A^1000000000", "A^" + digits,
                digits, "1/%s*A" % digits):
        with pytest.raises(RingError):
            parse_poly(bad)


def test_parse_poly_accepts_bare_and_negated_terms():
    assert parse_poly(" -A^2 + 3 + A ") == LaurentPoly.from_dict(
        {2: Fraction(-1), 1: Fraction(1), 0: Fraction(3)})
