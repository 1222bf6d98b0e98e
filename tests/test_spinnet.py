"""Tests for the tensor-diagram evaluator, permutation algebra, and the
matrix identity checks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotgraph.spinnet import (DIM, GR_I, GR_ONE, GR_ZERO, MAX_LABELS,
                               GaussianRational, PermElement, SpinNetError,
                               TensorDiagram, antisymmetrizer, check_fierz,
                               check_projector, check_spinor_tensor_identity,
                               eval_tensor_diagram, generators,
                               parse_tensor_diagram, symmetrizer)

gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))


@given(gaussians, gaussians, gaussians)
def test_gaussian_rational_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert x * (y + z) == x * y + x * z
    assert x - x == GR_ZERO
    assert x * GR_ONE == x


def test_gaussian_rational_equals_and_hashes_as_a_rational_where_real():
    half = GaussianRational(Fraction(1, 2))
    assert GR_ONE == 1 and 1 == GR_ONE and half == Fraction(1, 2)
    assert hash(GR_ONE) == hash(1) and hash(half) == hash(Fraction(1, 2))
    assert len({GR_ONE, 1}) == 1 and len({GR_ZERO, 0, Fraction(0)}) == 1
    assert GR_I != 1 and GR_I != 0 and hash(GR_I) == hash((0, 1))
    for other in ("x", None, 1.0, (1, 0)):
        assert GR_ONE.__eq__(other) is NotImplemented
        assert GR_ONE != other and not GR_ONE == other


def test_gaussian_i_squares_to_minus_one():
    assert GR_I * GR_I == GaussianRational(Fraction(-1))
    assert GR_I.render() == "1*i"
    assert GaussianRational(Fraction(1), Fraction(-2)).render() == "1 + -2*i"


def _delta_ring(n):
    return TensorDiagram.make([("delta", "i%d" % k, "i%d" % ((k + 1) % n))
                               for k in range(n)])


def test_closed_delta_loop_gives_the_dimension():
    for td in (TensorDiagram.make([("delta", "i", "i")]),
               _delta_ring(MAX_LABELS)):
        assert eval_tensor_diagram(td) == GaussianRational(Fraction(DIM))


def test_refuses_more_index_labels_than_its_limit():
    with pytest.raises(SpinNetError,
                       match="%d index labels" % (MAX_LABELS + 1)):
        eval_tensor_diagram(_delta_ring(MAX_LABELS + 1))


def test_epsilon_pair_gives_minus_dimension():
    # (i eps)^{ab} (i eps)_{ab} = -2
    td = TensorDiagram.make([("epsU", "a", "b"), ("epsL", "a", "b")])
    assert eval_tensor_diagram(td) == GaussianRational(Fraction(-2))


def test_epsilon_pair_transposed():
    # contracting against the transposed epsilon flips the sign
    td = TensorDiagram.make([("epsU", "a", "b"), ("epsL", "b", "a")])
    assert eval_tensor_diagram(td) == GaussianRational(Fraction(2))


def test_validation_requires_paired_indices():
    with pytest.raises(SpinNetError):
        eval_tensor_diagram(TensorDiagram.make([("delta", "i", "j")]))
    with pytest.raises(SpinNetError):
        eval_tensor_diagram(TensorDiagram.make([("epsL", "a", "b"),
                                                ("epsL", "a", "b")]))
    with pytest.raises(SpinNetError):
        TensorDiagram.make([("gamma", "a", "b")])


def test_parse_tensor_diagram():
    td = parse_tensor_diagram("# loop\ndelta i i\n\n")
    assert td.factors == (("delta", "i", "i"),)
    with pytest.raises(SpinNetError):
        parse_tensor_diagram("delta i\n")


def test_perm_element_group_algebra():
    rng = random.Random(41)
    n = 3
    perms = list(itertools.permutations(range(n)))
    def rand_elem():
        return PermElement.make(
            n, {rng.choice(perms): Fraction(rng.randint(-3, 3))
                for _ in range(3)})
    e = PermElement.identity(n)
    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x.compose(e) == e.compose(x) == x
        assert x.compose(y.compose(z)) == x.compose(y).compose(z)
        assert x.compose(y + z) == x.compose(y) + x.compose(z)


def test_perm_element_rejects_bad_permutations():
    with pytest.raises(SpinNetError):
        PermElement.make(2, {(0, 0): Fraction(1)})
    with pytest.raises(SpinNetError):
        PermElement.identity(2) + PermElement.identity(3)


def test_projectors_are_idempotent():
    for n in range(1, 5):
        s = symmetrizer(n)
        a = antisymmetrizer(n)
        assert s.compose(s) == s
        assert a.compose(a) == a
        assert s.compose(a) == a.compose(s)
        if n >= 2:
            # the two projectors annihilate each other
            assert s.compose(a).terms == ()


def test_antisymmetrizer_vanishes_in_dimension_two():
    assert not antisymmetrizer(2).is_zero_tensor()
    assert antisymmetrizer(3).is_zero_tensor()
    assert antisymmetrizer(4).is_zero_tensor()


def test_projector_report():
    for n in range(1, 5):
        rep = check_projector(n)
        assert rep["ok"], rep["failures"]
        assert rep["skew_vanishes"] == (n >= 3)
    with pytest.raises(SpinNetError):
        check_projector(5)


def test_generators_are_traceless_and_hermitian():
    for t in generators():
        assert t[0][0] + t[1][1] == GR_ZERO
        for i in range(2):
            for j in range(2):
                conj = GaussianRational(t[j][i].re, -t[j][i].im)
                assert t[i][j] == conj


def test_fierz_report():
    rep = check_fierz()
    assert rep["ok"], rep["failures"][:5]
    assert rep["fierz_coefficients"] == (Fraction(1, 2), -Fraction(1, 4))


def test_spinor_tensor_identity_report():
    rep = check_spinor_tensor_identity()
    assert rep["ok"], rep["failures"]


def test_casimir_eigenvalue():
    # sum_a T_a T_a = 3/4 * identity on the 2-dimensional space
    ts = generators()
    for i in range(2):
        for j in range(2):
            acc = GR_ZERO
            for t in ts:
                for k in range(2):
                    acc = acc + t[i][k] * t[k][j]
            want = GaussianRational(Fraction(3, 4) * (i == j))
            assert acc == want
