"""Tests for the tensor-diagram evaluator, permutation algebra, and the
matrix identity checks."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import tensor_value
from knotgraph import spinnet
from knotgraph.spinnet import (DIM, GR_I, GR_ONE, GR_ZERO, GaussianRational,
                               PermElement, SpinNetError, TensorDiagram,
                               antisymmetrizer, check_fierz,
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
    for td in (TensorDiagram.make([("delta", "i", "i")]), _delta_ring(12)):
        assert eval_tensor_diagram(td) == GaussianRational(Fraction(DIM))


def test_refuses_more_index_labels_than_its_limit():
    """The evaluator has no label limit: a ring of 13 or of 200 deltas is
    one chain, of trace 2."""
    for n in (13, 200):
        assert eval_tensor_diagram(_delta_ring(n)) == DIM


def _epsilon_pairs(k, transposed):
    """k disjoint pairs epsU^{ab} epsL_{ab}, or epsL_{ba} if transposed."""
    return TensorDiagram.make(
        f for m in range(k) for f in (
            ("epsU", "a%d" % m, "b%d" % m),
            ("epsL", "b%d" % m, "a%d" % m) if transposed
            else ("epsL", "a%d" % m, "b%d" % m)))


def test_disjoint_epsilon_pairs_multiply():
    for k in range(1, 51):
        assert eval_tensor_diagram(_epsilon_pairs(k, False)) == (-2) ** k
        assert eval_tensor_diagram(_epsilon_pairs(k, True)) == 2 ** k


def _random_factors(rng, n):
    """n labels in k epsU, k epsL and n - 2k delta factors, the upper and
    the lower slots each given the labels in a random order."""
    k = rng.randint(0, n // 2)
    upper = ["i%d" % m for m in range(n)]
    lower = list(upper)
    rng.shuffle(upper)
    rng.shuffle(lower)
    factors = ([("epsU", upper.pop(), upper.pop()) for _ in range(k)]
               + [("epsL", lower.pop(), lower.pop()) for _ in range(k)]
               + [("delta", upper.pop(), lower.pop())
                  for _ in range(n - 2 * k)])
    rng.shuffle(factors)
    return factors


_RNG = random.Random(3)
_SEEDED = [_random_factors(_RNG, n)
           for n in itertools.islice(itertools.cycle(range(1, 13)), 300)]


def _value(factors):
    v = eval_tensor_diagram(TensorDiagram.make(factors))
    return complex(v.re, v.im)


def test_chain_traces_equal_the_enumeration():
    for factors in _SEEDED:
        assert _value(factors) == tensor_value(factors), factors


def test_a_walk_without_the_transpose_disagrees(monkeypatch):
    monkeypatch.setattr(spinnet, "_CHAIN", {
        sym: (m, m) for sym, (m, _) in spinnet._CHAIN.items()})
    assert any(_value(f) != tensor_value(f) for f in _SEEDED)


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


_UNPAIRED = "delta a b\ndelta c d\n"
_UNPAIRED_ERROR = "index 'a' must appear exactly once upper and once lower"


def test_validation_names_the_first_bad_label_in_factor_order():
    with pytest.raises(SpinNetError) as exc:
        parse_tensor_diagram(_UNPAIRED).validate()
    assert str(exc.value) == _UNPAIRED_ERROR
    # an epsL factor has both labels lower, so 'a' is first in factor order
    # though 'c' is the only upper label
    with pytest.raises(SpinNetError) as exc:
        parse_tensor_diagram("epsL a b\ndelta c d\n").validate()
    assert str(exc.value) == _UNPAIRED_ERROR


def test_validation_error_does_not_depend_on_string_hashing(tmp_path):
    """The label named is the same under every PYTHONHASHSEED, directly
    and as the corpus error line of a .td entry."""
    (tmp_path / "manifest.txt").write_text(
        "e | t.td | tensor | - | 2 | known | note\n")
    (tmp_path / "t.td").write_text(_UNPAIRED)
    code = ("import sys\n"
            "from knotgraph.cli import main\n"
            "from knotgraph.spinnet import SpinNetError, "
            "parse_tensor_diagram\n"
            "try:\n"
            "    parse_tensor_diagram(%r).validate()\n"
            "except SpinNetError as e:\n"
            "    print(e)\n"
            "sys.exit(main(['corpus', '--dir', sys.argv[1]]))\n" % _UNPAIRED)
    for seed in ("1", "2", "3", "4", "5"):
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, _UNPAIRED_ERROR + "\n", "error: %s\n" % _UNPAIRED_ERROR)


def test_parse_tensor_diagram():
    td = parse_tensor_diagram("# loop\ndelta i i\n\n")
    assert td.factors == (("delta", "i", "i"),)
    with pytest.raises(SpinNetError):
        parse_tensor_diagram("delta i\n")


def test_tensor_lines_end_only_at_line_feeds_and_carriage_returns():
    for text, line in (
            ("delta a b\x0cbogus\nfoo\n", "line 1: expected 'delta|epsL|"
             "epsU i j', got 'delta a b\\x0cbogus'"),
            ("delta i i\rfoo\r", "line 2: expected 'delta|epsL|epsU i j', "
             "got 'foo'")):
        with pytest.raises(SpinNetError) as exc:
            parse_tensor_diagram(text)
        assert str(exc.value) == line
    for newline in ("\r", "\r\n"):
        td = parse_tensor_diagram(
            "# ring\ndelta i j\n\nepsU j k\nepsL k i\n".replace(
                "\n", newline))
        assert td.factors == (("delta", "i", "j"), ("epsU", "j", "k"),
                              ("epsL", "k", "i"))


def _identity(n):
    return PermElement.make(n, {tuple(range(n)): 1})


def _plus(x, y):
    out = dict(x.terms)
    for p, c in y.terms:
        out[p] = out.get(p, 0) + c
    return PermElement.make(x.n, out)


def test_perm_element_group_algebra():
    rng = random.Random(41)
    n = 3
    perms = list(itertools.permutations(range(n)))
    def rand_elem():
        return PermElement.make(
            n, {rng.choice(perms): Fraction(rng.randint(-3, 3))
                for _ in range(3)})
    e = _identity(n)
    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x.compose(e) == e.compose(x) == x
        assert x.compose(y.compose(z)) == x.compose(y).compose(z)
        assert x.compose(_plus(y, z)) == _plus(x.compose(y), x.compose(z))


def test_perm_element_rejects_bad_permutations():
    with pytest.raises(SpinNetError):
        PermElement.make(2, {(0, 0): Fraction(1)})
    with pytest.raises(SpinNetError, match="^mixed strand counts$"):
        _identity(2).compose(_identity(3))


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


def test_projectors_keep_their_terms():
    """The renders of both projectors on 1-5 strands, frozen as one
    sha256; 0 and 6 strands are out of range for both."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for projector in (symmetrizer, antisymmetrizer):
            digest.update((projector(n).render() + "\n").encode())
    assert digest.hexdigest() == ("f754644a13f36bf522da6498fee4e246"
                                  "c5bc41bbd3ff413cb7c3280534551ef2")
    assert antisymmetrizer(2).render() == "1/2*[0 1] + -1/2*[1 0]"
    for projector in (symmetrizer, antisymmetrizer):
        for n in (0, 6):
            with pytest.raises(SpinNetError, match="^strand count %d out of "
                               "range 1..5$" % n):
                projector(n)


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


def _doubled(make):
    """A stand-in for a projector maker: twice its element, which is not
    idempotent."""
    return lambda n: PermElement.make(n, {p: 2 * c for p, c in make(n).terms})


@pytest.mark.parametrize("name, stand_in, failing, row", [
    ("symmetrizer", _doubled(symmetrizer), (1, 2, 3, 4),
     "symmetrizer(%d) not idempotent"),
    ("antisymmetrizer", _doubled(antisymmetrizer), (1, 2, 3, 4),
     "antisymmetrizer(%d) not idempotent"),
    ("antisymmetrizer", symmetrizer, (3, 4),
     "antisymmetrizer(%d) nonzero on dimension 2"),
    ("antisymmetrizer", lambda n: PermElement.make(n, {}), (1, 2),
     "antisymmetrizer(%d) unexpectedly zero")],
    ids=["sym-idempotent", "skew-idempotent", "skew-nonzero", "skew-zero"])
def test_projector_report_names_each_failure(monkeypatch, name, stand_in,
                                             failing, row):
    """Negative control: each of check_projector's four rows fires for a
    projector that breaks its rule, and only where it is broken."""
    monkeypatch.setattr(spinnet, name, stand_in)
    for n in range(1, 5):
        rep = check_projector(n)
        assert rep["failures"] == ([row % n] if n in failing else []), n
        assert rep["ok"] == (n not in failing)


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


def test_fierz_report_names_each_failing_entry_in_order(monkeypatch):
    # a corrupted T_2 breaks rows of all three generator checks; the rows
    # keep their text and their order: per (a, b), commutator then trace
    good = generators()

    def corrupted():
        t1, t2, t3 = good
        return t1, ((GaussianRational(Fraction(1, 2)), t2[0][1]), t2[1]), t3

    monkeypatch.setattr(spinnet, "generators", corrupted)
    rep = check_fierz()
    assert not rep["ok"]
    assert rep["failures"] == [
        "fierz entry (0,0,0,0)", "fierz entry (0,0,0,1)",
        "fierz entry (0,0,1,0)", "fierz entry (0,1,0,0)",
        "fierz entry (1,0,0,0)",
        "commutator (1,2) entry (0,1)", "commutator (1,2) entry (1,0)",
        "commutator (1,3) entry (0,0)",
        "commutator (2,1) entry (0,1)", "commutator (2,1) entry (1,0)",
        "trace (2,2)", "trace (2,3)",
        "commutator (3,1) entry (0,0)", "trace (3,2)"]


def test_fierz_report_names_each_failing_symmetrizer_entry(monkeypatch):
    # negative control: the identity in place of the two-slot symmetrizer
    # is off by 1/2 wherever i != j and {i, j} = {k, l}
    monkeypatch.setattr(spinnet, "symmetrizer", _identity)
    rep = check_fierz()
    assert not rep["ok"]
    assert rep["failures"] == [
        "symmetrizer entry (0,1,0,1)", "symmetrizer entry (0,1,1,0)",
        "symmetrizer entry (1,0,0,1)", "symmetrizer entry (1,0,1,0)"]


def test_spinor_tensor_identity_report():
    rep = check_spinor_tensor_identity()
    assert rep["ok"], rep["failures"]


def test_spinor_tensor_identity_report_names_each_failing_assignment(
        monkeypatch):
    # negative control: i*eps with its (0, 1) entry zeroed
    monkeypatch.setattr(spinnet, "_EPS", ((GR_ZERO, GR_ZERO),
                                          (-GR_I, GR_ZERO)))
    assert check_spinor_tensor_identity() == {
        "failures": ["assignment (0,1,0,1)", "assignment (0,1,1,0)",
                     "assignment (1,0,0,1)"], "ok": False}


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
