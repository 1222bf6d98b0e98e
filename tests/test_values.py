"""The value contract of the package's immutable classes: built from the
same positional or keyword arguments and from no others, equal to a
value of their own class with equal fields and to nothing else, hashed
as the tuple of their fields, unchangeable after construction, and shown
as Name(field=value, ...).  The reprs are frozen literals."""

import copy
import pickle
import types
from fractions import Fraction

import pytest

from knotgraph.corpus import CorpusEntry, EntryResult
from knotgraph.diagram import Diagram, DiagramError
from knotgraph.graphinv import ResolutionScheme
from knotgraph.moves import MoveSpec
from knotgraph.ring import (DELTA_POS, ONE, RF_ONE, RF_ZERO, LaurentPoly,
                            RationalFunc, Series, Value)
from knotgraph.spinnet import GaussianRational, PermElement, TensorDiagram
from knotgraph.vassiliev import VassilievReport

TERMS = ((2, Fraction(1)), (-2, Fraction(-1, 2)))
KINK = ((("n0", 2), ("n0", 1)), (("n0", 3), ("n0", 0)))
SERIES = Series(1, (Fraction(2), Fraction(0)))
ENTRY = CorpusEntry("kink", "kink+.dg", "p_eval", "", "-A^3", "known", "R1")

# class -> (field names, field values, the same values with one changed,
# the repr of the value built from the field values)
CASES = {
    LaurentPoly: (("terms",), (TERMS,), (TERMS[:1],),
                  "LaurentPoly(A^2 + -1/2*A^-2)"),
    RationalFunc: (("num", "den"), (ONE, DELTA_POS), (ONE, ONE),
                   "RationalFunc((1)/(A^2 + A^-2))"),
    Series: (("order", "coeffs"),
             (2, (Fraction(1), Fraction(0), Fraction(1, 2))),
             (2, (Fraction(1), Fraction(0), Fraction(1, 3))),
             "Series(order=2, coeffs=(Fraction(1, 1), Fraction(0, 1), "
             "Fraction(1, 2)))"),
    Diagram: (("nodes", "arcs", "free_loops"),
              ((("n0", "XPos"),), KINK, 1), ((("n0", "XNeg"),), KINK, 1),
              "Diagram(nodes=(('n0', 'XPos'),), arcs=((('n0', 2), "
              "('n0', 1)), (('n0', 3), ('n0', 0))), free_loops=1)"),
    ResolutionScheme: (("a", "b", "c"), (RF_ONE, RationalFunc(-ONE, ONE),
                                         RF_ZERO),
                       (RF_ONE, RF_ONE, RF_ZERO),
                       "ResolutionScheme(a=RationalFunc(1), "
                       "b=RationalFunc(-1), c=RationalFunc(0))"),
    VassilievReport: (("series", "vanishing_order"), (SERIES, None),
                      (SERIES, 1),
                      "VassilievReport(series=Series(order=1, "
                      "coeffs=(Fraction(2, 1), Fraction(0, 1))), "
                      "vanishing_order=None)"),
    MoveSpec: (("move", "site"), ("R1+", ("n0", 2)), ("R1-", ("n0", 2)),
               "MoveSpec(move='R1+', site=('n0', 2))"),
    GaussianRational: (("re", "im"), (Fraction(1, 2), Fraction(-3)),
                       (Fraction(1, 2), Fraction(3)),
                       "GaussianRational(re=Fraction(1, 2), "
                       "im=Fraction(-3, 1))"),
    TensorDiagram: (("factors",),
                    ((("delta", "i", "j"), ("epsL", "j", "i")),),
                    ((("delta", "i", "j"),),),
                    "TensorDiagram(factors=(('delta', 'i', 'j'), "
                    "('epsL', 'j', 'i')))"),
    PermElement: (("n", "terms"),
                  (2, (((0, 1), Fraction(1)), ((1, 0), Fraction(-1, 2)))),
                  (2, (((0, 1), Fraction(1)),)),
                  "PermElement(n=2, terms=(((0, 1), Fraction(1, 1)), "
                  "((1, 0), Fraction(-1, 2))))"),
    CorpusEntry: (("name", "file", "op", "args", "expected", "tag",
                   "anchor"),
                  ("kink", "kink+.dg", "p_eval", "", "-A^3", "known", "R1"),
                  ("kink", "kink+.dg", "p_eval", "", "A^3", "known", "R1"),
                  "CorpusEntry(name='kink', file='kink+.dg', op='p_eval', "
                  "args='', expected='-A^3', tag='known', anchor='R1')"),
    EntryResult: (("entry", "actual"), (ENTRY, "-A^3"), (ENTRY, "A^3"),
                  "EntryResult(entry=CorpusEntry(name='kink', "
                  "file='kink+.dg', op='p_eval', args='', expected='-A^3', "
                  "tag='known', anchor='R1'), actual='-A^3')"),
}

classes = pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)


@classes
def test_equal_fields_give_equal_values(cls):
    names, values, _, _ = CASES[cls]
    v = cls(*values)
    for w in (cls(*values), cls(**dict(zip(names, values)))):
        assert w is not v and w == v and not w != v and hash(w) == hash(v)
    assert tuple(getattr(v, name) for name in names) == values
    if cls is not GaussianRational:     # hashed as a number; see below
        assert hash(v) == hash(values)


@classes
def test_a_changed_field_gives_an_unequal_value(cls):
    _, values, changed, _ = CASES[cls]
    assert cls(*values) != cls(*changed)
    assert not cls(*values) == cls(*changed)


@classes
def test_another_class_with_the_same_fields_is_unequal(cls):
    names, values, _, _ = CASES[cls]
    v = cls(*values)
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    lookalike = types.SimpleNamespace(**dict(zip(names, values)))
    for other in (twin, lookalike, values):
        assert v != other and other != v
        assert v.__eq__(other) is NotImplemented


@classes
def test_values_cannot_be_changed(cls):
    names, values, changed, _ = CASES[cls]
    v = cls(*values)
    for name, new in zip(names + ("extra",), changed + (0,)):
        with pytest.raises(AttributeError):
            setattr(v, name, new)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == cls(*values)


@classes
def test_copies_and_pickles_are_equal_values(cls):
    v = cls(*CASES[cls][1])
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w == v and type(w) is cls and repr(w) == repr(v)


@classes
def test_repr_is_name_and_fields(cls):
    _, values, _, text = CASES[cls]
    assert repr(cls(*values)) == text


# the classes that store their fields through Value's own constructor
SHARED = (RationalFunc, Series, CorpusEntry, EntryResult, TensorDiagram,
          PermElement, VassilievReport)


@pytest.mark.parametrize("cls", SHARED, ids=lambda c: c.__name__)
def test_the_shared_constructor_refuses_a_wrong_set_of_fields(cls):
    names, values, _, _ = CASES[cls]
    assert cls.__init__ is Value.__init__
    for args, kwargs in [
            (values[:-1], {}),                          # a missing field
            ((), dict(zip(names[1:], values[1:]))),     # missing, by name
            (values + (0,), {}),                        # an extra positional
            (values, {"extra": 0}),                     # an unknown keyword
            (values, {names[0]: values[0]})]:           # by position and name
        with pytest.raises(TypeError, match=r"^%s\(\) takes the fields %s,"
                           % (cls.__name__, ", ".join(names))):
            cls(*args, **kwargs)


def test_defaults():
    assert LaurentPoly() == LaurentPoly(()) and repr(LaurentPoly()) == (
        "LaurentPoly(0)")
    assert Diagram() == Diagram((), (), 0) and repr(Diagram()) == (
        "Diagram(nodes=(), arcs=(), free_loops=0)")
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert repr(GaussianRational()) == (
        "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))")


def test_a_diagram_checks_itself_however_it_is_built():
    with pytest.raises(DiagramError, match="port 7 out of range"):
        Diagram(nodes=(("n0", "XPos"),),
                arcs=((("n0", 2), ("n0", 7)), (("n0", 3), ("n0", 0))))
    with pytest.raises(DiagramError, match="negative free loop count"):
        Diagram((), (), -1)


def test_the_derived_weights_are_not_a_field():
    s = ResolutionScheme(*CASES[ResolutionScheme][1])
    assert len(s.over_one_den) == 4 and "over_one_den" not in repr(s)
    with pytest.raises(AttributeError):
        s.over_one_den = ()
