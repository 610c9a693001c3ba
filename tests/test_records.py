"""The contract of the library's frozen record classes.

Every record compares equal only to a record of its own class with equal
fields, hashes its field tuple, refuses to be changed, prints in the
`Name(field=value, ...)` form and survives pickle and copy. The value
types written by hand (scalars, arrangements and the plane tables)
refuse to be changed and survive pickle and copy as well.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from linarr.arrangement import (
    Arrangement,
    CharPoly,
    IncidencePoint,
    Line,
    RootPair,
    Surd,
    normalize_line,
)
from linarr.derivations import AT_INFINITY, Exponents, HomDerivation, Multiarrangement
from linarr.exactalg import Field, Mod, Quad, record
from linarr.fqscan import FiniteBoundsReport, LineSpectrum, PlaneEnumeration
from linarr.freeness import (
    CriterionEntry,
    CriterionReport,
    FreenessCertificate,
    RootWindowReport,
)

Q = Field.rationals()


def _theta(px, py):
    return HomDerivation(Q, px, py)


def _certificate():
    return FreenessCertificate("free", (1, 2), 2, 1, 2, AT_INFINITY)


def _entry():
    return CriterionEntry("root_gap", True, "free", {"gap": 2})


# (factory, repr at the dataclass implementation, hashable)
CASES = {
    "Field": (lambda: Field.quadratic(2), "Field(kind='quadratic', d=2, p=None)", True),
    "Line": (
        lambda: Line(Fraction(1), Fraction(-1, 2), Fraction(3)),
        "Line(a=Fraction(1, 1), b=Fraction(-1, 2), c=Fraction(3, 1))",
        True,
    ),
    "IncidencePoint": (
        lambda: IncidencePoint(Fraction(0), Fraction(2), frozenset({0, 3})),
        "IncidencePoint(x=Fraction(0, 1), y=Fraction(2, 1), incident=frozenset({0, 3}))",
        True,
    ),
    "CharPoly": (lambda: CharPoly(5, 6), "CharPoly(n=5, b2=6)", True),
    "Surd": (
        lambda: Surd(Fraction(1, 2), Fraction(3), 5),
        "Surd(u=Fraction(1, 2), v=Fraction(3, 1), rad=5)",
        True,
    ),
    "RootPair": (
        lambda: RootPair.from_char_poly(CharPoly(4, 2)),
        "RootPair(n=4, b2=2, discriminant=8, classification='real-irrational', "
        "low=Surd(u=Fraction(2, 1), v=Fraction(-1, 1), rad=2), "
        "high=Surd(u=Fraction(2, 1), v=Fraction(1, 1), rad=2))",
        True,
    ),
    "HomDerivation": (
        lambda: _theta((1, 0), (0, 1)),
        "HomDerivation(field=Field(kind='rationals', d=None, p=None), "
        "px=(Fraction(1, 1), Fraction(0, 1)), py=(Fraction(0, 1), Fraction(1, 1)))",
        True,
    ),
    "Exponents": (
        lambda: Exponents(0, 1, _theta((1,), (0,)), _theta((0, 1), (0, 0))),
        "Exponents(d1=0, d2=1, "
        "theta1=HomDerivation(field=Field(kind='rationals', d=None, p=None), "
        "px=(Fraction(1, 1),), py=(Fraction(0, 1),)), "
        "theta2=HomDerivation(field=Field(kind='rationals', d=None, p=None), "
        "px=(Fraction(0, 1), Fraction(1, 1)), py=(Fraction(0, 1), Fraction(0, 1))))",
        True,
    ),
    "LineSpectrum": (
        lambda: LineSpectrum(((1, 3),), ((0, 2), (2, 1))),
        "LineSpectrum(members=((1, 3),), externals=((0, 2), (2, 1)))",
        True,
    ),
    "FiniteBoundsReport": (
        lambda: FiniteBoundsReport(True, 5, 6, (3, 3), ("d1 = p",)),
        "FiniteBoundsReport(applicable=True, p=5, size=6, exponents=(3, 3), "
        "checks=('d1 = p',), reason=None)",
        True,
    ),
    "FreenessCertificate": (
        _certificate,
        "FreenessCertificate(verdict='free', exponents=(1, 2), b2=2, d1=1, d2=2, "
        "target='infinity')",
        True,
    ),
    "CriterionEntry": (
        _entry,
        "CriterionEntry(name='root_gap', applicable=True, conclusion='free', "
        "evidence={'gap': 2})",
        False,
    ),
    "CriterionReport": (
        lambda: CriterionReport(_certificate(), (_entry(),)),
        "CriterionReport(certificate=FreenessCertificate(verdict='free', "
        "exponents=(1, 2), b2=2, d1=1, d2=2, target='infinity'), "
        "entries=(CriterionEntry(name='root_gap', applicable=True, "
        "conclusion='free', evidence={'gap': 2}),))",
        False,
    ),
    "RootWindowReport": (
        lambda: RootWindowReport((1, 2), (0,), 3, True),
        "RootWindowReport(member_values=(1, 2), external_values=(0,), "
        "externals_checked=3, free=True)",
        True,
    ),
}

params = pytest.mark.parametrize("name", sorted(CASES))

# records over F_5 and Q(sqrt 2) hold Mod and Quad scalars, which must
# survive pickle and copy as well
R2 = Field.quadratic(2)
OTHER_FIELDS = {
    "HomDerivation-F5": lambda: HomDerivation(Field.prime(5), (2, 0, 4), (1, 3, 0)),
    "Line-Qsqrt2": lambda: normalize_line(R2, 1, Quad(0, 1, 2), Quad(Fraction(1, 2), -3, 2)),
}

# the value types that are not records
VALUES = {
    "Quad": lambda: Quad(Fraction(1, 2), -3, 2),
    "Mod": lambda: Mod(3, 5),
    "Arrangement-Qsqrt2": lambda: Arrangement.from_triples(
        R2, [(1, 0, 0), (0, 1, Quad(0, 1, 2)), (1, 1, 1), (1, Quad(1, -1, 2), 0)]
    ),
    "Multiarrangement-F5": lambda: Multiarrangement(
        Field.prime(5), [(1, 0), (0, 1), (1, 2)], [2, 1, 3]
    ),
    "PlaneEnumeration": lambda: PlaneEnumeration(3),
}


MAKE = {name: case[0] for name, case in CASES.items()} | OTHER_FIELDS | VALUES


def _fields(rec):
    return tuple(getattr(rec, name) for name in type(rec).__slots__ if name[0] != "_")


def _state(value):
    """What a clone must reproduce: the value and its public fields in
    order, or only the fields of the plane, which has no __eq__."""
    fields = _fields(value)
    return fields if isinstance(value, PlaneEnumeration) else (value, fields)


def _hash(value):
    try:
        return hash(_state(value))
    except TypeError:  # a dict inside: criterion evidence, the plane's line_ids
        return None


@params
def test_equal_records_hash_equal(name):
    make, _, hashable = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@params
def test_recequals_no_tuple_and_no_other_class(name):
    rec = CASES[name][0]()
    fields = _fields(rec)
    assert rec != fields and fields != rec
    # same name, same fields, same values, another class
    twin = record(type(name, (), {"__annotations__": dict.fromkeys(type(rec).__slots__)}))
    assert twin(*fields) != rec and rec != twin(*fields)
    if CASES[name][2]:
        assert len({rec, twin(*fields)}) == 2


@pytest.mark.parametrize("name", sorted(CASES) + list(VALUES))
def test_records_are_frozen(name):
    rec = MAKE[name]()
    field = type(rec).__slots__[0]
    before, hashed = getattr(rec, field), _hash(rec)
    with pytest.raises(AttributeError):
        setattr(rec, field, before)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, field) is before
    assert _state(rec) == _state(MAKE[name]()) and _hash(rec) == hashed


def test_hash_once_values_keep_the_hash_contract():
    """Arrangement and Multiarrangement hash once, when built: values
    with equal sets in another order, or with coefficients given as plain
    ints, hash equal, and so do their pickles and copies."""
    F5 = Field.prime(5)
    triples = [(1, 0, 0), (0, 1, Quad(0, 1, 2)), (1, 1, 1), (1, Quad(1, -1, 2), 0)]
    A = Arrangement.from_triples(R2, triples)
    centrals, mults = [(1, 0), (0, 1), (1, 2)], [2, 1, 3]
    M = Multiarrangement(F5, centrals, mults)
    pairs = [
        (A, Arrangement.from_triples(R2, triples[::-1]), A.delete(0)),
        (
            Arrangement(F5, [Line(1, 2, 3), Line(0, 1, 4)]),
            Arrangement.from_triples(F5, [(0, 1, 4), (1, 2, 3)]),
            Arrangement.from_triples(F5, [(0, 1, 4), (1, 2, 2)]),
        ),
        (M, Multiarrangement(F5, centrals[::-1], mults[::-1]), Multiarrangement(F5, centrals, [2, 1, 2])),
    ]
    for value, reordered, other in pairs:
        assert value == reordered and hash(value) == hash(reordered)
        assert value != other and other != value
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value == clone and clone == reordered and clone != other
            assert hash(clone) == hash(value)
            assert len({value, reordered, clone, other}) == 2


@params
def test_recrepr_is_pinned(name):
    make, shown, _ = CASES[name]
    assert repr(make()) == shown


@pytest.mark.parametrize("name", sorted(CASES) + list(OTHER_FIELDS) + list(VALUES))
def test_records_round_trip_pickle_and_copy(name):
    rec = MAKE[name]()
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is type(rec)
        assert _state(clone) == _state(rec) and _hash(clone) == _hash(rec)
        if name != "PlaneEnumeration":
            assert repr(clone) == repr(rec)


@pytest.mark.parametrize(
    "field, shown",
    [
        (Q, "Field(kind='rationals', d=None, p=None)"),
        (Field.prime(5), "Field(kind='prime', d=None, p=5)"),
        (R2, "Field(kind='quadratic', d=2, p=None)"),
    ],
)
def test_field_units_are_built_once(field, shown):
    """zero and one are set when a Field is built and stay out of its
    repr and its pickle, which rebuild them."""
    assert field.one is field.one and field.zero is field.zero
    assert (field.zero, field.one) == (field.from_int(0), field.from_int(1))
    assert repr(field) == shown
    assert field.__reduce__() == (Field, (field.kind, field.d, field.p))
    for clone in (pickle.loads(pickle.dumps(field)), copy.copy(field), copy.deepcopy(field)):
        assert clone == field and hash(clone) == hash(field) and repr(clone) == shown
        assert clone.one == field.one and clone.one is clone.one
        assert clone.one + clone.one == clone.from_int(2) and not clone.zero


def test_recdefaults_and_post_init():
    assert Field("rationals") == Field.rationals()
    assert FiniteBoundsReport(False, 5, 6, None, ()).reason is None
    with pytest.raises(TypeError):
        CharPoly(1)
    assert CharPoly(n=1, b2=0) == CharPoly(1, 0)
    assert _theta((1,), (0,)).px == (Fraction(1),)
    assert type(_theta((1,), (0,)).px[0]) is Fraction
