"""Lattice-level checks of the shipped reference arrangements."""

from fractions import Fraction

from linarr.arrangement import format_arrangement, load_arrangement, normalize_line
from linarr.derivations import format_multiarrangement
from linarr.exactalg import Field, Quad
from linarr.fixtures import (
    ARRANGEMENT_FIXTURES,
    MULTIARRANGEMENT_FIXTURES,
    f3_all,
    fixture_names,
    fixture_path,
    pencil,
    pentagon_sqrt5,
)


def test_fixture_maps_cover_every_shipped_file():
    names = fixture_names()
    assert sorted(f"{stem}.arr" for stem in ARRANGEMENT_FIXTURES) == [
        n for n in names if n.endswith(".arr") and not n.endswith(".marr")
    ]
    assert sorted(f"{stem}.marr" for stem in MULTIARRANGEMENT_FIXTURES) == [
        n for n in names if n.endswith(".marr")
    ]
    assert (len(ARRANGEMENT_FIXTURES), len(MULTIARRANGEMENT_FIXTURES)) == (16, 4)


def test_shipped_files_are_canonical():
    # formatting the parse reproduces the file byte for byte
    for maps, fmt, ext in (
        (ARRANGEMENT_FIXTURES, format_arrangement, "arr"),
        (MULTIARRANGEMENT_FIXTURES, format_multiarrangement, "marr"),
    ):
        for stem, load in maps.items():
            with open(fixture_path(f"{stem}.{ext}"), encoding="utf-8") as fh:
                assert fmt(load()) == fh.read(), stem


def test_shipped_files_match_constructors():
    # the three fixtures built from a rule other than their rows
    expected = {f"pencil{n}": pencil(n) for n in range(3, 9)}
    expected.update(pentagon_r5=pentagon_sqrt5(), f3_all=f3_all())
    for stem, arr in expected.items():
        assert load_arrangement(fixture_path(f"{stem}.arr")) == arr, stem


def test_pentagon_lattice():
    arr = pentagon_sqrt5()
    assert len(arr) == 10
    cp = arr.char_poly()
    assert (cp.n, cp.b2) == (10, 25)
    assert cp.factored_str() == "(t-5)^2"
    # every member meets the other nine in exactly four points
    assert arr.n_counts == (4,) * 10
    # each side is parallel to the opposite diagonal: five classes of two
    sizes = sorted(len(ix) for _, ix in arr.parallel_classes)
    assert sizes == [2] * 5
    mults = sorted(pt.multiplicity for pt in arr.points)
    assert mults == [2] * 10 + [4] * 5


def test_pentagon_axis_is_a_five_point_external():
    arr = pentagon_sqrt5()
    field = arr.field
    axis = normalize_line(field, 0, 1, 0)
    assert axis not in arr
    assert arr.count_on_line(axis) == 5
    # the axis really does pass through a vertex: (1, 0)
    one = field.one
    assert any(pt.x == one and pt.y == field.zero for pt in arr.points)


def test_star7_twins_agree():
    a = ARRANGEMENT_FIXTURES["star7_transversal_r2"]()
    b = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    assert a.field == Field.quadratic(2)
    assert b.field == Field.rationals()
    assert a.char_poly() == b.char_poly()
    assert sorted(a.n_counts) == sorted(b.n_counts) == [2] * 7 + [7]
    assert sorted(pt.multiplicity for pt in a.points) == [2] * 7 + [7]
    assert sorted(pt.multiplicity for pt in b.points) == [2] * 7 + [7]
    # the sqrt(2) twin genuinely uses irrational slopes
    assert any(ln.b.v != 0 for ln in a.lines)


def test_squares_diagonals_lattice():
    arr = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    assert arr.char_poly().factored_str() == "(t-5)(t-7)"
    sizes = sorted(len(ix) for _, ix in arr.parallel_classes)
    assert sizes == [3, 3, 3, 3]
    # m3333 is its four directions, each with multiplicity 3
    m3333 = MULTIARRANGEMENT_FIXTURES["m3333"]()
    assert set(m3333.centrals) == {d for d, _ in arr.parallel_classes}
    assert m3333.mults == (3, 3, 3, 3)
    mults = sorted(pt.multiplicity for pt in arr.points)
    # center and edge midpoints are 4-fold, square corners 3-fold
    assert mults == [2] * 12 + [3] * 4 + [4] * 5


def test_subfree_family():
    a, b, c = (ARRANGEMENT_FIXTURES[f"subfree_gap_{x}"]() for x in "abc")
    assert a.char_poly().factored_str() == "(t-3)(t-5)"
    assert b.char_poly().factored_str() == "(t-3)^2"
    assert c.char_poly().factored_str() == "(t-1)(t-3)"
    for line in c.lines:
        assert line in a and line in b
    for line in b.lines:
        assert line in a


def test_f3_fixtures():
    t = ARRANGEMENT_FIXTURES["f3_three"]()
    assert t.char_poly().factored_str() == "(t-1)(t-2)"
    assert t.char_poly().eval(3) == 2
    p = ARRANGEMENT_FIXTURES["f3_pencil"]()
    assert p.char_poly().factored_str() == "(t-1)(t-3)"
    assert p.char_poly().eval(3) == 0
    alllines = f3_all()
    assert len(alllines) == 12
    assert alllines.char_poly().factored_str() == "(t-3)(t-9)"
    assert len(alllines.points) == 9
    assert len(alllines.parallel_classes) == 4


def test_pencil_structure():
    arr = pencil(6)
    assert len(arr.points) == 1
    assert arr.points[0].multiplicity == 6
    assert arr.points[0].x == Fraction(0) and arr.points[0].y == Fraction(0)


def test_star7_sqrt2_slopes():
    arr = ARRANGEMENT_FIXTURES["star7_transversal_r2"]()
    r2 = Quad(0, 1, 2)
    slopes = {ln.b for ln in arr.lines if ln.a == arr.field.one}
    assert r2 / 2 in slopes and -r2 / 2 in slopes
