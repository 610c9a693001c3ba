import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    Q,
    random_arrangement,
    random_subset,
    reference_cmp_root,
    reference_count_on_line,
    reference_order_increasing,
    reference_points,
)
from linarr import arrangement, freeness
from linarr.arrangement import (
    COMPLEX_CONJUGATE,
    REAL_IRRATIONAL,
    TWO_INTEGER,
    Arrangement,
    CharPoly,
    Line,
    RootPair,
    Surd,
    format_arrangement,
    format_field_header,
    line_through,
    normalize_direction,
    normalize_line,
    parse_arrangement,
)
from linarr.derivations import parse_multiarrangement
from linarr.errors import MembershipError, ParseError, PreconditionError
from linarr.exactalg import PRIMALITY_CAP, SQUAREFREE_CAP, Field, Quad, _key, _key_scalars
from linarr.fixtures import ARRANGEMENT_FIXTURES, f3_all, pencil
from linarr.freeness import run_criteria, verify_root_window

F3 = Field.prime(3)
F5 = Field.prime(5)


def triangle():
    # x = 0, y = 0, x + y = 1: three double points, complex roots
    return Arrangement.from_triples(Q, [(1, 0, 0), (0, 1, 0), (1, 1, -1)])


def three_parallels():
    return Arrangement.from_triples(Q, [(0, 1, 0), (0, 1, -1), (0, 1, -2)])


# ----------------------------------------------------------- normalization


def test_normalize_line_examples():
    assert normalize_line(Q, 2, 4, 6) == Line(Fraction(1), Fraction(2), Fraction(3))
    assert normalize_line(Q, 0, -3, 6) == Line(Fraction(0), Fraction(1), Fraction(-2))
    assert normalize_line(F3, 2, 1, 1).a == F3.one


def test_normalize_line_rejects_degenerate():
    with pytest.raises(PreconditionError):
        normalize_line(Q, 0, 0, 5)
    with pytest.raises(PreconditionError):
        normalize_direction(Q, 0, 0)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_normalize_line_idempotent(a, b, c):
    if a == 0 and b == 0:
        return
    line = normalize_line(Q, a, b, c)
    again = normalize_line(Q, line.a, line.b, line.c)
    assert again == line
    head = line.a if line.a else line.b
    assert head == Q.one


def test_constructor_rejects_duplicates_and_raw_triples():
    with pytest.raises(PreconditionError):
        Arrangement.from_triples(Q, [(1, 2, 3), (2, 4, 6)])
    with pytest.raises(PreconditionError):
        Arrangement(Q, [Line(Fraction(2), Fraction(4), Fraction(6))])


def test_constructor_keeps_canonical_lines():
    F5 = Field.prime(5)
    hand_built = [Line(1, 0, 0), Line(0, 1, -1), Line(1, 1, -3)]
    A = Arrangement(F5, hand_built)
    canon = [normalize_line(F5, ln.a, ln.b, ln.c) for ln in hand_built]
    assert normalize_line(F5, 1, 1, -3) in A
    assert A.lines == tuple(canon)
    assert all(type(x) is type(F5.one) for ln in A.lines for x in (ln.a, ln.b, ln.c))
    assert [A.index_of(ln) for ln in canon] == [0, 1, 2]
    assert Arrangement(Q, [Line(1, 0, -2)]).lines[0].c == Fraction(-2)
    assert type(Arrangement(Q, [Line(1, 0, -2)]).lines[0].c) is Fraction
    with pytest.raises(PreconditionError):
        Arrangement(F5, [Line(1, 1, 2), Line(1, 1, -3)])
    with pytest.raises(PreconditionError):
        Arrangement(F5, [Line(2, 2, 1)])


def test_line_through():
    assert line_through(Q, (0, 0), (1, 1)) == normalize_line(Q, 1, -1, 0)
    assert line_through(Q, (0, 1), (2, 1)) == normalize_line(Q, 0, 1, -1)
    with pytest.raises(PreconditionError):
        line_through(Q, (1, 1), (1, 1))
    p = (Fraction(1, 2), Fraction(3))
    q = (Fraction(-2), Fraction(1, 5))
    ln = line_through(Q, p, q)
    assert ln.a * p[0] + ln.b * p[1] + ln.c == 0
    assert ln.a * q[0] + ln.b * q[1] + ln.c == 0


# ----------------------------------------------------- char poly on fixtures


def test_pencil_char_poly():
    for n in range(2, 9):
        arr = pencil(n)
        cp = arr.char_poly()
        assert (cp.n, cp.b2) == (n, n - 1)
        assert cp.factored_str() == (
            "(t-1)^2" if n == 2 else f"(t-1)(t-{n - 1})"
        )
        assert arr.n_counts == (1,) * n


def test_star7_twins_char_poly():
    for name in ("star7_transversal_r2", "star7_transversal_q"):
        cp = ARRANGEMENT_FIXTURES[name]().char_poly()
        assert (cp.n, cp.b2) == (8, 13)
        assert str(cp) == "t^2 - 8 t + 13"
        assert cp.factored_str() is None


def test_squares_diagonals_char_poly():
    cp = ARRANGEMENT_FIXTURES["squares_diagonals"]().char_poly()
    assert (cp.n, cp.b2) == (12, 35)
    assert str(cp) == "t^2 - 12 t + 35"
    assert cp.factored_str() == "(t-5)(t-7)"


def test_three_parallels_char_poly():
    arr = three_parallels()
    cp = arr.char_poly()
    assert (cp.n, cp.b2) == (3, 0)
    assert str(cp) == "t^2 - 3 t"
    assert cp.factored_str() == "t(t-3)"
    assert arr.points == ()
    assert len(arr.parallel_classes) == 1
    assert arr.parallel_classes[0][1] == (0, 1, 2)


def test_f3_all_lines_char_poly():
    arr = f3_all()
    cp = arr.char_poly()
    # 9 points, each on all 4 directions through it
    assert (cp.n, cp.b2) == (12, 27)
    assert cp.factored_str() == "(t-3)(t-9)"
    assert all(pt.multiplicity == 4 for pt in arr.points)


def test_empty_and_single():
    empty = Arrangement(Q, [])
    assert str(empty.char_poly()) == "t^2"
    assert empty.char_poly().factored_str() == "t^2"
    single = Arrangement.from_triples(Q, [(1, 0, 0)])
    assert single.char_poly().factored_str() == "t(t-1)"


# ------------------------------------------------------------ root pairs


def test_root_pair_two_integer():
    rp = CharPoly(12, 35).roots()
    assert rp.classification == TWO_INTEGER
    assert (rp.low, rp.high) == (5, 7)
    assert rp.discriminant == 4
    assert rp.gap_cmp(2) == 0 and rp.gap_cmp(1) == 1 and rp.gap_cmp(3) == -1
    assert rp.cmp_low(5) == 0 and rp.cmp_high(Fraction(13, 2)) == 1


def test_root_pair_real_irrational():
    rp = CharPoly(8, 13).roots()
    assert rp.classification == REAL_IRRATIONAL
    assert rp.discriminant == 12
    assert rp.low == Surd(Fraction(4), Fraction(-1), 3)
    assert rp.high == Surd(Fraction(4), Fraction(1), 3)
    assert str(rp.low) == "4 - sqrt(3)"
    # 4 - sqrt(3) ~ 2.268, 4 + sqrt(3) ~ 5.732
    assert rp.cmp_low(2) == 1 and rp.cmp_low(3) == -1
    assert rp.cmp_high(5) == 1 and rp.cmp_high(6) == -1
    assert rp.cmp_low(Fraction(9, 4)) == 1
    # gap = 2*sqrt(3) ~ 3.46
    assert rp.gap_cmp(3) == 1 and rp.gap_cmp(4) == -1


def test_root_pair_complex():
    rp = triangle().char_poly().roots()
    assert rp.classification == COMPLEX_CONJUGATE
    assert rp.discriminant == -3
    assert rp.high == Surd(Fraction(3, 2), Fraction(1, 2), -3)
    with pytest.raises(PreconditionError):
        rp.cmp_low(0)
    with pytest.raises(PreconditionError):
        rp.gap_cmp(1)


def test_root_pair_gap_negative_k():
    with pytest.raises(PreconditionError):
        CharPoly(12, 35).roots().gap_cmp(-1)


@given(st.integers(0, 40), st.integers(0, 400))
def test_root_pair_invariants(n, b2):
    rp = RootPair.from_char_poly(CharPoly(n, b2))
    if rp.classification == TWO_INTEGER:
        assert rp.low + rp.high == n and rp.low * rp.high == b2
        assert rp.low <= rp.high
    else:
        assert rp.low.u == rp.high.u == Fraction(n, 2)
        assert rp.low.v == -rp.high.v
        s = rp.high
        # u^2 - v^2*rad... sign flips with rad: value is u^2 + |v^2 rad| for complex
        assert s.u * s.u - s.v * s.v * s.rad == b2
    if rp.classification == REAL_IRRATIONAL:
        assert rp.cmp_low(0) in (-1, 1)
        assert rp.cmp_high(n) == -1  # high root < n once b2 > 0; b2 = 0 is integer


def test_roots_memo_matches_from_char_poly():
    """roots() is memoized per (n, b2) in a bounded cache and returns the
    pair from_char_poly builds, in all three classes. The grid holds more
    pairs than the cache, so evicted pairs are rebuilt as well."""
    assert arrangement._roots.cache_info().maxsize == arrangement.ROOTS_CACHE_SIZE
    grid = [(n, b2) for n in range(-6, 31) for b2 in range(-20, 121)]
    assert len(grid) > arrangement.ROOTS_CACHE_SIZE
    seen = set()
    for _ in range(2):
        for n, b2 in grid:
            rp = CharPoly(n, b2).roots()
            assert rp == RootPair.from_char_poly(CharPoly(n, b2)), (n, b2)
            assert CharPoly(n, b2).roots() is rp
            seen.add(rp.classification)
    assert seen == {TWO_INTEGER, REAL_IRRATIONAL, COMPLEX_CONJUGATE}


def test_root_pair_mixed_sign_surds():
    # 1 - sqrt(5) ~ -1.236: u > 0 and v < 0
    rp = CharPoly(2, -4).roots()
    assert rp.low == Surd(Fraction(1), Fraction(-1), 5)
    assert rp.cmp_low(-2) == 1
    assert rp.cmp_low(-1) == -1
    assert rp.cmp_low(0) == -1
    # -1 + sqrt(5) ~ 1.236: u < 0 and v > 0
    rp = CharPoly(-2, -4).roots()
    assert rp.high == Surd(Fraction(-1), Fraction(1), 5)
    assert rp.cmp_high(1) == 1
    assert rp.cmp_high(2) == -1
    assert rp.cmp_high(Fraction(-3, 2)) == 1


def test_root_comparisons_match_surd_reference():
    """cmp_low, cmp_high and gap_cmp against the case analysis on u + v*sqrt(rad).

    Every CharPoly(n, b2) with n in [-12, 40] and b2 in [-60, 400]. q runs
    over n/2 and the halves and thirds next to each root (two below a
    root off the grid, one below one on it, and two above), so it hits
    every rational root and both sides of each root; k runs over 0 and
    the integers next to the gap.
    """
    for n in range(-12, 41):
        for b2 in range(-60, 401):
            rp = CharPoly(n, b2).roots()
            if rp.classification == COMPLEX_CONJUGATE:
                for cmp in (rp.cmp_low, rp.cmp_high, rp.gap_cmp):
                    with pytest.raises(PreconditionError):
                        cmp(0)
                continue
            root = math.sqrt(rp.discriminant)
            qs = {Fraction(n, 2)}
            for x in ((n - root) / 2, (n + root) / 2):
                for den in (2, 3):
                    k = math.floor(x * den)
                    qs.update(Fraction(j, den) for j in range(k - 1, k + 3))
            for q in qs:
                assert rp.cmp_low(q) == reference_cmp_root(rp.low, q), (n, b2, q)
                assert rp.cmp_high(q) == reference_cmp_root(rp.high, q), (n, b2, q)
            if rp.classification == TWO_INTEGER:
                gap = rp.high - rp.low
            else:
                # 2*v*sqrt(rad) as a surd with zero rational part
                gap = Surd(Fraction(0), 2 * rp.high.v, rp.high.rad)
            s = math.isqrt(rp.discriminant)
            for k in {0, *range(max(s - 1, 0), s + 3)}:
                assert rp.gap_cmp(k) == reference_cmp_root(gap, k), (n, b2, k)


# --------------------------------------------------------- incidence counts


def test_count_on_line_member_matches_n_counts():
    arr = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    for i, line in enumerate(arr.lines):
        assert arr.count_on_line(line) == arr.n_counts[i]


def test_count_on_line_non_member():
    arr = pencil(4)
    # a generic external line meets all 4 members in 4 distinct points
    assert arr.count_on_line(normalize_line(Q, 1, 7, -1)) == 4
    # through the center: one point only
    assert arr.count_on_line(normalize_line(Q, 1, 9, 0)) == 1


def test_sum_of_counts_identity():
    squares, star = (ARRANGEMENT_FIXTURES[n]() for n in ("squares_diagonals", "star7_transversal_q"))
    for arr in (pencil(5), squares, star, triangle()):
        assert sum(arr.n_counts) == arr.char_poly().b2 + len(arr.points)


# ----------------------------------------------------------------- editing


def test_delete_add_round_trip():
    arr = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    line = arr.lines[3]
    smaller = arr.delete(3)
    assert len(smaller) == 11 and line not in smaller
    assert smaller.add(line) == arr
    assert arr.delete(line) == smaller


def test_edit_errors():
    arr = pencil(3)
    with pytest.raises(MembershipError):
        arr.delete(normalize_line(Q, 1, 5, 5))
    with pytest.raises(MembershipError):
        arr.delete(3)
    with pytest.raises(MembershipError):
        arr.add(arr.lines[0])
    with pytest.raises(MembershipError):
        arr.subarrangement([0, 0])
    with pytest.raises(MembershipError):
        arr.subarrangement([5])


def test_add_takes_a_line_or_a_triple():
    arr = pencil(3)
    assert arr.add((0, 1, 5)) == arr.add(normalize_line(Q, 0, 1, 5))
    for bad in ((1, 0), [1, 0, 5], "0 1 5", None):
        with pytest.raises(PreconditionError, match="expected a Line"):
            arr.add(bad)


def test_set_equality_ignores_order():
    a = Arrangement.from_triples(Q, [(1, 0, 0), (0, 1, 0)])
    b = Arrangement.from_triples(Q, [(0, 1, 0), (1, 0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Arrangement.from_triples(F3, [(1, 0, 0), (0, 1, 0)])


# ---------------------------------------------- deletion-restriction identity


def check_deletion_restriction(arr):
    cp = arr.char_poly()
    n = len(arr)
    for i in range(n):
        smaller_cp = arr.delete(i).char_poly()
        n_h = arr.n_counts[i]
        for t in (0, 1, n):
            assert cp.eval(t) == smaller_cp.eval(t) - (t - n_h)


def test_deletion_restriction_fixtures():
    squares, star = (ARRANGEMENT_FIXTURES[n]() for n in ("squares_diagonals", "star7_transversal_r2"))
    for arr in (pencil(6), squares, star, f3_all()):
        check_deletion_restriction(arr)


def test_deletion_restriction_random():
    rng = random.Random(20260817)
    for field in (Q, F5):
        for _ in range(60):
            arr = random_arrangement(rng, field, 7, min_lines=1)
            check_deletion_restriction(arr)


# ------------------------------------------------------------- subsets


def test_sub_char_poly_matches_subarrangement():
    rng = random.Random(424242)
    for field in (Q, F5):
        for _ in range(60):
            arr = random_arrangement(rng, field, 8)
            idx = random_subset(rng, len(arr))
            direct = arr.subarrangement(idx).char_poly()
            fast = arr.sub_char_poly(idx)
            assert (fast.n, fast.b2) == (direct.n, direct.b2)


# ------------------------------------------------------- increasing orders


def test_order_increasing_full_base():
    arr = pencil(4)
    assert arr.order_increasing(range(4)) == ((), ())


def test_order_increasing_pencil_from_empty():
    order, counts = pencil(3).order_increasing([])
    assert counts == (0, 1, 1)
    assert order[0] == 0


def test_order_increasing_star7_from_pencil():
    arr = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    order, counts = arr.order_increasing(range(7))
    assert order == (7,) and counts == (7,)


def test_order_increasing_ties_break_by_index():
    arr = three_parallels()
    order, counts = arr.order_increasing([])
    assert order == (0, 1, 2) and counts == (0, 0, 0)


def test_order_increasing_counts_nondecreasing():
    rng = random.Random(97531)
    for field in (Q, F5):
        for _ in range(150):
            arr = random_arrangement(rng, field, 9)
            base = random_subset(rng, len(arr))
            order, counts = arr.order_increasing(base)
            assert sorted(order) == [i for i in range(len(arr)) if i not in set(base)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))
            # final-step count equals n_H of that line in the full arrangement
            if order:
                assert counts[-1] <= arr.n_counts[order[-1]]


# ----------------------------------------- integer keys against the reference
#
# Arrangement builds its lattice from integer point keys; tests/helpers.py
# keeps the field-scalar computation (pairwise divisions, recounting
# greedy loop) as the reference it must agree with.

LATTICE_FIELDS = (
    Q,
    Field.quadratic(2),
    Field.quadratic(-3),
    Field.prime(2),
    F5,
    Field.prime(13),
)


def scalar_strategy(field):
    if field.characteristic:
        return st.integers(0, field.p - 1).map(field.from_int)
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if field.kind == "quadratic":
        surd = st.sampled_from((0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)))
        return st.builds(lambda u, v: Quad(u, v, field.d), small, surd)
    return small


@st.composite
def line_strategy(draw, field, anchors, directions):
    """A line through an anchor, along a shared direction, or at random."""
    scalar = scalar_strategy(field)
    kind = draw(st.sampled_from(("anchor", "anchor", "direction", "free")))
    if kind == "free":
        a, b = draw(st.tuples(scalar, scalar).filter(lambda ab: ab[0] or ab[1]))
        return normalize_line(field, a, b, draw(scalar))
    a, b = draw(st.sampled_from(directions))
    if kind == "direction":
        return normalize_line(field, a, b, draw(scalar))
    x, y = draw(st.sampled_from(anchors))
    return normalize_line(field, a, b, -(a * x + b * y))


@st.composite
def lattice_case(draw):
    """(field, members, probe lines for count_on_line, base subset)."""
    field = draw(st.sampled_from(LATTICE_FIELDS))
    scalar = scalar_strategy(field)
    anchors = draw(st.lists(st.tuples(scalar, scalar), min_size=1, max_size=3))
    directions = draw(
        st.lists(
            st.tuples(scalar, scalar).filter(lambda ab: ab[0] or ab[1]),
            min_size=1,
            max_size=4,
        )
    )
    lines = line_strategy(field, anchors, directions)
    members = tuple(dict.fromkeys(draw(st.lists(lines, max_size=14))))
    probes = draw(st.lists(lines, max_size=4))
    base = draw(st.sets(st.integers(0, 13)))
    return field, members, probes, sorted(i for i in base if i < len(members))


def assert_same_lattice(arr, probes=(), bases=((),)):
    lines = arr.lines
    expected = reference_points(lines)
    assert len(arr.points) == len(expected)
    for got, want in zip(arr.points, expected):
        for g, w in ((got.x, want.x), (got.y, want.y)):
            assert type(g) is type(w) and g == w
        assert got.incident == want.incident
    # external_candidates joins the point keys as they are: each must be
    # the key of its point
    one = arr.field.one
    assert arr._point_keys == tuple(_key((pt.x, pt.y, one), one) for pt in arr.points)
    assert arr.n_counts == tuple(
        sum(1 for pt in expected if i in pt.incident) for i in range(len(lines))
    )
    assert arr.char_poly().b2 == sum(pt.multiplicity - 1 for pt in expected)
    for line in (*lines, *probes):
        assert arr.count_on_line(line) == reference_count_on_line(lines, line)
    for base in bases:
        assert arr.order_increasing(base) == reference_order_increasing(
            expected, len(lines), base
        )


@settings(max_examples=150, deadline=None)
@given(lattice_case())
def test_lattice_matches_reference(case):
    field, members, probes, base = case
    assert_same_lattice(Arrangement(field, members), probes, bases=((), base))


def pencil_with_parallels(field, through, extra_parallels):
    """Lines through one point, plus parallels to two of them."""
    x0, y0 = (field.from_int(t) for t in through)
    slopes = [field.from_int(t) for t in range(min(field.p or 6, 6))]
    lines = [normalize_line(field, field.one, m, -(x0 + m * y0)) for m in slopes]
    lines.append(normalize_line(field, field.zero, field.one, -y0))
    for a, b in (lines[0].direction, lines[-1].direction):
        for k in range(1, extra_parallels + 1):
            shifted = normalize_line(field, a, b, field.from_int(k) - a * x0 - b * y0)
            if shifted not in lines:
                lines.append(shifted)
    return Arrangement(field, lines)


def field_id(field):
    return format_field_header(field).removeprefix("field ").replace(" ", "")


@pytest.mark.parametrize("field", LATTICE_FIELDS, ids=field_id)
@pytest.mark.parametrize("extra_parallels", (0, 1, 3))
def test_lattice_matches_reference_on_tie_heavy_shapes(field, extra_parallels):
    """All-concurrent pencils, then parallel classes added to them: most
    greedy steps tie, so the order is decided by the index tie-break."""
    arr = pencil_with_parallels(field, (1, 2), extra_parallels)
    n = len(arr)
    rng = random.Random(n * 131 + extra_parallels)
    bases = [(), tuple(range(n)), (0,), (n - 1,)]
    bases += [tuple(random_subset(rng, n)) for _ in range(6)]
    probes = [normalize_line(field, field.one, field.one, field.from_int(k)) for k in range(4)]
    assert_same_lattice(arr, probes, bases)


@pytest.fixture
def point_scalar_calls(monkeypatch):
    """Sizes of the _key_scalars calls on point keys (head 2), in either
    module that imports it; line keys (head 0) are not counted."""
    calls = []

    def spy(keys, head, one):
        if head:
            calls.append(len(keys))
        return _key_scalars(keys, head, one)

    for module in (arrangement, freeness):
        monkeypatch.setattr(module, "_key_scalars", spy)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        ARRANGEMENT_FIXTURES["squares_diagonals"],
        ARRANGEMENT_FIXTURES["star7_transversal_r2"],
        f3_all,
        lambda: pencil_with_parallels(F5, (1, 2), 1),
    ],
    ids=["Q", "Qsqrt2", "F3", "F5"],
)
def test_point_scalars_are_built_on_first_read(point_scalar_calls, make):
    arr = make()
    run_criteria(arr)
    verify_root_window(arr)
    arr.order_increasing(())
    arr.sub_char_poly((0, 1))
    assert point_scalar_calls == []
    points = arr.points
    assert point_scalar_calls == [len(points)] and len(points) > 1
    assert arr.points is points and point_scalar_calls == [len(points)]


def test_lattice_matches_reference_on_grids_and_fixtures():
    grids = [
        Arrangement.from_triples(F, [(1, 0, -k) for k in range(m)] + [(0, 1, -k) for k in range(m)])
        for F, m in ((Q, 5), (F5, 5), (Field.prime(2), 2))
    ]
    squares, star = (ARRANGEMENT_FIXTURES[n]() for n in ("squares_diagonals", "star7_transversal_r2"))
    for arr in (*grids, squares, star, f3_all(), three_parallels()):
        assert_same_lattice(arr, bases=((), (0,), tuple(range(len(arr) // 2))))


# ----------------------------------------------------------------- file IO


ARR_TEXT = """\
# squares minus diagonals
field Q
line 1 0 0
line 0 1 0
line 1 0 -1   # x = 1
line 0 1 -1
"""


def test_parse_arrangement_basic():
    arr = parse_arrangement(ARR_TEXT)
    assert len(arr) == 4
    assert arr.char_poly().factored_str() == "(t-2)^2"


def test_parse_arrangement_quadratic_and_prime():
    arr = parse_arrangement("field Q sqrt 2\nline 1 r 0\nline 1 -r 1/2\n")
    assert arr.field == Field.quadratic(2)
    assert arr.lines[0].b == Quad(0, 1, 2)
    arr = parse_arrangement("field F 5\nline 1 4 2\nline 0 1 0\n")
    assert arr.field == Field.prime(5)


def test_parse_large_prime_header_is_fast():
    start = time.perf_counter()
    arr = parse_arrangement("field F 1000000000000000003\nline 1 0 0\n")
    assert time.perf_counter() - start < 1.0
    assert arr.field == Field.prime(1000000000000000003)
    for p in ("561", "3215031751", "3825123056546413051", "3317044064679887385961981"):
        with pytest.raises(ParseError, match="bad field header"):
            parse_arrangement(f"field F {p}\nline 1 0 0\n")


def test_parse_huge_quadratic_header_is_fast():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bad field header"):
        parse_arrangement("field Q sqrt 100000000000000000000000000007\nline 1 0 0\n")
    assert time.perf_counter() - start < 1.0


def parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_arrangement(text, path="input.arr")
    return info.value


def test_parse_errors_report_position():
    err = parse_error("line 1 0 0\n")
    assert (err.line, err.column) == (1, 1)
    assert "field header" in err.message

    err = parse_error("field Q\npoint 1 0 0\n")
    assert (err.line, err.column) == (2, 1)
    assert "point" in err.message

    err = parse_error("field Q\nline 1 0\n")
    assert (err.line, err.column) == (2, 1)
    assert "3 arguments" in err.message

    err = parse_error("field Q\nline 1 0/0 3\n")
    assert err.line == 2 and err.column == 8
    assert str(err).startswith("input.arr:2:8:")

    err = parse_error("field Q\nline 0 0 5\n")
    assert err.line == 2 and "not a line" in err.message

    err = parse_error("field Q\nline 1 2 3\nline 2 4 6\n")
    assert err.line == 3 and "input line 2" in err.message

    err = parse_error("field Q sqrt 12\nline 1 0 0\n")
    assert err.line == 1 and "squarefree" in err.message

    err = parse_error("field F 4\nline 1 0 0\n")
    assert err.line == 1

    err = parse_error("")
    assert err.line == 1 and "missing field header" in err.message

    err = parse_error("field Q\nline 1 r 0\n")
    assert err.line == 2 and err.column == 8


def test_field_headers_use_the_scalar_grammar():
    # int() alone accepts underscores between digits and, like regex \d,
    # every Unicode decimal digit: ٣ is the Arabic-Indic three
    for header in ("field F 1_009", "field Q sqrt 1_3", "field F 5.0", "field F ٣"):
        err = parse_error(f"{header}\nline 1 0 0\n")
        assert (err.line, err.column) == (1, 1) and "not an integer" in err.message
    for text, column, message in (
        ("field F 5\nline 1_0 1 0\n", 6, "bad residue '1_0'"),
        ("field F 5\nline ٣ 1 0\n", 6, "bad residue '٣'"),
        ("field Q\nline ٣/2 1 0\n", 6, "bad rational '٣/2'"),
        ("field Q sqrt 2\nline 1 1+٣r 0\n", 8, "bad quadratic scalar '1+٣r'"),
    ):
        err = parse_error(text)
        assert (err.line, err.column, err.message) == (2, column, message)
    assert parse_arrangement("field F +1009\n").field == Field.prime(1009)


_NON_ASCII_DIGIT = st.characters(categories=["Nd"]).filter(lambda c: not c.isascii())
_SCALAR_TEXT = st.text("0123456789+-/r", max_size=4)


@settings(max_examples=200, deadline=None)
@given(_SCALAR_TEXT, _NON_ASCII_DIGIT, _SCALAR_TEXT)
def test_non_ascii_digits_are_refused(head, digit, tail):
    token = head + digit + tail
    for field in (Field.rationals(), Field.quadratic(2), Field.prime(5)):
        with pytest.raises(ParseError):
            field.parse_scalar(token)
    for header in (f"field F {token}", f"field Q sqrt {token}"):
        assert parse_error(f"{header}\n").line == 1


def test_overlong_numbers_are_parse_errors():
    # past Python's int-string digit limit int() raises a bare ValueError
    digits = "9" * 5000
    err = parse_error(f"field F 5\nline 1 0 {digits}\n")
    assert (err.line, err.column) == (2, 10) and "bad residue" in err.message
    err = parse_error(f"field Q\nline 1 {digits}/7 0\n")
    assert (err.line, err.column) == (2, 8)
    with pytest.raises(ParseError) as info:
        parse_multiarrangement(f"field Q\nmline 1 0 {digits}\n")
    assert (info.value.line, info.value.column) == (2, 11)
    assert "bad multiplicity" in info.value.message


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("field Q\nline 1 0 1x", (2, 10), "bad rational '1x'"),
        ("field Q\nline 1 0 " + "7" * 40 + "x", (2, 10), "bad rational '" + "7" * 32 + "…' (41 chars)"),
        (
            "field Q sqrt 2\nline 1 0 2*" + "3" * 40,
            (2, 10),
            "bad quadratic scalar '2*" + "3" * 30 + "…' (42 chars)",
        ),
        (
            "field Q sqrt 2\nline 1 0 1/" + "0" * 40 + "r",
            (2, 10),
            "bad rational '1/" + "0" * 30 + "…' (42 chars)",
        ),
        ("field F 5\nline 1 0 " + "x" * 4400, (2, 10), "bad residue '" + "x" * 32 + "…' (4400 chars)"),
        (
            "field F 5\nline 1 0 " + "8" * 4400,
            (2, 10),
            "bad residue '" + "8" * 32 + "…' (4400 chars): too many digits",
        ),
        (
            "field F " + "x" * 5000 + "\nline 1 0 0",
            (1, 1),
            "bad field header: '" + "x" * 32 + "…' (5000 chars): not an integer",
        ),
        (
            "field F " + "7" * 4400 + "\nline 1 0 0",
            (1, 1),
            "bad field header: '" + "7" * 32 + "…' (4400 chars): too many digits",
        ),
        (
            "field Q sqrt -" + "5" * 4400 + "\nline 1 0 0",
            (1, 1),
            "bad field header: '-" + "5" * 31 + "…' (4401 chars): too many digits",
        ),
        (
            "field F " + "7" * 4000 + "\nline 1 0 0",
            (1, 1),
            "bad field header: a 13288-bit integer is beyond the certified primality range",
        ),
        (
            "field Q sqrt " + "3" * 4000 + "\nline 1 0 0",
            (1, 1),
            "bad field header: |d| = a 13287-bit integer is not below",
        ),
    ],
    ids=[
        "short",
        "rational",
        "quadratic",
        "zero-denominator",
        "residue",
        "digit-limit",
        "header-letters",
        "header-digit-limit",
        "header-quadratic-digit-limit",
        "header-prime-range",
        "header-quadratic-range",
    ],
)
def test_parse_errors_show_at_most_32_token_characters(text, where, message):
    err = parse_error(text + "\n")
    assert (err.line, err.column) == where
    assert err.message.startswith(message)
    assert len(err.message) < len(message) + 60


@pytest.mark.parametrize(
    "token, message",
    [
        ("9" * 4400, "bad multiplicity '" + "9" * 32 + "…' (4400 chars): too many digits"),
        ("x" * 400, "multiplicity must be a positive integer, got '" + "x" * 32 + "…' (400 chars)"),
    ],
    ids=["digit-limit", "letters"],
)
def test_multiplicity_errors_show_at_most_32_token_characters(token, message):
    with pytest.raises(ParseError) as info:
        parse_multiarrangement(f"field Q\nmline 1 0 {token}\n")
    assert (info.value.line, info.value.column) == (2, 11)
    assert info.value.message == message


_DUPLICATE_LINE = "duplicate line (same as line directive on input line 2)"
_DUPLICATE_CENTRAL = "duplicate central (same as mline on input line 2)"
_ZERO_MULT = "multiplicity must be a positive integer, got '0'"


@pytest.mark.parametrize(
    "parse, text, where, message",
    [
        (parse_arrangement, "field Q\nline 1 2 3\nline 2 4 6", (3, 1), _DUPLICATE_LINE),
        (parse_arrangement, "field F 5\nline 1 2 3\n  line 2 4 1", (3, 3), _DUPLICATE_LINE),
        (parse_arrangement, "field Q\nline 1 2 3\nline 2 4 6\nline 0 0 1", (3, 1), _DUPLICATE_LINE),
        (parse_multiarrangement, "field Q\nmline 1 0 1\nmline 2 0 1", (3, 1), _DUPLICATE_CENTRAL),
        (parse_multiarrangement, "field Q sqrt 2\nmline 1 r 1\n mline r 2 3", (3, 2), _DUPLICATE_CENTRAL),
        (parse_arrangement, "field Q\nline 0 0 1", (2, 1), "not a line: a and b are both zero"),
        (parse_arrangement, "field Q sqrt 2\n line 0 0 r", (2, 2), "not a line: a and b are both zero"),
        (parse_multiarrangement, "field Q\nmline 0 0 2", (2, 1), "not a direction: a and b are both zero"),
        (parse_multiarrangement, "field F 5\nmline 5 0 2", (2, 1), "not a direction: a and b are both zero"),
        (parse_arrangement, "field Q\nline 1 x 0", (2, 8), "bad rational 'x'"),
        (parse_multiarrangement, "field Q\nmline 1 x 2", (2, 9), "bad rational 'x'"),
        (parse_multiarrangement, "field Q\nmline x 0 0", (2, 7), "bad rational 'x'"),
        (parse_multiarrangement, "field Q\nmline 1 0 0", (2, 11), _ZERO_MULT),
        (parse_multiarrangement, "field Q\nmline 1 0 x", (2, 11), "multiplicity must be a positive integer, got 'x'"),
        (parse_multiarrangement, "field Q\nmline 0 0 0", (2, 11), _ZERO_MULT),
        (parse_multiarrangement, "field Q\nmline 1 0 1\nmline 1 0 0", (3, 11), _ZERO_MULT),
        (parse_arrangement, "field Q\nline 1 x 0\nline 1 0", (3, 1), "line takes 3 arguments"),
        (parse_multiarrangement, "field Q\nmline 1 x 2\nmline 1 0", (3, 1), "mline takes 3 arguments"),
        (parse_multiarrangement, "field Q\nmline 0 0 2\nmline 1 0 1 1", (3, 1), "mline takes 3 arguments"),
    ],
    ids=[
        "arr-duplicate",
        "arr-duplicate-indented",
        "arr-duplicate-before-degenerate",
        "marr-duplicate",
        "marr-duplicate-indented",
        "arr-degenerate",
        "arr-degenerate-indented",
        "marr-degenerate",
        "marr-degenerate-residues",
        "arr-bad-scalar",
        "marr-bad-scalar",
        "marr-bad-scalar-before-multiplicity",
        "marr-zero-multiplicity",
        "marr-bad-multiplicity",
        "marr-multiplicity-before-degenerate",
        "marr-multiplicity-before-duplicate",
        "arr-arity-after-bad-scalar",
        "marr-arity-after-bad-scalar",
        "marr-arity-after-degenerate",
    ],
)
def test_row_errors_keep_their_text_and_position(parse, text, where, message):
    with pytest.raises(ParseError) as info:
        parse(text + "\n", path="in")
    assert (info.value.line, info.value.column, info.value.message) == (*where, message)


_FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        ["field", "Q", "F", "sqrt", "line", "mline", "#", "r", "-r", "2+3r", "1/0",
         "3/2", "-1/2r", "2*r", "0", "1", "-1", "5", "7", "12", "1" + "0" * 30]
    ),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["9" * 4301, "1/" + "3" * 4400, "2+" + "7" * 4400 + "r"]),
    st.text(max_size=6),
)
_FUZZ_ROWS = st.one_of(
    st.tuples(st.sampled_from(["line", "mline"]), _FUZZ_TOKENS, _FUZZ_TOKENS, _FUZZ_TOKENS),
    st.lists(_FUZZ_TOKENS, max_size=5),
).map(" ".join)
_FUZZ_TEXT = st.one_of(st.lists(_FUZZ_ROWS, max_size=6).map("\n".join), st.text(max_size=40))


@given(_FUZZ_TEXT, st.sampled_from(["field Q", "field Q sqrt 2", "field F 5", ""]))
@example("line 1 0 " + "9" * 4301, "field F 5")
@example("mline 1 0 " + "9" * 4301, "field Q")
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_parse_error(body, header):
    for parse in (parse_arrangement, parse_multiarrangement):
        try:
            parse(f"{header}\n{body}")
        except ParseError:
            pass



_NEAR_CAPS = st.builds(
    lambda cap, offset, sign: str(sign * (cap + offset)),
    st.sampled_from([SQUAREFREE_CAP, PRIMALITY_CAP]),
    st.integers(-30, 30),
    st.sampled_from([1, -1]),
)
_HEADER_TOKENS = st.one_of(
    _NEAR_CAPS,
    st.integers().map(str),
    st.sampled_from(["+7", "1_009", "0x1f", "1e9", "٣", "nan", "sqrt", "r", "9" * 5000]),
    st.text(max_size=8),
)
_HEADERS = st.one_of(
    st.builds("field Q sqrt {}".format, _HEADER_TOKENS),
    st.builds("field F {}".format, _HEADER_TOKENS),
    st.builds("field {} {}".format, st.sampled_from(["Q", "F", "q", "Q sqrt sqrt"]), _HEADER_TOKENS),
)


@given(_HEADERS)
@example("field Q sqrt 999999999989")
@example(f"field Q sqrt -{SQUAREFREE_CAP - 1}")
@example(f"field F {PRIMALITY_CAP - 2}")
@settings(max_examples=60, deadline=None)
def test_any_field_header_answers_in_time(header):
    start = time.perf_counter()
    try:
        field = parse_arrangement(header + "\n").field
    except ParseError:
        pass
    else:
        assert isinstance(field, Field)
    assert time.perf_counter() - start < 2.0


def test_format_round_trip_fixtures():
    for arr in (
        pencil(5),
        ARRANGEMENT_FIXTURES["squares_diagonals"](),
        ARRANGEMENT_FIXTURES["star7_transversal_r2"](),
        f3_all(),
        Arrangement(Q, []),
    ):
        text = format_arrangement(arr)
        again = parse_arrangement(text)
        assert again == arr and again.lines == arr.lines


ROUND_TRIP_FIELDS = (Q, Field.quadratic(2), Field.quadratic(-3), F5, Field.prime(101))


@st.composite
def round_trip_case(draw):
    """(field, scalar, arrangement), scalars and coefficients from scalar_strategy."""
    field = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    scalar = scalar_strategy(field)
    direction = st.tuples(scalar, scalar).filter(lambda ab: ab[0] or ab[1])
    triples = draw(st.lists(st.tuples(direction, scalar), max_size=8))
    lines = dict.fromkeys(normalize_line(field, a, b, c) for (a, b), c in triples)
    return field, draw(scalar), Arrangement(field, lines)


@settings(max_examples=150)
@given(round_trip_case())
def test_format_round_trip_random(case):
    field, x, arr = case
    assert field.parse_scalar(field.format_scalar(x)) == x
    again = parse_arrangement(format_arrangement(arr))
    assert again == arr and again.lines == arr.lines


@settings(max_examples=60)
@given(st.integers(2, 7), st.integers(0, 6))
def test_pencil_plus_parallels_b2(n, k):
    # pencil of n lines through the origin plus k horizontals y = 1..k:
    # the k lines meet each pencil line once (y = 0 is parallel to them)
    arr = pencil(n)
    horizontal_members = sum(1 for ln in arr.lines if ln.direction == (Q.zero, Q.one))
    for j in range(1, k + 1):
        arr = arr.add((0, 1, -j))
    expect = (n - 1) + k * (n - horizontal_members)
    assert arr.char_poly().b2 == expect
