"""Exhaustive finite-plane computations over small prime fields.

Expected point sets, spectra, and witnesses were enumerated by hand
over F_2 and F_3 (9 points, 12 lines), then frozen here.
"""

import random
from itertools import combinations

import pytest

from helpers import (
    Q,
    field_directions,
    random_arrangement,
    random_multiarrangement,
    reference_plane_scan,
)
from linarr.arrangement import Arrangement, normalize_line
from linarr.derivations import Multiarrangement, is_member
from linarr.errors import PreconditionError
from linarr.exactalg import Field
from linarr.fixtures import ARRANGEMENT_FIXTURES
from linarr.fqscan import (
    FiniteBoundsReport,
    PlaneEnumeration,
    complement_count,
    complement_points,
    finite_exponent_bounds,
    frobenius_derivation,
    line_spectrum,
    order_minus_one_root,
    order_root,
)
from linarr.freeness import FREE, NOT_FREE, PLANE_PRIME_CAP, CriterionEntry, decide_free

F2 = Field.prime(2)
F3 = Field.prime(3)


def f3(triples):
    return Arrangement.from_triples(F3, triples)


# ------------------------------------------------------------- enumeration


@pytest.mark.parametrize("p", [2, 3, 5])
def test_plane_enumeration_incidence(p):
    plane = PlaneEnumeration(p)
    assert len(plane.points) == p * p
    assert len(plane.lines) == p * p + p
    for line in plane.lines:
        pts = [plane.points[k] for k in plane.on_line[plane.line_ids[line]]]
        assert len(pts) == p
        assert all(line.a * x + line.b * y + line.c == plane.field.zero for x, y in pts)
    for (x, y), ids in zip(plane.points, plane.through):
        assert len(ids) == p + 1
        assert all(not (L.a * x + L.b * y + L.c) for L in map(plane.lines.__getitem__, ids))


def test_plane_enumeration_guards():
    with pytest.raises(PreconditionError, match="not prime"):
        PlaneEnumeration(4)
    for p in (17, 19):
        with pytest.raises(PreconditionError, match="enumeration cap"):
            PlaneEnumeration(p)
    plane = PlaneEnumeration(3)
    with pytest.raises(AttributeError):
        plane.p = 5


def test_prime_cap_value():
    assert PLANE_PRIME_CAP == 13
    assert PlaneEnumeration(13).p == 13


# ------------------------------------------------------------ point counts


def test_complement_points_frozen():
    A = ARRANGEMENT_FIXTURES["f3_three"]()
    pts = complement_points(A)
    # {x, x - 1, y} leaves exactly (2, 1) and (2, 2) uncovered
    field = A.field
    expected = {(field.from_int(2), field.from_int(1)), (field.from_int(2), field.from_int(2))}
    assert set(pts) == expected
    assert complement_count(A) == 2 == A.char_poly().eval(3)


def test_complement_count_table():
    empty = f3([])
    assert complement_count(empty) == 9
    assert complement_count(ARRANGEMENT_FIXTURES["f3_pencil"]()) == 0
    assert complement_count(ARRANGEMENT_FIXTURES["f3_all"]()) == 0


def test_complement_needs_prime_field():
    with pytest.raises(PreconditionError, match="prime field"):
        complement_count(ARRANGEMENT_FIXTURES["pencil3"]())


# ---------------------------------------------------------------- spectrum


def test_line_spectrum_frozen():
    spec = line_spectrum(f3([]))
    assert spec.members == ()
    assert spec.externals == ((0, 12),)

    spec = line_spectrum(ARRANGEMENT_FIXTURES["f3_three"]())
    assert spec.members == ((1, 2), (2, 1))
    assert spec.externals == ((1, 1), (2, 6), (3, 2))
    assert spec.member_values == (1, 2)
    assert spec.external_values == (1, 2, 3)
    assert spec.combined == ((1, 3), (2, 7), (3, 2))

    spec = line_spectrum(ARRANGEMENT_FIXTURES["f3_pencil"]())
    assert spec.members == ((1, 4),)
    assert spec.externals == ((3, 8),)

    spec = line_spectrum(ARRANGEMENT_FIXTURES["f3_all"]())
    assert spec.members == ((3, 12),)
    assert spec.externals == ()


def test_line_spectrum_counts_every_line():
    for name in ("f3_three", "f3_pencil", "f3_all"):
        A = ARRANGEMENT_FIXTURES[name]()
        spec = line_spectrum(A)
        assert sum(c for _, c in spec.members) == len(A)
        assert sum(c for _, c in spec.externals) == 12 - len(A)


def test_spectrum_respects_free_window():
    # free with exponents (1, 2): members lie in Z_<=1 union {2},
    # externals in {1} union Z_>=2
    A = ARRANGEMENT_FIXTURES["f3_three"]()
    low, high = decide_free(A).exponents
    spec = line_spectrum(A)
    assert all(v <= low or v == high for v in spec.member_values)
    assert all(v == low or v >= high for v in spec.external_values)


# ------------------------------------------------ against the brute force


def plane_samples(rng, field, count):
    """Random arrangements alternating with grids: p - 1 parallel lines
    crossed by d <= p - 1 lines of another direction, so that
    chi = (t - (p - 1))(t - d) and order_minus_one_root needs a witness."""
    p = field.p
    for k in range(count):
        if k % 2:
            yield random_arrangement(rng, field, max_lines=2 * p)
            continue
        (a, b), (a2, b2) = rng.sample(field_directions(field), 2)
        lines = [normalize_line(field, a, b, c) for c in rng.sample(range(p), p - 1)]
        lines += [
            normalize_line(field, a2, b2, c)
            for c in rng.sample(range(p), rng.randint(0, p - 1))
        ]
        rng.shuffle(lines)
        yield Arrangement(field, lines)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_scans_match_brute_force_reference(p):
    field = Field.prime(p)
    witnessed = 0
    for A in plane_samples(random.Random(p), field, 40):
        members, externals, complement, witness = reference_plane_scan(A)
        spec = line_spectrum(A)
        assert (spec.members, spec.externals) == (members, externals)
        assert complement_points(A) == complement
        chi = A.char_poly()
        if chi.eval(p - 1) or not chi.eval(p):
            continue
        witnessed += 1
        fmt = field.format_scalar
        assert order_minus_one_root(A) == CriterionEntry(
            "order_minus_one_root",
            True,
            FREE,
            {
                "root": p - 1,
                "complement": len(complement),
                "exponents": decide_free(A).exponents,
                "witness": f"{fmt(witness.a)} {fmt(witness.b)} {fmt(witness.c)}",
                "witness_count": p - 1,
            },
        )
    assert witnessed >= 20


def test_line_spectrum_reads_no_lattice_keys(monkeypatch):
    def refuse(self, line):
        raise AssertionError("line_spectrum called count_on_line")

    arrangements = [ARRANGEMENT_FIXTURES[n]() for n in ("f3_three", "f3_pencil", "f3_all")]
    arrangements += list(plane_samples(random.Random(5), Field.prime(5), 6))
    monkeypatch.setattr(Arrangement, "count_on_line", refuse)
    for A in arrangements:
        spec = line_spectrum(A)
        assert sum(c for _, c in spec.combined) == A.field.p ** 2 + A.field.p


# ---------------------------------------------------------- order criteria


def test_order_root_free_branch():
    entry = order_root(ARRANGEMENT_FIXTURES["f3_pencil"]())
    assert entry.conclusion == FREE
    assert entry.evidence == {"root": 3, "exponents": (1, 3)}
    entry = order_root(ARRANGEMENT_FIXTURES["f3_all"]())
    assert entry.evidence == {"root": 3, "exponents": (3, 9)}


def test_order_root_inapplicable_below_size_bound():
    entry = order_root(ARRANGEMENT_FIXTURES["f3_three"]())
    assert not entry.applicable
    assert entry.evidence["reason"] == "chi(3) = 2 and |A| = 3 < 5"


def test_order_root_not_free_branch():
    # first 5-line subset of the plane with chi(3) != 0; by the size
    # bound |A| = 5 >= 2p - 1 that value proves non-freeness
    plane = PlaneEnumeration(3)
    for lines in combinations(plane.lines, 5):
        A = Arrangement(F3, list(lines))
        if A.char_poly().eval(3) != 0:
            entry = order_root(A)
            assert entry.conclusion == NOT_FREE
            assert entry.evidence == {"chi_at_order": 1, "size": 5, "size_bound": 5}
            assert not decide_free(A).is_free
            return
    pytest.fail("no 5-line not-free subset found")


def test_order_minus_one_root_witness():
    entry = order_minus_one_root(ARRANGEMENT_FIXTURES["f3_three"]())
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "root": 2,
        "complement": 2,
        "exponents": (1, 2),
        "witness": "1 1 0",
        "witness_count": 2,
    }
    # the witness x + y = 0 passes through (2, 1) but not (2, 2)
    A = ARRANGEMENT_FIXTURES["f3_three"]()
    assert A.count_on_line(Arrangement.from_triples(F3, [(1, 1, 0)]).lines[0]) == 2


def test_order_minus_one_root_dispatches_at_zero_complement():
    # pencil of all four directions plus x = 2: chi = (t-2)(t-3), so
    # p - 1 is a root while the complement is empty
    A = ARRANGEMENT_FIXTURES["f3_pencil"]().add((1, 0, 1))
    assert A.char_poly().factored_str() == "(t-2)(t-3)"
    entry = order_minus_one_root(A)
    assert entry.conclusion == FREE
    assert entry.evidence == {"root": 2, "complement": 0, "dispatched": "order_root"}


def test_order_minus_one_root_inapplicable():
    entry = order_minus_one_root(ARRANGEMENT_FIXTURES["f3_all"]())
    assert not entry.applicable
    assert entry.evidence["reason"] == "chi(2) = 7"


def test_order_criteria_need_prime_field():
    A = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    with pytest.raises(PreconditionError):
        order_root(A)
    with pytest.raises(PreconditionError):
        order_minus_one_root(A)


# ------------------------------------------------------------- multiarr


def test_frobenius_derivation_shape():
    theta = frobenius_derivation(F3)
    assert theta.degree == 3
    assert theta.px == (F3.one, F3.zero, F3.zero, F3.zero)
    assert theta.py == (F3.zero, F3.zero, F3.zero, F3.one)
    with pytest.raises(PreconditionError):
        frobenius_derivation(Q)


def test_frobenius_membership_random():
    rng = random.Random(7)
    for p in (2, 3, 5):
        field = Field.prime(p)
        theta = frobenius_derivation(field)
        for _ in range(25):
            M = random_multiarrangement(rng, field, max_h=p + 1, max_mult=p)
            assert is_member(M, theta)


def test_finite_exponent_bounds_frozen():
    m33 = Multiarrangement(F3, [(1, 0), (0, 1)], [3, 3])
    report = finite_exponent_bounds(m33)
    assert report == FiniteBoundsReport(
        True, 3, 6, (3, 3), ("no_straddle", "min_is_order", "frobenius_member")
    )

    m221 = Multiarrangement(F3, [(1, 0), (0, 1), (1, 1)], [2, 2, 1])
    report = finite_exponent_bounds(m221)
    assert report.exponents == (2, 3)
    assert report.checks == ("no_straddle", "max_is_order", "frobenius_member")

    m551 = Multiarrangement(F3, [(1, 0), (0, 1), (1, 1)], [5, 5, 1])
    report = finite_exponent_bounds(m551)
    assert not report.applicable
    assert report.reason == "a multiplicity exceeds 3"
    assert report.exponents is None and report.checks == ()


def test_finite_exponent_bounds_random():
    rng = random.Random(40)
    for p in (2, 3, 5):
        field = Field.prime(p)
        for _ in range(20):
            M = random_multiarrangement(rng, field, max_h=p + 1, max_mult=p)
            report = finite_exponent_bounds(M)
            assert report.applicable
            assert "no_straddle" in report.checks
            assert "frobenius_member" in report.checks
            d1, d2 = report.exponents
            assert not (d1 < p < d2)
