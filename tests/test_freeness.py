"""The exact freeness decision and the full criteria battery.

Every expected verdict here was derived by hand from the intersection
lattice: b2 as the sum of (multiplicity - 1) over intersection points,
freeness via b2 against the product of the at-infinity restriction
exponents, window facts from the integer roots.
"""

import hashlib
import random
from itertools import combinations

import pytest

from helpers import (
    Q,
    external_candidates_reference,
    irrational,
    random_arrangement,
    reference_intersect,
)
from linarr.arrangement import (
    COMPLEX_CONJUGATE,
    REAL_IRRATIONAL,
    TWO_INTEGER,
    Arrangement,
    CharPoly,
    Line,
    line_through,
    format_arrangement,
    load_arrangement,
    normalize_line,
)
from linarr.derivations import AT_INFINITY, exponents, ziegler_restriction
from linarr import freeness
from linarr.errors import InvariantViolation, MembershipError
from linarr.exactalg import _JOIN, Field, _key, _key_scalars
from linarr.fixtures import ARRANGEMENT_FIXTURES, fixture_names, fixture_path, pencil
from linarr.freeness import (
    FREE,
    NO_CONCLUSION,
    NOT_FREE,
    FreenessCertificate,
    addition,
    bracketing_sub,
    candidate_subarrangements,
    decide_free,
    deletion_pair,
    external_candidates,
    intermediate_search,
    root_gap,
    root_incidence,
    run_criteria,
    small_exponent_sub,
    subfree,
    verify_root_window,
)

F3 = Field.prime(3)
F5 = Field.prime(5)


def mk(triples, field=Q):
    return Arrangement.from_triples(field, triples)


def grid_with_diagonal():
    # x, y, x-y and the shifted verticals/horizontals x-1, x-2, y-1, y-2:
    # three triple points on the diagonal, six doubles, b2 = 12
    return mk(
        [(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 0, -1), (1, 0, -2), (0, 1, -1), (0, 1, -2)]
    )


def pencil_with_transversal():
    # five lines through the origin plus x + 3y = 1 crossing all of them
    # in distinct points: b2 = 4 + 5 = 9, chi = (t-3)^2
    return mk(
        [(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0), (1, 2, 0), (1, 3, -1)]
    )


def grid_three_by_two():
    # x, x-1, x-2 against y, y-1: six double points, chi = (t-2)(t-3)
    return mk([(1, 0, 0), (1, 0, -1), (1, 0, -2), (0, 1, 0), (0, 1, -1)])


def triangle():
    # x, y, x+y-1: three doubles, chi = t^2 - 3t + 3 with complex roots
    return mk([(1, 0, 0), (0, 1, 0), (1, 1, -1)])


# ------------------------------------------------------------ decide_free

# name -> (verdict, exponents, b2)
FIXTURE_VERDICTS = {
    "pencil3": (FREE, (1, 2), 2),
    "pencil4": (FREE, (1, 3), 3),
    "pencil5": (FREE, (1, 4), 4),
    "pencil6": (FREE, (1, 5), 5),
    "pencil7": (FREE, (1, 6), 6),
    "pencil8": (FREE, (1, 7), 7),
    "star7_transversal_r2": (NOT_FREE, None, 13),
    "star7_transversal_q": (NOT_FREE, None, 13),
    "squares_diagonals": (FREE, (5, 7), 35),
    "pentagon_r5": (FREE, (5, 5), 25),
    "subfree_gap_a": (FREE, (3, 5), 15),
    "subfree_gap_b": (NOT_FREE, None, 9),
    "subfree_gap_c": (FREE, (1, 3), 3),
    "f3_three": (FREE, (1, 2), 2),
    "f3_pencil": (FREE, (1, 3), 3),
    "f3_all": (FREE, (3, 9), 27),
}


def test_decide_free_on_every_fixture():
    assert set(FIXTURE_VERDICTS) == set(ARRANGEMENT_FIXTURES)
    for name, (verdict, exps, b2) in FIXTURE_VERDICTS.items():
        A = ARRANGEMENT_FIXTURES[name]()
        cert = decide_free(A)
        assert cert.verdict == verdict, name
        assert cert.exponents == exps, name
        assert cert.b2 == b2, name
        assert cert.d1 + cert.d2 == len(A), name
        if verdict == FREE:
            assert cert.d1 * cert.d2 == b2, name
        else:
            assert cert.d1 * cert.d2 < b2, name


def test_certificate_fields():
    cert = decide_free(ARRANGEMENT_FIXTURES["squares_diagonals"]())
    assert cert.is_free
    assert (cert.d1, cert.d2) == (5, 7)
    assert cert.target == AT_INFINITY
    cert = decide_free(ARRANGEMENT_FIXTURES["star7_transversal_q"]())
    assert not cert.is_free
    assert cert.exponents is None
    assert (cert.d1, cert.d2) == (1, 7)
    assert cert.d1 * cert.d2 == 7 < 13 == cert.b2


def test_decide_free_member_target_agrees():
    for name in ("pencil5", "squares_diagonals", "pentagon_r5", "star7_transversal_q", "f3_pencil"):
        A = ARRANGEMENT_FIXTURES[name]()
        at_inf = decide_free(A)
        for i in range(len(A)):
            cert = decide_free(A, i)
            assert cert.verdict == at_inf.verdict, (name, i)
            assert cert.target == A.lines[i]
            assert cert.d1 + cert.d2 == len(A)


def test_decide_free_rejects_bad_target():
    A = pencil(4)
    with pytest.raises(MembershipError):
        decide_free(A, 99)
    with pytest.raises(MembershipError):
        decide_free(A, -1)


def test_hand_instances_decide_free():
    A = grid_with_diagonal()
    assert str(A.char_poly()) == "t^2 - 7 t + 12"
    assert decide_free(A).exponents == (3, 4)

    B = pencil_with_transversal()
    assert str(B.char_poly()) == "t^2 - 6 t + 9"
    assert decide_free(B).verdict == NOT_FREE

    C = grid_three_by_two()
    assert C.char_poly().factored_str() == "(t-2)(t-3)"
    assert decide_free(C).exponents == (2, 3)

    D = triangle()
    assert D.char_poly().roots().classification == COMPLEX_CONJUGATE
    assert decide_free(D).verdict == NOT_FREE


# --------------------------------------------------------- root_incidence


def test_root_incidence_member_witness():
    A = grid_with_diagonal()
    entry = root_incidence(A)
    assert entry.applicable and entry.conclusion == FREE
    assert entry.evidence == {"member": 0, "count": 3, "roots": [3, 4]}


def test_root_incidence_external_witness():
    # every pentagon member has count 4, off the roots (5, 5); only an
    # external line can certify
    A = ARRANGEMENT_FIXTURES["pentagon_r5"]()
    no_ext = root_incidence(A)
    assert no_ext.conclusion == NO_CONCLUSION
    assert no_ext.evidence == {"roots": [5, 5], "member_counts": [4], "externals_checked": 0}

    entry = root_incidence(A, external_candidates(A))
    assert entry.conclusion == FREE
    assert entry.evidence["count"] == 5
    assert "external" in entry.evidence


def test_root_incidence_needs_integer_roots():
    for name in ("star7_transversal_r2", "star7_transversal_q"):
        A = ARRANGEMENT_FIXTURES[name]()
        entry = root_incidence(A, external_candidates(A))
        assert not entry.applicable
        assert entry.evidence["reason"] == "roots are not a pair of integers"
        assert entry.evidence["classification"] == REAL_IRRATIONAL
    entry = root_incidence(triangle())
    assert entry.evidence["classification"] == COMPLEX_CONJUGATE


def test_root_incidence_rejects_member_as_external():
    # a squares_diagonals member count is a root, so the member is
    # refused before any count is read, not only on reaching the externals
    for name in ("pentagon_r5", "squares_diagonals"):
        A = ARRANGEMENT_FIXTURES[name]()
        with pytest.raises(MembershipError, match="is a member, not an external line"):
            root_incidence(A, (A.lines[0],))
        with pytest.raises(MembershipError, match="is a member, not an external line"):
            run_criteria(A, [A.lines[0]])


def test_root_incidence_builds_candidates_for_none():
    for name in fixture_names():
        if name.endswith(".arr"):
            A = load_arrangement(fixture_path(name))
            expected = root_incidence(A, external_candidates(A))
            assert root_incidence(A, None) == expected, name


# ------------------------------------------------- deletion_pair, addition


def test_deletion_pair_common_root():
    A = grid_with_diagonal()
    entry = deletion_pair(A, 0)
    assert entry.conclusion == FREE
    assert entry.evidence == {"member": 0, "common_root": 3, "deleted_free": True}


def test_deletion_pair_no_common_root():
    entry = deletion_pair(triangle(), 0)
    assert entry.applicable and entry.conclusion == NO_CONCLUSION
    assert entry.evidence == {"member": 0, "count": 2, "pair_free": False}
    # star members have counts 2 and 7; chi = t^2 - 8t + 13 vanishes at neither
    A = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    for i in range(len(A)):
        assert deletion_pair(A, i).conclusion == NO_CONCLUSION


def test_deletion_pair_accepts_line_objects():
    A = grid_with_diagonal()
    assert deletion_pair(A, A.lines[2]).evidence["member"] == 2
    with pytest.raises(MembershipError):
        deletion_pair(A, 7)


def test_addition_recurses_into_deleted():
    A = grid_with_diagonal()
    entry = addition(A, 0)
    assert entry.conclusion == FREE
    assert entry.evidence == {"member": 0, "count": 3, "deleted_verdict": FREE}

    # the not-free pencil-with-transversal has counts {2, 5} and
    # chi = (t-3)^2, so addition sees no vanishing count anywhere
    B = pencil_with_transversal()
    for i in range(len(B)):
        entry = addition(B, i)
        assert entry.conclusion == NO_CONCLUSION
        assert entry.evidence["chi_at_count"] > 0


def _count_builds(monkeypatch):
    """Patch Arrangement.__init__ to count constructions; returns the counter."""
    built = []
    init = Arrangement.__init__

    def counting_init(self, field, lines):
        lines = tuple(lines)
        built.append(len(lines))
        init(self, field, lines)

    monkeypatch.setattr(Arrangement, "__init__", counting_init)
    return built


def test_deletion_pair_builds_no_arrangement(monkeypatch):
    instances = [ARRANGEMENT_FIXTURES[name]() for name in sorted(ARRANGEMENT_FIXTURES)]
    instances += [grid_with_diagonal(), pencil_with_transversal(), triangle()]
    built = _count_builds(monkeypatch)
    conclusions = set()
    for A in instances:
        for i in range(len(A)):
            conclusions.add(deletion_pair(A, i).conclusion)
    assert conclusions == {FREE, NO_CONCLUSION}
    assert built == []


def test_addition_builds_no_arrangement_and_decides_iff_count_is_a_root(monkeypatch):
    instances = [ARRANGEMENT_FIXTURES[name]() for name in sorted(ARRANGEMENT_FIXTURES)]
    instances += [grid_with_diagonal(), pencil_with_transversal(), triangle()]
    # the rebuilt A minus H, decided before any construction is counted
    expected = [[decide_free(A.delete(i)) for i in range(len(A))] for A in instances]
    decided = []
    decide_sub = freeness._decide_sub

    def spying(A, idx, b2):
        cert = decide_sub(A, idx, b2)
        decided.append((tuple(idx), cert))
        return cert

    monkeypatch.setattr(freeness, "_decide_sub", spying)
    built = _count_builds(monkeypatch)
    seen = set()
    for A, certs in zip(instances, expected):
        for i in range(len(A)):
            del decided[:]
            entry = addition(A, i)
            at_root = A.char_poly().eval(A.n_counts[i]) == 0
            seen.add(at_root)
            if at_root:
                rest = tuple(j for j in range(len(A)) if j != i)
                assert decided == [(rest, certs[i])], (A, i)
                assert entry.conclusion == entry.evidence["deleted_verdict"] == certs[i].verdict
            else:
                assert decided == [], (A, i)
                assert entry.conclusion == NO_CONCLUSION
    assert built == []
    assert seen == {True, False}


MEMBER_LOOKUPS = {
    "delete": lambda A, which: A.delete(which),
    "decide_free": decide_free,
    "ziegler_restriction": ziegler_restriction,
    "deletion_pair": deletion_pair,
    "addition": addition,
    "subarrangement": lambda A, which: A.subarrangement([which]),
    "sub_char_poly": lambda A, which: A.sub_char_poly([which]),
}


@pytest.mark.parametrize("lookup", sorted(MEMBER_LOOKUPS))
@pytest.mark.parametrize("which", ["len", -1, "non-member", -0.5, 1.9, True, "3"])
def test_member_lookup_errors_agree(lookup, which):
    A = grid_with_diagonal()
    if which == "len":
        which = len(A)
    elif which == "non-member":
        which = normalize_line(Q, 1, 5, 5)
    with pytest.raises(MembershipError) as expected:
        A.member_index(which)
    with pytest.raises(MembershipError) as raised:
        MEMBER_LOOKUPS[lookup](A, which)
    assert str(raised.value) == str(expected.value)
    if isinstance(which, Line):
        assert str(raised.value).endswith("is not a member")
    elif type(which) is int:
        assert str(raised.value) == f"line index {which} out of range"
    else:
        assert str(raised.value) == f"{which!r} is not a Line or a line index"


# --------------------------------------------------------- bracketing_sub


def test_bracketing_sub_free_witness():
    A = grid_with_diagonal()
    entry = bracketing_sub(A, (0, 1, 2))
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "n": 3,
        "r": 1,
        "sub": [0, 1, 2],
        "alpha": "1",
        "beta": "2",
        "member": 0,
    }


def test_bracketing_sub_detects_not_free():
    # chosen automatically by run_criteria over the deterministic
    # candidate list; no member count hits {3, 3}
    B = ARRANGEMENT_FIXTURES["subfree_gap_b"]()
    entry = run_criteria(B).entry("bracketing_sub")
    assert entry.conclusion == NOT_FREE
    assert entry.evidence["member"] is None
    assert entry.evidence["n"] == 3 and entry.evidence["r"] == 0


def test_bracketing_sub_window_mismatch():
    A = grid_with_diagonal()
    entry = bracketing_sub(A, (0, 1))
    assert not entry.applicable
    assert entry.evidence["reason"] == "subarrangement roots do not bracket the window"
    assert (entry.evidence["alpha"], entry.evidence["beta"]) == ("1", "1")


# ----------------------------------------------------- intermediate_search


def test_intermediate_search_exhaustive_free():
    A = grid_with_diagonal()
    entry = intermediate_search(A, (0, 1, 2))
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "n": 3,
        "r": 1,
        "s": 2,
        "sub": [0, 1, 2],
        "sub_exponents": [1, 2],
        "mode": "exhaustive",
        "violating": None,
    }


def test_intermediate_search_finds_violating_set(monkeypatch):
    # B = {x, y, x-y} inside the five-pencil plus transversal; the full
    # pencil C has chi(C, 1) = 0 with second root 4 > n + r = 3
    A = pencil_with_transversal()
    for cap, mode in ((12, "exhaustive"), (0, "chain")):
        monkeypatch.setattr(freeness, "EXHAUSTIVE_GAP_CAP", cap)
        entry = intermediate_search(A, (0, 1, 2))
        assert entry.conclusion == NOT_FREE
        assert entry.evidence == {
            "n": 3,
            "r": 0,
            "s": 2,
            "sub": [0, 1, 2],
            "sub_exponents": [1, 2],
            "mode": mode,
            "violating": [0, 1, 2, 3, 4],
            "violating_roots": [1, 4],
        }


def test_intermediate_search_count_scan():
    # sub {x, y, y-1} has exponents (1, 2) = (n-1, n-s) with s = 0, so
    # the shifted branch scans member counts for {n, n+r} = {2, 3}
    A = grid_three_by_two()
    entry = intermediate_search(A, (0, 3, 4))
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "n": 2,
        "r": 1,
        "s": 0,
        "sub": [0, 3, 4],
        "sub_exponents": [1, 2],
        "member": 0,
        "mode": "count-scan",
    }


def test_intermediate_search_shape_mismatch():
    A = grid_with_diagonal()
    entry = intermediate_search(A, (0, 1))
    assert not entry.applicable
    assert entry.evidence["reason"] == "subarrangement roots do not match (n-s, n-1)"
    assert entry.evidence["sub_roots"] == [1, 1]


# ----------------------------------------------------------------- subfree


def test_subfree_inherits_freeness_upward():
    A = pencil(6)
    entry = subfree(A, (0, 1, 2, 3))
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "sub": [0, 1, 2, 3],
        "shared_root": 1,
        "sub_other": 3,
        "other": 5,
    }


def test_subfree_requires_free_subarrangement():
    # the gap triple: B sits inside A with the shared root 3, but B
    # itself is not free, so no conclusion may be drawn
    A = ARRANGEMENT_FIXTURES["subfree_gap_a"]()
    B = ARRANGEMENT_FIXTURES["subfree_gap_b"]()
    idx = tuple(A.index_of(L) for L in B.lines)
    entry = subfree(A, idx)
    assert not entry.applicable
    assert entry.evidence["reason"] == "subarrangement is not free"
    assert entry.evidence["shared_root"] == 3
    # the smaller free member shares the root 3 as well, but as its
    # larger root: the ordering a <= b <= c fails, so still no conclusion
    C = ARRANGEMENT_FIXTURES["subfree_gap_c"]()
    idx = tuple(A.index_of(L) for L in C.lines)
    entry = subfree(A, idx)
    assert not entry.applicable
    assert entry.evidence["reason"] == "no shared root with ordered remainders"
    assert entry.evidence["roots"] == [3, 5]
    assert entry.evidence["sub_roots"] == [1, 3]


def test_subfree_needs_shared_root():
    A = grid_with_diagonal()
    # sub {x, y} has roots (1, 1); chi(A) has roots (3, 4): no match
    entry = subfree(A, (0, 1))
    assert not entry.applicable
    assert entry.evidence["reason"] == "no shared root with ordered remainders"
    assert entry.evidence["roots"] == [3, 4]
    assert entry.evidence["sub_roots"] == [1, 1]


# ---------------------------------------------------------------- root_gap


def test_root_gap_certifies_at_h_minus_two():
    for name, h in (("squares_diagonals", 4), ("subfree_gap_c", 4)):
        entry = root_gap(ARRANGEMENT_FIXTURES[name]())
        assert entry.conclusion == FREE, name
        assert entry.evidence == {"h": h, "gap_equals": h - 2, "balanced": True}


def test_root_gap_inconclusive_for_small_gap():
    entry = root_gap(ARRANGEMENT_FIXTURES["pentagon_r5"]())
    assert entry.applicable and entry.conclusion == NO_CONCLUSION
    assert entry.evidence == {"h": 5, "gap_equals": None, "balanced": True}
    # star roots 4 +- sqrt(3): gap 2*sqrt(3) is neither 6 nor 5
    entry = root_gap(ARRANGEMENT_FIXTURES["star7_transversal_q"]())
    assert entry.conclusion == NO_CONCLUSION
    assert entry.evidence["h"] == 8 and entry.evidence["gap_equals"] is None


def test_root_gap_inapplicability_reasons():
    assert root_gap(triangle()).evidence["reason"] == "roots are complex"
    assert (
        root_gap(ARRANGEMENT_FIXTURES["f3_three"]()).evidence["reason"]
        == "needs characteristic zero"
    )
    two_classes = mk([(1, 0, 0), (0, 1, 0), (0, 1, -1)])
    assert root_gap(two_classes).evidence["reason"] == "needs more than two direction classes"
    unbalanced = mk([(1, 0, 0), (1, 0, -1), (1, 0, -2), (0, 1, 0), (1, -1, 0)])
    entry = root_gap(unbalanced)
    assert entry.evidence["reason"] == "restriction is unbalanced"
    assert entry.evidence["h"] == 3


@pytest.mark.parametrize(
    "criterion, make, idx",
    [
        (intermediate_search, grid_three_by_two, (0, 3, 4)),
        (subfree, lambda: pencil(6), (0, 1, 2, 3)),
        (small_exponent_sub, grid_with_diagonal, (0, 1)),
    ],
    ids=["intermediate_search", "subfree", "small_exponent_sub"],
)
def test_free_subarrangement_exponents_must_match_roots(monkeypatch, criterion, make, idx):
    A = make()
    assert criterion(A, idx).applicable
    exact = freeness._decide_sub
    skewed_subs = []

    def skewed(parent, sub, b2):
        cert = exact(parent, sub, b2)
        if not cert.is_free:
            return cert
        skewed_subs.append(tuple(sub))
        d1, d2 = cert.exponents
        skew = (d1 - 1, d2 + 1)
        return FreenessCertificate(cert.verdict, skew, cert.b2, cert.d1, cert.d2, cert.target)

    monkeypatch.setattr(freeness, "_decide_sub", skewed)
    with pytest.raises(InvariantViolation, match="must match its roots"):
        criterion(A, idx)
    assert skewed_subs == [idx]


# ------------------------------------------------------- small_exponent_sub


def test_small_exponent_sub_free():
    A = grid_with_diagonal()
    # B = {x, y} is free with exponents (1, 1) = (n-2, n-2), r = 1
    entry = small_exponent_sub(A, (0, 1))
    assert entry.conclusion == FREE
    assert entry.evidence == {
        "n": 3,
        "r": 1,
        "sub": [0, 1],
        "sub_exponents": [1, 1],
        "member": 0,
    }


def test_small_exponent_sub_via_report():
    rep = run_criteria(ARRANGEMENT_FIXTURES["f3_all"]())
    entry = rep.entry("small_exponent_sub")
    assert entry.conclusion == FREE
    assert entry.evidence["sub_exponents"] == [1, 1]
    assert entry.evidence["r"] == 6


def test_small_exponent_sub_shape_gate():
    A = grid_with_diagonal()
    entry = small_exponent_sub(A, (0, 1, 2))
    assert not entry.applicable
    assert (
        entry.evidence["reason"]
        == "subarrangement exponent shape or root spread does not qualify"
    )
    assert entry.evidence["sub_roots"] == [1, 2]


# ------------------------------------------------------ external candidates


def test_external_candidates_deterministic_and_disjoint():
    for name in ("squares_diagonals", "pentagon_r5", "star7_transversal_q"):
        A = ARRANGEMENT_FIXTURES[name]()
        ext = external_candidates(A)
        assert ext == external_candidates(A)
        assert len(set(ext)) == len(ext)
        assert all(L not in A for L in ext)


def test_external_candidates_exhaustive_over_small_prime():
    for name in ("f3_three", "f3_pencil", "f3_all"):
        A = ARRANGEMENT_FIXTURES[name]()
        assert len(external_candidates(A)) == 12 - len(A)


def test_external_counts_match_ground_truth():
    # achievable external counts worked out point by point
    star = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    vals = {star.count_on_line(L) for L in external_candidates(star)}
    assert vals == {1, 2, 6, 7, 8}

    squares = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    vals = {squares.count_on_line(L) for L in external_candidates(squares)}
    assert 6 not in vals
    assert min(vals) == 7

    five = pencil(5)
    vals = {five.count_on_line(L) for L in external_candidates(five)}
    assert vals == {1, 4, 5}


def test_external_candidates_pass_through_off_origin_points():
    # pencil of four lines through (1, 2) plus the horizontal y = 5; the
    # family must offer a line through the quadruple point itself
    A = mk([(1, 0, -1), (0, 1, -2), (1, -1, 1), (1, 1, -3), (0, 1, -5)])
    ext = external_candidates(A)
    one, two = A.field.one, A.field.coerce(2)
    through = [L for L in ext if L.a * one + L.b * two + L.c == A.field.zero]
    assert through, "no candidate passes through the multiple point"
    assert {A.count_on_line(L) for L in through} == {2}
    assert {A.count_on_line(L) for L in ext} == {2, 3, 4, 5}


# F_17 and F_101 lie above PLANE_PRIME_CAP, so they take the integer-key path
KEY_FIELDS = (
    Q,
    Field.quadratic(2),
    Field.quadratic(5),
    Field.quadratic(-3),
    Field.prime(17),
    Field.prime(101),
)


@pytest.mark.parametrize("field", KEY_FIELDS, ids=str)
def test_joins_are_keys_of_field_scalar_meets_and_lines(field):
    """A meet is the key of the point (x, y, 1), None exactly for parallel
    lines; the join of two points is the key of line_through."""
    rng = random.Random(f"join keys {field}")
    one, join, param = field.one, _JOIN[field.kind], field.d or field.p
    parallel = 0
    for _ in range(20):
        A = irrational(random_arrangement(rng, field, 8, min_lines=2))
        shifted = [Line(L.a, L.b, L.c + one) for L in A.lines]
        keyed = [(L, _key((L.a, L.b, L.c), one)) for L in (*A.lines, *shifted)]
        for (l1, k1), (l2, k2) in combinations(keyed, 2):
            point = reference_intersect(l1, l2)
            key = join(k1, k2, 2, param)
            if point is None:
                parallel += 1
                assert key is None
            else:
                assert key == _key((*point, one), one)
                assert _key_scalars([key], 2, one) == [point]
        for p, q in combinations([(pt.x, pt.y) for pt in A.points], 2):
            line = line_through(field, p, q)
            key = join(_key((*p, one), one), _key((*q, one), one), 0, param)
            assert key == _key((line.a, line.b, line.c), one)
            assert _key_scalars([key], 0, one) == [(line.a, line.b, line.c)]
    assert parallel


@pytest.mark.parametrize("field", KEY_FIELDS, ids=str)
def test_external_candidates_match_field_scalar_reference(field):
    rng = random.Random(f"externals {field}")
    for _ in range(30):
        A = irrational(random_arrangement(rng, field, 8))
        assert external_candidates(A) == external_candidates_reference(A)


def test_external_candidates_match_reference_on_fixtures():
    names = [n for n in fixture_names() if n.endswith(".arr")]
    assert names
    for name in names:
        A = load_arrangement(fixture_path(name))
        assert external_candidates(A) == external_candidates_reference(A), name


@pytest.mark.parametrize("field", [Q, F5, Field.prime(7)], ids=str)
def test_run_criteria_builds_externals_only_when_read(field, monkeypatch):
    build = freeness.external_candidates
    calls = []

    def counted(A):
        calls.append(A)
        return build(A)

    monkeypatch.setattr(freeness, "external_candidates", counted)
    rng = random.Random(f"on demand {field}")
    seen = set()
    for _ in range(120):
        A = random_arrangement(rng, field, 8)
        roots = A.char_poly().roots()
        if roots.classification != TWO_INTEGER:
            case = "roots not integers"
        elif {roots.low, roots.high} & set(A.n_counts):
            case = "member count is a root"
        else:
            case = "externals read"
        seen.add(case)
        calls.clear()
        report = run_criteria(A)
        assert len(calls) == (case == "externals read"), case
        supplied = run_criteria(A, build(A))
        assert report.certificate == supplied.certificate
        assert report.entries == supplied.entries
    assert seen == {"roots not integers", "member count is a root", "externals read"}


def test_candidate_subarrangements_structure():
    A = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    subs = candidate_subarrangements(A)
    assert len(set(subs)) == len(subs)
    assert all(len(idx) < len(A) for idx in subs)
    assert () in subs
    # the first candidate is the largest pencil in the lattice
    assert len(subs[0]) == max(p.multiplicity for p in A.points)


# -------------------------------------------------------------- root window


def test_root_window_on_fixtures():
    squares = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    report = verify_root_window(squares)
    assert report.free
    assert report.member_values == (3, 5)
    assert all(v == 5 or v >= 7 for v in report.external_values)

    pentagon = ARRANGEMENT_FIXTURES["pentagon_r5"]()
    report = verify_root_window(pentagon)
    assert report.member_values == (4,)
    assert 5 in report.external_values

    star = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    report = verify_root_window(star)
    assert not report.free
    assert report.member_values == (2, 7)
    assert not {3, 4, 5} & set(report.external_values)


def test_root_window_reads_externals_from_a_generator():
    A = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    externals = external_candidates(A)
    report = verify_root_window(A, externals)
    assert report.free and report.externals_checked == len(externals) == 99
    assert verify_root_window(A, (L for L in externals)) == report


@pytest.mark.parametrize("name", ["squares_diagonals", "pentagon_r5"])
def test_root_window_refuses_a_member_as_external(name):
    A = ARRANGEMENT_FIXTURES[name]()
    with pytest.raises(MembershipError, match="is a member, not an external line"):
        verify_root_window(A, [A.lines[0]])


# ------------------------------------------------------------- full battery


def test_run_criteria_consistency_on_fixtures():
    for name, (verdict, _, _) in FIXTURE_VERDICTS.items():
        report = run_criteria(ARRANGEMENT_FIXTURES[name]())
        assert report.certificate.verdict == verdict, name
        names = [e.name for e in report.entries]
        assert names == [
            "root_incidence",
            "deletion_pair",
            "addition",
            "bracketing_sub",
            "intermediate_search",
            "subfree",
            "root_gap",
            "small_exponent_sub",
        ]
        for entry in report.entries:
            if entry.applicable and entry.conclusion != NO_CONCLUSION:
                assert entry.conclusion == verdict, (name, entry.name)
        assert report.entry("root_gap") is report.entries[6]
        with pytest.raises(KeyError):
            report.entry("nope")


def test_run_criteria_random_consistency():
    rng = random.Random(20260817)
    fields = (Q, F3, F5)
    for k in range(90):
        A = random_arrangement(rng, fields[k % 3], max_lines=7)
        report = run_criteria(A)
        verify_root_window(A)
        for i in range(len(A)):
            assert decide_free(A, i).verdict == report.certificate.verdict


def test_criteria_battery_digest():
    """Certificates and criterion rows of 400 seeded arrangements, frozen
    by one digest: 3-10 lines over Q, F5, F7 and Q(sqrt 2), the last in
    irrational coordinates. Every criterion concludes on some of them."""
    fields = (Q, F5, Field.prime(7), Field.quadratic(2))
    rng = random.Random("criteria battery digest")
    digest = hashlib.sha256()
    free = 0
    concluded = set()
    for k in range(400):
        A = irrational(random_arrangement(rng, fields[k % 4], 10, min_lines=3))
        report = run_criteria(A)
        rows = [entry.as_record() for entry in report.entries]
        digest.update(repr((format_arrangement(A), report.certificate, rows)).encode())
        free += report.certificate.is_free
        concluded.update(
            e.name for e in report.entries if e.applicable and e.conclusion != NO_CONCLUSION
        )
    assert free == 50
    assert len(concluded) == 8
    assert digest.hexdigest() == (
        "d70929fc92ed5f8bc97f2b7769f7a533c8f142f558cff9ecbc676da2213e2915"
    )


def test_root_window_digest():
    """The root window and root_incidence with candidate externals on
    the 400 arrangements of test_criteria_battery_digest, frozen by one
    digest: member and external values, externals checked, freeness.
    Recorded with root_incidence(A, external_candidates(A))."""
    fields = (Q, F5, Field.prime(7), Field.quadratic(2))
    rng = random.Random("criteria battery digest")
    digest = hashlib.sha256()
    checked = 0
    for k in range(400):
        A = irrational(random_arrangement(rng, fields[k % 4], 10, min_lines=3))
        w = verify_root_window(A)
        entry = root_incidence(A, None)
        row = (w.member_values, w.external_values, w.externals_checked, w.free)
        digest.update(repr((format_arrangement(A), row, entry.as_record())).encode())
        checked += w.externals_checked
    assert checked == 34959
    assert digest.hexdigest() == (
        "511181ab341863ff17bd912a5e014787ff7cb621a7c5e6a3859a0c1632e71bde"
    )


@pytest.mark.parametrize("field", [Q, F3, F5, Field.prime(7), Field.quadratic(2)], ids=str)
def test_sub_decisions_match_rebuilt_subarrangements(field, monkeypatch):
    """Each candidate B and each A minus H, decided from A's data, equals
    the decision of the rebuilt arrangement, and its restriction at
    infinity is the one ziegler_restriction builds, in the same order."""
    restrictions = []

    def recording(M):
        restrictions.append(M)
        return exponents(M)

    monkeypatch.setattr(freeness, "exponents", recording)
    rng = random.Random(f"sub decisions {field}")
    decided = 0
    for _ in range(16):
        A = irrational(random_arrangement(rng, field, 8, min_lines=2))
        for idx in candidate_subarrangements(A):
            B = A.subarrangement(idx)
            del restrictions[:]
            cert = freeness._decide_sub(A, idx, A.sub_char_poly(idx).b2)
            M = ziegler_restriction(B)
            assert restrictions == [M]
            assert (restrictions[0].centrals, restrictions[0].mults) == (M.centrals, M.mults)
            assert cert == decide_free(B), (A, idx)
            decided += 1
        for i in range(len(A)):
            rest = [j for j in range(len(A)) if j != i]
            assert freeness._decide_sub(A, rest, A.sub_char_poly(rest).b2) == decide_free(A.delete(i))
    assert decided > 250


def test_run_criteria_reads_each_candidates_roots_once(monkeypatch):
    # counted at CharPoly.roots, since RootPair.from_char_poly runs only
    # on a miss of the roots memo
    calls = []
    roots = CharPoly.roots

    def counting(cp):
        calls.append(cp)
        return roots(cp)

    monkeypatch.setattr(CharPoly, "roots", counting)
    for name in sorted(ARRANGEMENT_FIXTURES):
        A = ARRANGEMENT_FIXTURES[name]()
        candidates = len(candidate_subarrangements(A))
        del calls[:]
        run_criteria(A)
        # A's own roots are read by root_incidence, the walk and root_gap
        assert len(calls) <= candidates + 3, (name, len(calls), candidates)


def test_run_criteria_walks_no_candidate_without_integer_roots(monkeypatch):
    A = ARRANGEMENT_FIXTURES["star7_transversal_q"]()
    assert A.char_poly().roots().classification != TWO_INTEGER

    def refuse(*args):
        raise AssertionError("candidate walk for an A without integer roots")

    monkeypatch.setattr(Arrangement, "sub_char_poly", refuse)
    monkeypatch.setattr(freeness, "candidate_subarrangements", refuse)
    report = run_criteria(A)
    for name in ("bracketing_sub", "intermediate_search", "subfree", "small_exponent_sub"):
        entry = report.entry(name)
        assert not entry.applicable
        assert entry.evidence == {"reason": "no qualifying subarrangement among candidates"}


def test_result_caches_are_bounded():
    for cached in (exponents, freeness._decide_free_cached):
        assert isinstance(cached.cache_info().maxsize, int)
