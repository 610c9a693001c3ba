"""Acceptance battery: nine end-to-end behaviors, one line of output each.

Run with `python3 -m pytest -s tests/test_acceptance.py` to see a
`criterion N: PASS ...` line per behavior; a failing criterion prints
`criterion N: FAIL` and re-raises. The stated time budgets are asserted.
"""

import random
from time import perf_counter

from helpers import Q, irrational, random_arrangement, random_multiarrangement
from linarr.arrangement import (
    REAL_IRRATIONAL,
    TWO_INTEGER,
    Arrangement,
    CharPoly,
)
from linarr.derivations import (
    Multiarrangement,
    exponents,
    graded_kernel,
    is_member,
    saito_verify,
    ziegler_restriction,
)
from linarr.exactalg import Field
from linarr.fixtures import (
    ARRANGEMENT_FIXTURES,
    MULTIARRANGEMENT_FIXTURES,
    pencil,
    pentagon_sqrt5,
)
from linarr.fqscan import (
    complement_count,
    finite_exponent_bounds,
    frobenius_derivation,
    line_spectrum,
    order_minus_one_root,
    order_root,
)
from linarr.freeness import (
    FREE,
    NO_CONCLUSION,
    decide_free,
    external_candidates,
    run_criteria,
    verify_root_window,
)

F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
R2 = Field.quadratic(2)


def _conclude(num, fn):
    try:
        detail = fn()
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS  {detail}")


def _deletion_restriction_holds(A):
    chi = A.char_poly()
    for i in range(len(A)):
        sub = A.delete(i).char_poly()
        assert chi.n == sub.n + 1
        assert chi.b2 == sub.b2 + A.n_counts[i]


# --------------------------------------------------------------- criterion 1


def test_criterion_1_pencils():
    def impl():
        start = perf_counter()
        for n in range(3, 9):
            A = pencil(n)
            chi = A.char_poly()
            assert chi == CharPoly(n, n - 1)
            assert chi.factored_str() == f"(t-1)(t-{n - 1})"
            cert = decide_free(A)
            assert cert.is_free and cert.exponents == (1, n - 1)
        elapsed = perf_counter() - start
        assert elapsed < 1.0
        return f"pencils n=3..8 free with exponents (1, n-1) in {elapsed:.3f}s"

    _conclude(1, impl)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_star_transversal_twins():
    def impl():
        for name in ("star7_transversal_r2", "star7_transversal_q"):
            A = ARRANGEMENT_FIXTURES[name]()
            chi = A.char_poly()
            assert chi == CharPoly(8, 13)
            roots = chi.roots()
            assert roots.classification == REAL_IRRATIONAL
            assert (roots.low.u, roots.low.v, roots.low.rad) == (4, -1, 3)
            assert (roots.high.u, roots.high.v, roots.high.rad) == (4, 1, 3)
            assert str(roots.low) == "4 - sqrt(3)"
            assert set(A.n_counts) == {2, 7}
            ext_counts = {A.count_on_line(L) for L in external_candidates(A)}
            assert not ext_counts & {3, 4, 5}
            cert = decide_free(A)
            assert not cert.is_free
            assert cert.b2 == 13 > cert.d1 * cert.d2
        return "both star-with-transversal models: irrational roots 4 +- sqrt(3), counts avoid {3,4,5}, not free"

    _conclude(2, impl)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_squares_diagonals():
    def impl():
        start = perf_counter()
        A = ARRANGEMENT_FIXTURES["squares_diagonals"]()
        chi = A.char_poly()
        assert chi.factored_str() == "(t-5)(t-7)"
        assert set(A.n_counts) == {3, 5}
        ext_counts = {A.count_on_line(L) for L in external_candidates(A)}
        assert 6 not in ext_counts
        cert = decide_free(A)
        assert cert.exponents == (5, 7)

        M = MULTIARRANGEMENT_FIXTURES["m3333"]()
        assert M == ziegler_restriction(A)
        exp = exponents(M)
        assert exp.pair == (5, 7)
        assert saito_verify(exp.theta1, exp.theta2, M)
        elapsed = perf_counter() - start
        assert elapsed < 5.0
        return f"squares-with-diagonals free (5,7), no external count 6, kernel exponents match in {elapsed:.3f}s"

    _conclude(3, impl)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_pentagon():
    def impl():
        A = pentagon_sqrt5()
        chi = A.char_poly()
        assert chi == CharPoly(10, 25)
        assert chi.factored_str() == "(t-5)^2"
        assert set(A.n_counts) == {4}
        externals = external_candidates(A)
        counts = {A.count_on_line(L) for L in externals}
        assert 5 in counts
        cert = decide_free(A)
        assert cert.is_free and cert.exponents == (5, 5)
        return "pentagon sides+diagonals: every member count 4, external count 5 found, free (5,5)"

    _conclude(4, impl)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_subfree_gap_triple():
    def impl():
        A, B, C = (ARRANGEMENT_FIXTURES[f"subfree_gap_{x}"]() for x in "abc")
        assert decide_free(A).exponents == (3, 5)
        assert decide_free(C).exponents == (1, 3)
        assert B.char_poly() == CharPoly(6, 9)
        assert B.char_poly().factored_str() == "(t-3)^2"
        assert not decide_free(B).is_free
        # the containments that make the gap meaningful
        assert all(L in A for L in B.lines)
        assert all(L in B for L in C.lines)
        return "gap triple: A free (3,5), C free (1,3), middle B has chi=(t-3)^2 yet is not free"

    _conclude(5, impl)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_random_arrangement_battery():
    def impl():
        start = perf_counter()
        rng = random.Random(2026)
        fields = (Q, F5, F7)
        total = 0
        conclusive = 0
        while total < 1002:
            A = random_arrangement(rng, fields[total % 3], max_lines=10)
            chi = A.char_poly()
            for n_h in A.n_counts:
                assert chi.eval(n_h) >= 0
            _deletion_restriction_holds(A)
            report = run_criteria(A)
            for entry in report.entries:
                if entry.applicable and entry.conclusion != NO_CONCLUSION:
                    assert entry.conclusion == report.certificate.verdict
                    conclusive += 1
            M = ziegler_restriction(A)
            exp = exponents(M)
            assert saito_verify(exp.theta1, exp.theta2, M)
            total += 1
        elapsed = perf_counter() - start
        assert elapsed < 120.0
        return (
            f"{total} random arrangements over Q, F5, F7: windows, "
            f"deletion-restriction, {conclusive} conclusive criteria all "
            f"agree, Saito verified, in {elapsed:.1f}s"
        )

    _conclude(6, impl)


# --------------------------------------------------------------- criterion 7


def test_criterion_7_random_multiarrangement_lemmas():
    def impl():
        start = perf_counter()
        rng = random.Random(517)
        fields = (Q, R2, F5)
        total = 0
        while total < 501:
            M = random_multiarrangement(rng, fields[total % 3], max_h=5, min_h=1, max_mult=4)
            if M.size > 12:
                continue
            d1, d2 = exponents(M).pair
            assert d1 <= d2 and d1 + d2 == M.size

            # adding one multiplicity moves exactly one exponent up
            i = rng.randrange(M.h)
            bigger = Multiarrangement(
                M.field,
                M.centrals,
                tuple(m + (1 if j == i else 0) for j, m in enumerate(M.mults)),
            )
            assert exponents(bigger).pair in {(d1 + 1, d2), (d1, d2 + 1)}

            # pointwise monotonicity
            smaller = Multiarrangement(
                M.field, M.centrals, tuple(rng.randint(1, m) for m in M.mults)
            )
            s1, s2 = exponents(smaller).pair
            assert s1 <= d1 and s2 <= d2

            # size bounds and the bracketing split
            h = M.h
            if M.size >= 2 * h - 2:
                assert d1 >= h - 1 and d2 >= h - 1
            if M.size <= 2 * h - 2:
                assert (d1, d2) == (M.size - h + 1, h - 1)
            for alpha in range(M.size + 1):
                beta = M.size - alpha
                if alpha < h - 1 < beta:
                    assert alpha < d1 <= d2 < beta

            if not M.is_balanced():
                top = max(M.mults)
                assert (d1, d2) == (M.size - top, top)
            elif M.field.characteristic == 0 and h > 2:
                assert d2 - d1 <= h - 2

            for d in range(M.size + 1):
                expect = max(0, d - d1 + 1) + max(0, d - d2 + 1)
                assert len(graded_kernel(M, d)) == expect
            total += 1
        elapsed = perf_counter() - start
        assert elapsed < 120.0
        return (
            f"{total} random multiarrangements (|m| <= 12) over Q, Q(sqrt 2), F5: "
            f"increment, monotonicity, bounds, closed forms, gap bound, "
            f"dimension profile, in {elapsed:.1f}s"
        )

    _conclude(7, impl)


# --------------------------------------------------------------- criterion 8


def _witness_fixture(p):
    """p - 1 parallel verticals plus the x-axis: chi = (t-1)(t-(p-1))."""
    field = Field.prime(p)
    triples = [(1, 0, -k) for k in range(p - 1)]
    triples.append((0, 1, 0))
    return Arrangement.from_triples(field, triples)


def test_criterion_8_finite_plane_battery():
    def impl():
        start = perf_counter()
        rng = random.Random(2580)
        arrangements = 0
        multis = 0
        for p in (2, 3, 5, 7):
            field = Field.prime(p)

            A = _witness_fixture(p)
            assert A.char_poly().eval(p - 1) == 0
            entry = order_minus_one_root(A)
            assert entry.conclusion == FREE
            assert entry.evidence["complement"] == p - 1
            if p > 2:
                assert entry.evidence["witness_count"] == p - 1

            for _ in range(30):
                B = random_arrangement(rng, field, max_lines=min(2 * p + 1, 8))
                chi = B.char_poly()
                assert complement_count(B) == chi.eval(p)
                spec = line_spectrum(B)
                assert sum(c for _, c in spec.combined) == p * p + p
                cert = decide_free(B)
                roots = chi.roots()
                if cert.is_free and roots.classification == TWO_INTEGER:
                    low, high = roots.low, roots.high
                    assert all(v <= low or v == high for v in spec.member_values)
                    assert all(v == low or v >= high for v in spec.external_values)
                order_root(B)
                order_minus_one_root(B)
                arrangements += 1

            theta = frobenius_derivation(field)
            for _ in range(15):
                M = random_multiarrangement(rng, field, max_h=p + 1, min_h=1, max_mult=p)
                report = finite_exponent_bounds(M)
                assert report.applicable
                assert "frobenius_member" in report.checks
                assert is_member(M, theta)
                multis += 1
        elapsed = perf_counter() - start
        assert elapsed < 120.0
        return (
            f"p in {{2,3,5,7}}: q-1 witness fixtures, {arrangements} random "
            f"arrangements (complement counts, plane spectra, order criteria), "
            f"{multis} multiarrangements (field-order bounds, Frobenius "
            f"membership), in {elapsed:.1f}s"
        )

    _conclude(8, impl)


# --------------------------------------------------------------- criterion 9


def test_criterion_9_target_independence():
    def impl():
        for name, build in ARRANGEMENT_FIXTURES.items():
            A = build()
            verdict = decide_free(A).verdict
            for i in range(len(A)):
                assert decide_free(A, i).verdict == verdict, (name, i)

        rng = random.Random(99)
        fields = (Q, R2, F3, F5)
        for k in range(200):
            # irrational moves only the Q(sqrt 2) quarter off rational lines
            A = irrational(random_arrangement(rng, fields[k % 4], max_lines=6))
            verdict = decide_free(A).verdict
            for i in range(len(A)):
                assert decide_free(A, i).verdict == verdict
        return "verdict independent of restriction target on all fixtures and 200 random arrangements"

    _conclude(9, impl)
