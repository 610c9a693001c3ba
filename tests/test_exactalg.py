"""Scalar arithmetic, parsing, and exact kernel computations."""

import cProfile
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import kernel_and_rank, reference_rref
from linarr import Field, Mod, ParseError, PreconditionError, Quad
from linarr.exactalg import (
    PRIMALITY_CAP,
    PRIME,
    QUADRATIC,
    SQUAREFREE_CAP,
    _lift,
    _rref_rows,
    _scalar,
    is_prime,
    squarefree_decomposition,
)

Q = Field.rationals()
QR2 = Field.quadratic(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


# ---------------------------------------------------------------- fields


def test_field_validation():
    with pytest.raises(PreconditionError):
        Field.quadratic(0)
    with pytest.raises(PreconditionError):
        Field.quadratic(1)
    with pytest.raises(PreconditionError):
        Field.quadratic(12)  # 4 * 3
    with pytest.raises(PreconditionError):
        Field.prime(4)
    with pytest.raises(PreconditionError):
        Field.prime(1)
    assert Field.quadratic(-1).d == -1
    assert Field.prime(2).characteristic == 2
    assert Q.characteristic == 0
    assert QR2.characteristic == 0


def test_squarefree_decomposition():
    assert squarefree_decomposition(12) == (2, 3)
    assert squarefree_decomposition(1) == (1, 1)
    assert squarefree_decomposition(49) == (7, 1)
    assert squarefree_decomposition(360) == (6, 10)


def test_coerce_rejects_cross_field():
    with pytest.raises(PreconditionError):
        Q.coerce(Quad(1, 1, 2))
    with pytest.raises(PreconditionError):
        QR2.coerce(Quad(1, 1, 3))
    with pytest.raises(PreconditionError):
        F3.coerce(Mod(1, 5))
    with pytest.raises(PreconditionError):
        F3.coerce(Fraction(1, 2))


def test_coerce_rejects_bool():
    for field in (Q, QR2, F5):
        assert field.coerce(1) == field.one
        for flag in (True, False):
            with pytest.raises(PreconditionError, match="is not a scalar"):
                field.coerce(flag)


def test_arithmetic_rejects_bool_operands():
    one_mod, one_quad = Mod(1, 5), Quad(1, 0, 2)
    assert one_mod + 1 == Mod(2, 5) and one_quad * 1 == one_quad
    for x in (one_mod, one_quad):
        for flag in (True, False):
            for op in (
                lambda: x + flag,
                lambda: flag + x,
                lambda: x - flag,
                lambda: flag - x,
                lambda: x * flag,
                lambda: flag * x,
                lambda: x / flag,
                lambda: flag / x,
            ):
                with pytest.raises(PreconditionError, match="is not a scalar"):
                    op()


def test_quadratic_field_caps_d():
    largest_prime_below = 999999999989
    assert Field.quadratic(largest_prime_below).d == largest_prime_below
    for d in (SQUAREFREE_CAP, -SQUAREFREE_CAP, 10**29 + 7):
        with pytest.raises(PreconditionError, match="not below"):
            Field.quadratic(d)


# ---------------------------------------------------------------- scalars


def test_scalar_text_examples():
    assert Q.parse_scalar("-3") == Fraction(-3)
    assert Q.parse_scalar("5/7") == Fraction(5, 7)
    assert QR2.parse_scalar("2+3/4r") == Quad(2, Fraction(3, 4), 2)
    assert QR2.parse_scalar("r") == Quad(0, 1, 2)
    assert QR2.parse_scalar("-r") == Quad(0, -1, 2)
    assert QR2.parse_scalar("2-r") == Quad(2, -1, 2)
    assert QR2.parse_scalar("-1/2r") == Quad(0, Fraction(-1, 2), 2)
    assert QR2.parse_scalar("7") == Quad(7, 0, 2)
    assert F3.parse_scalar("4") == Mod(1, 3)
    assert F3.parse_scalar("-1") == Mod(2, 3)


def test_scalar_text_rejects_garbage():
    for field, text in [
        (Q, "1.5"),
        (Q, ""),
        (Q, "1/0"),
        (Q, "r"),
        (QR2, "2+*r"),
        (QR2, "rr"),
        (F3, "1/2"),
        (F3, "x"),
    ]:
        with pytest.raises(ParseError):
            field.parse_scalar(text)


rationals_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(rationals_st)
@settings(max_examples=100)
def test_rational_text_roundtrip(x):
    assert Q.parse_scalar(Q.format_scalar(x)) == x


@given(rationals_st, rationals_st, st.sampled_from([2, 3, 5, -1, -2, 7]))
@settings(max_examples=150)
def test_quadratic_text_roundtrip(u, v, d):
    field = Field.quadratic(d)
    x = Quad(u, v, d)
    assert field.parse_scalar(field.format_scalar(x)) == x


@given(rationals_st, rationals_st, st.sampled_from([2, 3, 5, -1]))
@settings(max_examples=150)
def test_quadratic_norm_and_inverse(u, v, d):
    x = Quad(u, v, d)
    norm = u * u - d * v * v
    if u == 0 and v == 0:
        assert norm == 0
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        # d squarefree and != 0, 1 makes the norm anisotropic over Q
        assert norm != 0
        assert x * x.inverse() == Quad(1, 0, d)


def test_quad_arithmetic_basics():
    r = Quad(0, 1, 2)
    assert r * r == 2
    assert (1 + r) * (1 - r) == -1
    assert (r / 2) * 2 == r
    assert -r + r == Quad(0, 0, 2)
    with pytest.raises(PreconditionError):
        r + Quad(0, 1, 3)


def test_mod_arithmetic_basics():
    a = Mod(2, 5)
    assert a + 4 == Mod(1, 5)
    assert a * 3 == Mod(1, 5)
    assert a / 3 == Mod(4, 5)
    assert -a == Mod(3, 5)
    assert a ** 4 == Mod(1, 5)
    with pytest.raises(ZeroDivisionError):
        a / Mod(0, 5)
    with pytest.raises(PreconditionError):
        a + Mod(1, 7)


_SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_ANY_SCALAR = st.one_of(
    st.integers(-6, 6),
    _SMALL_FRACTIONS,
    st.builds(Quad, _SMALL_FRACTIONS, st.sampled_from([0, 0, 1, Fraction(-1, 2)]),
              st.sampled_from([2, -3])),
    st.builds(Mod, st.integers(-6, 6), st.sampled_from([2, 3, 5])),
)


@given(_ANY_SCALAR, _ANY_SCALAR)
@example(Mod(3, 5), 3)
@example(Quad(Fraction(1, 2), 0, 2), Fraction(1, 2))
@settings(max_examples=300)
def test_equal_scalars_hash_equal(x, y):
    # sets and dict keys mix scalar types, so == must imply equal hashes
    if x == y:
        assert hash(x) == hash(y)


def test_fermat_inverse_agrees_exhaustively():
    # every nonzero residue, every prime p <= 97
    for p in [n for n in range(2, 98) if is_prime(n)]:
        field = Field.prime(p)
        for a in range(1, p):
            inv = Mod(a, p).inverse()
            assert inv == Mod(pow(a, p - 2, p), p)
            assert (Mod(a, p) * inv).value == 1
        assert field.characteristic == p


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if trial(n)]


def test_is_prime_large_values():
    # a Carmichael number, and strong pseudoprimes to bases 2..7 and 2..23
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    # PRIMALITY_CAP itself is the least strong pseudoprime to all 13 bases
    with pytest.raises(PreconditionError, match="primality range"):
        is_prime(PRIMALITY_CAP)
    with pytest.raises(PreconditionError):
        Field.prime(PRIMALITY_CAP + 2)


# ---------------------------------------------------------------- matrices


def test_zero_by_n_kernel_is_standard_basis():
    basis, rank = kernel_and_rank(Q, [], 3)
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert rank == 0


def test_zero_by_zero_matrix_is_legal():
    assert kernel_and_rank(Q, [], 0) == ([], 0)


def test_identity_kernel_empty():
    assert kernel_and_rank(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == ([], 3)


def test_kernel_one_one_over_f3():
    basis, _ = kernel_and_rank(F3, [[1, 1]], 2)
    assert basis == [[Mod(1, 3), Mod(2, 3)]]


def test_rank_examples():
    assert kernel_and_rank(Q, [[1, 2], [2, 4]], 2)[1] == 1
    assert kernel_and_rank(Q, [[1, 2], [3, 4]], 2)[1] == 2
    assert kernel_and_rank(F5, [[1, 2], [3, 6]], 2)[1] == 1
    r2 = Quad(0, 1, 2)
    assert kernel_and_rank(QR2, [[1, r2], [r2, 2]], 2)[1] == 1


def test_kernel_deterministic_echelon_shape():
    basis, _ = kernel_and_rank(Q, [[1, 1, 1]], 3)
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]


def _matrix_strategy(field, scalars):
    """(field, rows, ncols) with rows of ints or scalars, as the helper takes them."""
    return st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(scalars, min_size=cols, max_size=cols), min_size=0, max_size=4
        ).map(lambda rows: (field, rows, cols))
    )


def _assert_kernel_exact(case):
    field, rows, ncols = case
    basis, rank = kernel_and_rank(field, rows, ncols)
    assert rank + len(basis) == ncols
    for v in basis:
        for row in rows:
            assert sum((field.coerce(x) * y for x, y in zip(row, v)), field.zero) == field.zero


small_ints = st.integers(-6, 6)


@given(_matrix_strategy(Q, small_ints))
@settings(max_examples=120)
def test_rank_nullity_and_kernel_exact_q(case):
    _assert_kernel_exact(case)


@given(_matrix_strategy(F5, small_ints))
@settings(max_examples=120)
def test_rank_nullity_and_kernel_exact_f5(case):
    _assert_kernel_exact(case)


quad_scalars = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda t: Quad(t[0], t[1], 2)
)


@given(_matrix_strategy(QR2, quad_scalars))
@settings(max_examples=80)
def test_rank_nullity_and_kernel_exact_qr2(case):
    _assert_kernel_exact(case)


@given(_matrix_strategy(Q, small_ints))
@settings(max_examples=60)
def test_kernel_basis_is_reduced_echelon(case):
    field, rows, ncols = case
    basis, _ = kernel_and_rank(field, rows, ncols)
    if not basis:
        return
    again, pivots = _rref_rows(basis, ncols, field.one)
    assert again == basis
    assert len(pivots) == len(basis)


# ------------------------------------------------ RREF kernel against the oracle
#
# _rref_rows eliminates on integer lifts; reference_rref is Gauss-Jordan
# in field scalars. The RREF is unique, so rows, scalar types, hashes
# and pivots must all agree.

ORACLE_FIELDS = (
    Q,
    QR2,
    Field.quadratic(-3),
    Field.quadratic(5),
    Field.prime(2),
    F5,
    Field.prime(101),
)


def _oracle_scalars(field):
    if field.kind == "prime":
        return st.integers(0, field.p - 1).map(lambda a: Mod(a, field.p))
    fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    if field.kind == "rationals":
        return fracs
    return st.builds(lambda u, v: Quad(u, v, field.d), fracs, fracs)


@st.composite
def _oracle_vectors(draw):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    scalars = st.one_of(st.just(field.zero), _oracle_scalars(field))
    return field, draw(st.lists(scalars, min_size=1, max_size=6))


@given(_oracle_vectors())
@settings(max_examples=400, deadline=None)
def test_lift_then_scalar_scales_by_one_common_factor(case):
    # the integer form is the vector times one common factor: its
    # denominator, a positive int, over Q and Q(sqrt d), and 1 over F_p
    field, vec = case
    one = field.one
    lifted = _lift(vec, one)
    cells = list(zip(*lifted)) if field.kind == QUADRATIC else lifted[0]
    assert len(cells) == len(vec)
    scaled = [_scalar(x, 1, one) for x in cells]
    assert all(type(x) is type(one) for x in scaled)
    assert [bool(x) for x in scaled] == [bool(x) for x in vec]
    factors = {x / v for x, v in zip(scaled, vec) if v}
    assert len(factors) <= 1
    if not factors:
        return
    (factor,) = factors
    if field.kind == PRIME:
        assert factor == one
        den = 1
    else:
        if field.kind == QUADRATIC:
            assert not factor.v
            factor = factor.u
        assert factor.denominator == 1 and factor > 0
        den = factor.numerator
    rebuilt = [_scalar(x, den, one) for x in cells]
    assert rebuilt == vec
    assert all(type(x) is type(one) for x in rebuilt)


@st.composite
def _oracle_cases(draw):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    scalars = st.one_of(st.just(field.zero), _oracle_scalars(field))

    def matrix(nrows, ncols):
        row = st.lists(scalars, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    ncols = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(("dense", "product", "zero rows", "duplicates")))
    if shape == "product":
        k = draw(st.integers(1, 3))
        rows = _product(field, matrix(nrows, k), matrix(k, ncols), ncols)
    else:
        rows = matrix(nrows, ncols)
    if shape == "zero rows":
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), [field.zero] * ncols)
    if shape == "duplicates" and rows:
        for _ in range(draw(st.integers(1, 3))):
            copy = list(rows[draw(st.integers(0, len(rows) - 1))])
            rows.insert(draw(st.integers(0, len(rows))), copy)
    return field, rows, ncols


def _product(field, left, right, ncols):
    """left times right: rank at most len(right)."""
    return [
        [sum((x * r[j] for x, r in zip(row, right)), field.zero) for j in range(ncols)]
        for row in left
    ]


def _assert_same_rref(got, want):
    (got_rows, got_pivots), (want_rows, want_pivots) = got, want
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    for grow, wrow in zip(got_rows, want_rows):
        assert [type(x) for x in grow] == [type(x) for x in wrow]
        assert [hash(x) for x in grow] == [hash(x) for x in wrow]


@given(_oracle_cases())
@example((Q, [], 0))
@example((Q, [], 3))
@example((QR2, [[QR2.zero]], 1))
@example((Field.prime(2), [[Mod(1, 2)], [Mod(1, 2)]], 1))
@settings(max_examples=400, deadline=None)
def test_rref_rows_matches_reference(case):
    field, rows, ncols = case
    want = reference_rref(rows, ncols, field.one)
    _assert_same_rref(_rref_rows(rows, ncols, field.one), want)


def test_rref_rows_matches_reference_on_wide_random_matrices():
    rng = random.Random(5)
    for field in ORACLE_FIELDS:
        for nrows, ncols, k in ((12, 14, 12), (14, 12, 5), (9, 16, 9)):
            left = [[_seeded_scalar(rng, field) for _ in range(k)] for _ in range(nrows)]
            right = [[_seeded_scalar(rng, field) for _ in range(ncols)] for _ in range(k)]
            rows = _product(field, left, right, ncols)
            _assert_same_rref(
                _rref_rows(rows, ncols, field.one), reference_rref(rows, ncols, field.one)
            )


def _seeded_scalar(rng, field):
    if field.kind == "prime":
        return Mod(rng.randrange(field.p), field.p)
    u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if field.kind == "rationals":
        return u
    return Quad(u, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), field.d)


def _scalar_constructions(call) -> dict:
    """Fraction, Quad and Mod objects built by call(), from a cProfile pass."""
    profile = cProfile.Profile()
    profile.runcall(call)
    constructors = {
        (code.co_filename, code.co_firstlineno, code.co_name): kind
        for kind, code in (
            (Fraction, Fraction.__new__.__code__),
            (Quad, Quad.__init__.__code__),
            (Mod, Mod.__init__.__code__),
        )
    }
    counts = {Fraction: 0, Quad: 0, Mod: 0}
    for key, (_, calls, *_rest) in pstats.Stats(profile).stats.items():
        if key in constructors:
            counts[constructors[key]] += calls
    return counts


@pytest.mark.parametrize("field", [Q, QR2, Field.prime(101)], ids=str)
def test_rref_rows_builds_scalars_only_for_output_cells(field):
    rng = random.Random(24)
    rows = [[_seeded_scalar(rng, field) for _ in range(26)] for _ in range(24)]
    result = []
    counts = _scalar_constructions(lambda: result.append(_rref_rows(rows, 26, field.one)))
    out_rows, pivots = result[0]
    assert len(pivots) == 24
    cells = sum(len(row) for row in out_rows)
    # the lift reads numerators, components and residues; it builds nothing
    if field.kind == "quadratic":
        assert counts[Quad] <= cells
        # each Quad holds two Fractions, which Quad() coerces once more
        assert counts[Fraction] <= 4 * cells
    else:
        assert counts[type(field.one)] <= cells
