"""Tests for derivation modules of plane multiarrangements.

Two independent oracles anchor everything: divisibility by a power of a
linear form is re-checked through univariate long division after
dehomogenizing at y = 1, and small graded dimensions over F_5 are
re-counted by full enumeration of candidate derivations.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Q,
    field_directions,
    kernel_and_rank,
    random_arrangement,
    random_multiarrangement,
    reference_q_poly,
    reference_rref,
    reference_saito_verify,
    reference_theta2,
)
from linarr import derivations, exactalg
from linarr.arrangement import Arrangement, normalize_direction
from linarr.derivations import (
    AT_INFINITY,
    MULTIPLICITY_CAP,
    HomDerivation,
    Multiarrangement,
    _constraint_rows,
    adic_coefficients,
    divides_power,
    divmod_linear,
    euler_witness,
    exponents,
    format_multiarrangement,
    format_poly,
    graded_kernel,
    is_member,
    linear_power,
    parse_multiarrangement,
    poly_mul,
    saito_verify,
    ziegler_restriction,
)
from linarr.errors import (
    InvariantViolation,
    MembershipError,
    ParseError,
    PreconditionError,
)
from linarr.exactalg import Field, Quad, _scalar
from linarr.fixtures import ARRANGEMENT_FIXTURES, pencil

F5 = Field.prime(5)


# ------------------------------------------------------------------ oracles


def univ_div_linear(field, p, root):
    """Divide an ascending-coefficient p(t) by (t - root); (quotient, remainder)."""
    n = len(p) - 1
    if n == 0:
        return [], p[0]
    q = [field.zero] * n
    q[n - 1] = p[n]
    for k in range(n - 1, 0, -1):
        q[k - 1] = p[k] + root * q[k]
    rem = p[0] + root * q[0]
    return q, rem


def oracle_divides(field, coeffs, central, m):
    """alpha^m | P via dehomogenization, entirely apart from the adic chain."""
    a, b = central
    d = len(coeffs) - 1
    if not a:
        # alpha = y: exactly the leading x-major coefficients must vanish
        return all(not c for c in coeffs[: min(m, d + 1)])
    # P(x, y) = y^d p(t) with t = x/y; alpha = y (t + b), so alpha^m | P
    # iff (t + b)^m | p(t)
    p = [coeffs[d - k] for k in range(d + 1)]
    root = -field.coerce(b)
    for _ in range(m):
        if all(not c for c in p):
            return True
        if len(p) == 1:
            return False
        p, rem = univ_div_linear(field, p, root)
        if rem:
            return False
    return True


def brute_dim_f5(M, d):
    """Graded dimension over F_5 by enumerating all candidate derivations."""
    assert M.field == F5
    width = d + 1
    elements = [F5.from_int(k) for k in range(5)]
    count = 0
    for combo in product(elements, repeat=2 * width):
        px, py = combo[:width], combo[width:]
        ok = True
        for (a, b), m in M.items():
            value = tuple(a * p + b * q for p, q in zip(px, py))
            if not oracle_divides(F5, value, (a, b), m):
                ok = False
                break
        if ok:
            count += 1
    dim = 0
    while 5**dim < count:
        dim += 1
    assert 5**dim == count, "solution set must be a subspace"
    return dim


def mk(field, pairs):
    """Multiarrangement from (a, b, multiplicity) triples."""
    return Multiarrangement(field, [(a, b) for a, b, _ in pairs], [m for _, _, m in pairs])


def rand_poly(rng, field, d):
    return tuple(field.from_int(rng.randint(-3, 3)) for _ in range(d + 1))


def lifted_scalars(parts, one) -> list:
    """Field scalars of a vector given by exactalg._lift: (ints,),
    or (u parts, v parts) over Q(sqrt d)."""
    if type(one) is Quad:
        return [_scalar(uv, 1, one) for uv in zip(*parts)]
    return [_scalar(x, 1, one) for x in parts[0]]


def is_nonzero_multiple(got, want) -> bool:
    """Whether want = c * got for one nonzero scalar c."""
    lead = next((i for i, x in enumerate(got) if x), None)
    if lead is None or not want[lead]:
        return False
    c = want[lead] / got[lead]
    return list(want) == [c * x for x in got]


# ----------------------------------------------------- division against oracle


def test_divmod_linear_hand_values():
    # (x + y)(x - y) = x^2 - y^2
    quot, gamma = divmod_linear(Q, (1, 0, -1), (Q.one, Q.one))
    assert gamma == 0 and quot == (1, -1)
    # y^2 against x + y: remainder coefficient in the beta = x slot
    quot, gamma = divmod_linear(Q, (0, 0, 1), (Q.one, Q.one))
    assert gamma == 1 and quot == (-1, 1)
    # alpha = x keeps the y^d coefficient as remainder
    quot, gamma = divmod_linear(Q, (2, 3, 4), (Q.one, Q.zero))
    assert gamma == 4 and quot == (2, 3)
    # alpha = y strips the x^d coefficient
    quot, gamma = divmod_linear(Q, (2, 3, 4), (Q.zero, Q.one))
    assert gamma == 2 and quot == (3, 4)


def test_divmod_linear_reconstructs():
    rng = random.Random(11)
    for field in (Q, F5, Field.quadratic(2)):
        dirs = [(field.one, field.zero), (field.zero, field.one)]
        dirs += [(field.one, field.from_int(k)) for k in (1, 2, -1)]
        for _ in range(80):
            d = rng.randint(0, 6)
            coeffs = rand_poly(rng, field, d)
            central = dirs[rng.randrange(len(dirs))]
            quot, gamma = divmod_linear(field, coeffs, central)
            beta = (
                (field.zero, field.one)
                if central == (field.one, field.zero)
                else (field.one, field.zero)
            )
            rebuilt = poly_mul(field, linear_power(field, central, 1), quot)
            if not rebuilt:
                rebuilt = (field.zero,) * (d + 1)
            rem = linear_power(field, beta, d)
            rebuilt = tuple(r + gamma * s for r, s in zip(rebuilt, rem))
            assert rebuilt == coeffs


def test_divides_power_matches_oracle():
    rng = random.Random(12)
    for field in (Q, F5):
        dirs = [(field.one, field.zero), (field.zero, field.one)]
        dirs += [(field.one, field.from_int(k)) for k in (1, 2, -2)]
        for _ in range(250):
            d = rng.randint(0, 5)
            central = dirs[rng.randrange(len(dirs))]
            m = rng.randint(1, 4)
            if rng.random() < 0.5 or d < m:
                coeffs = rand_poly(rng, field, d)
            else:
                # plant a true multiple of alpha^m now and then
                rest = rand_poly(rng, field, d - m)
                coeffs = poly_mul(field, linear_power(field, central, m), rest)
                if not coeffs:
                    coeffs = (field.zero,) * (d + 1)
            got = divides_power(field, central, m, coeffs)
            assert got == oracle_divides(field, coeffs, central, m)


# --------------------------------------------------------------- graded dims


def adic_constraint_rows(M, d):
    """The rows of the degree-d kernel built from adic_coefficients per monomial."""
    field = M.field
    width = d + 1
    rows = []
    for central, mult in M.items():
        steps = min(mult, width)
        a, b = central
        per_monomial = [
            adic_coefficients(
                field,
                tuple(field.one if k == j else field.zero for k in range(width)),
                central,
                steps,
            )
            for j in range(width)
        ]
        for s in range(steps):
            rows.append(
                [a * per_monomial[j][s] for j in range(width)]
                + [b * per_monomial[j][s] for j in range(width)]
            )
    return rows


def test_constraint_rows_match_adic_construction():
    rng = random.Random(18)
    qr2 = Field.quadratic(2)
    r = Quad(0, 1, 2)
    qr2_dirs = [(1, 0), (0, 1), (1, r), (1, 1 - r), (2, 1 + r), (1, Quad(Fraction(1, 3), -2, 2))]
    for field in (Q, qr2, F5):
        for _ in range(12):
            if field is qr2:
                chosen = rng.sample(qr2_dirs, rng.randint(0, 4))
                M = Multiarrangement(field, chosen, [rng.randint(1, 4) for _ in chosen])
            else:
                M = random_multiarrangement(rng, field, max_h=4, max_mult=4)
            for d in range(M.size + 1):
                assert _constraint_rows(M, d) == adic_constraint_rows(M, d)


def test_graded_dims_frozen():
    xy22 = mk(Q, [(1, 0, 2), (0, 1, 2)])
    assert [len(graded_kernel(xy22, d)) for d in (0, 1, 2, 3)] == [0, 0, 2, 4]
    triple = mk(Q, [(1, 0, 1), (0, 1, 1), (1, -1, 1)])
    assert len(graded_kernel(triple, 1)) == 1
    skew = mk(Q, [(1, 0, 2), (0, 1, 1), (1, 1, 1)])
    assert [len(graded_kernel(skew, d)) for d in (0, 1, 2)] == [0, 0, 2]
    empty = mk(Q, [])
    assert len(graded_kernel(empty, 0)) == 2
    single = mk(Q, [(1, 0, 3)])
    assert len(graded_kernel(single, 0)) == 1


def test_graded_dim_zero_at_degree_zero():
    rng = random.Random(13)
    for _ in range(25):
        M = random_multiarrangement(rng, Q, max_h=4, min_h=2)
        assert len(graded_kernel(M, 0)) == 0


def test_graded_dims_match_brute_force_over_f5():
    rng = random.Random(14)
    cases = [
        mk(F5, [(1, 0, 2), (0, 1, 2)]),
        mk(F5, [(1, 0, 1), (0, 1, 1), (1, 4, 1)]),
        mk(F5, [(1, 2, 3)]),
        mk(F5, []),
    ]
    for _ in range(4):
        cases.append(random_multiarrangement(rng, F5, max_h=3, max_mult=3))
    for M in cases:
        for d in (0, 1, 2):
            assert len(graded_kernel(M, d)) == brute_dim_f5(M, d)


def test_graded_kernel_vectors_are_members():
    rng = random.Random(15)
    for field in (Q, F5, Field.quadratic(2)):
        for _ in range(20):
            M = random_multiarrangement(rng, field, max_h=4, max_mult=3)
            d = rng.randint(0, 4)
            basis = graded_kernel(M, d)
            for theta in basis:
                assert theta.degree == d
                assert is_member(M, theta)
            # the rows-level kernel gives the basis of the coerced matrix
            kernel, _ = kernel_and_rank(field, _constraint_rows(M, d), 2 * (d + 1))
            assert [list(theta.px + theta.py) for theta in basis] == kernel


# ----------------------------------------------------------------- exponents


def test_exponents_frozen_small():
    empty = exponents(mk(Q, []))
    assert empty.pair == (0, 0)
    assert empty.theta1 == HomDerivation(Q, (1,), (0,))
    assert empty.theta2 == HomDerivation(Q, (0,), (1,))

    single = exponents(mk(Q, [(1, 0, 3)]))
    assert single.pair == (0, 3)
    assert single.theta1 == HomDerivation(Q, (0,), (1,))

    xy22 = exponents(mk(Q, [(1, 0, 2), (0, 1, 2)]))
    assert xy22.pair == (2, 2)
    assert xy22.theta1 == HomDerivation(Q, (1, 0, 0), (0, 0, 0))
    assert xy22.theta2 == HomDerivation(Q, (0, 0, 0), (0, 0, 1))

    assert exponents(mk(Q, [(1, 0, 5), (0, 1, 1)])).pair == (1, 5)
    assert exponents(mk(Q, [(1, 0, 1), (0, 1, 1), (1, -1, 1)])).pair == (1, 2)
    assert exponents(mk(Q, [(1, 0, 2), (0, 1, 1), (1, 1, 1)])).pair == (2, 2)


def counted_exponents(monkeypatch, M):
    """Uncached exponents(M) and the degrees of the graded kernels it built.

    Also checks that the call built Q(M) exactly once, and that it
    eliminated only inside graded_kernel: never through _kernel_rows
    outside graded_kernel.
    """
    calls = []
    q_builds = []
    inside = []

    def counting(M, d):
        calls.append(d)
        inside.append(d)
        try:
            return graded_kernel(M, d)
        finally:
            inside.pop()

    def guarded_kernel(rows, ncols, one):
        assert inside, "exponents must eliminate only through graded_kernel"
        return kernel_rows(rows, ncols, one)

    def counting_q(M):
        q_builds.append(M)
        return q_lifted(M)

    kernel_rows = derivations._kernel_rows
    q_lifted = derivations._q_lifted
    with monkeypatch.context() as patch:
        patch.setattr(derivations, "graded_kernel", counting)
        patch.setattr(derivations, "_kernel_rows", guarded_kernel)
        patch.setattr(derivations, "_q_lifted", counting_q)
        exp = exponents.__wrapped__(M)
    assert q_builds == [M]
    return exp, calls


def test_exponents_probe_edge_cases(monkeypatch):
    # |m| = 0: the probe at degree 0 is all of dx, dy
    exp, calls = counted_exponents(monkeypatch, mk(Q, []))
    assert exp.pair == (0, 0) and calls == [0]

    # a two-dimensional probe at odd |m| is not the balanced case
    single = mk(Q, [(1, 0, 3)])
    assert len(graded_kernel(single, 1)) == 2
    exp, calls = counted_exponents(monkeypatch, single)
    assert exp.pair == (0, 3) and calls == [1, 0, 3]

    # odd |m| with d1 = |m| // 2: one-dimensional probe, reused as theta1
    triple = mk(Q, [(1, 0, 1), (0, 1, 1), (1, -1, 1)])
    probe = graded_kernel(triple, 1)
    assert len(probe) == 1
    exp, calls = counted_exponents(monkeypatch, triple)
    assert exp.pair == (1, 2) and exp.theta1 == probe[0] and calls == [1, 2]

    xy22 = mk(Q, [(1, 0, 2), (0, 1, 2)])
    probe = graded_kernel(xy22, 2)
    exp, calls = counted_exponents(monkeypatch, xy22)
    assert exp.pair == (2, 2) and (exp.theta1, exp.theta2) == probe and calls == [2]

    # two-dimensional probe at even |m| spanned by x*theta1, y*theta1:
    # its determinant is zero, so only the returned pair builds Q(M)
    generic = mk(Q, [(1, 0, 1), (0, 1, 1), (1, -1, 1), (1, 1, 1)])
    probe = graded_kernel(generic, 2)
    assert len(probe) == 2 and not saito_verify(probe[0], probe[1], generic)
    exp, calls = counted_exponents(monkeypatch, generic)
    assert exp.pair == (1, 3) and calls == [2, 1, 3]


def test_exponents_violation_carries_reproducer(monkeypatch):
    M = mk(F5, [(1, 0, 2), (0, 1, 1), (1, 3, 2)])
    monkeypatch.setattr(derivations, "saito_verify", lambda t1, t2, M: False)
    with pytest.raises(InvariantViolation) as info:
        exponents.__wrapped__(M)
    text = format_multiarrangement(M)
    message = str(info.value)
    assert message.endswith(text)
    assert parse_multiarrangement(message.split(":\n", 1)[1]) == M


def test_exponents_squares_diagonals_restriction():
    M = mk(Q, [(1, 0, 3), (0, 1, 3), (1, 1, 3), (1, -1, 3)])
    exp = exponents(M)
    assert exp.pair == (5, 7)
    assert is_member(M, exp.theta1) and is_member(M, exp.theta2)
    assert saito_verify(exp.theta1, exp.theta2, M)


def test_exponents_properties():
    rng = random.Random(16)
    for field in (Q, F5):
        for _ in range(30):
            M = random_multiarrangement(rng, field, max_h=4, max_mult=4)
            exp = exponents(M)
            assert exp.d1 <= exp.d2
            assert exp.d1 + exp.d2 == M.size
            assert 2 * exp.d1 <= M.size
            assert exp.theta1.degree == exp.d1
            assert exp.theta2.degree == exp.d2
            assert is_member(M, exp.theta1) and is_member(M, exp.theta2)
            assert saito_verify(exp.theta1, exp.theta2, M)


def test_dimension_profile_formula():
    rng = random.Random(17)
    for field in (Q, F5):
        for _ in range(12):
            M = random_multiarrangement(rng, field, max_h=4, max_mult=3)
            if M.size > 10:
                continue
            d1, d2 = exponents(M).pair
            for d in range(M.size + 1):
                expect = max(0, d - d1 + 1) + max(0, d - d2 + 1)
                assert len(graded_kernel(M, d)) == expect


def test_exponents_deterministic_under_reordering():
    M = mk(Q, [(1, 0, 3), (0, 1, 3), (1, 1, 3), (1, -1, 3)])
    reordered = mk(Q, [(1, -1, 3), (0, 1, 3), (1, 1, 3), (1, 0, 3)])
    assert M == reordered and hash(M) == hash(reordered)
    fresh = exponents.__wrapped__(reordered)
    cached = exponents(M)
    assert fresh.pair == cached.pair
    assert fresh.theta1 == cached.theta1
    assert fresh.theta2 == cached.theta2


# --------------------------------------------------------------------- Saito


def test_saito_verify_hand_pair():
    M = mk(Q, [(1, 0, 2), (0, 1, 2)])
    t1 = HomDerivation(Q, (1, 0, 0), (0, 0, 0))
    t2 = HomDerivation(Q, (0, 0, 0), (0, 0, 1))
    assert saito_verify(t1, t2, M)
    # Q(M) = x^2 y^2
    assert reference_q_poly(M) == (0, 0, 1, 0, 0)
    assert derivations._q_lifted(M) == ([0, 0, 1, 0, 0],)


def test_saito_verify_rejects_dependent_pair():
    M = mk(Q, [(1, 0, 1), (0, 1, 1)])
    theta_e = HomDerivation(Q, (1, 0), (0, 1))
    assert saito_verify(theta_e, theta_e, M) is False


def test_saito_verify_degree_mismatch():
    M = mk(Q, [(1, 0, 2), (0, 1, 2)])
    t1 = HomDerivation(Q, (1, 0, 0), (0, 0, 0))
    theta_e = HomDerivation(Q, (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        saito_verify(t1, theta_e, M)


SAITO_FIELDS = (Q, Field.quadratic(2), Field.quadratic(-3), F5, Field.prime(101))
SAITO_CASES = (
    "witnesses", "scaled", "sheared", "in S*theta1", "perturbed", "irrational shift", "random"
)


def _random_scalar(rng, field):
    x = field.from_int(rng.randint(-3, 3))
    if field.kind == "quadratic" and rng.random() < 0.5:
        x = x + Quad(0, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), field.d)
    return x


def _random_poly(rng, field, d):
    """A nonzero homogeneous polynomial of degree d."""
    while True:
        f = tuple(_random_scalar(rng, field) for _ in range(d + 1))
        if any(f):
            return f


def _times(field, f, theta):
    return HomDerivation(field, poly_mul(field, f, theta.px), poly_mul(field, f, theta.py))


@given(
    st.sampled_from(SAITO_FIELDS),
    st.sampled_from(SAITO_CASES),
    st.integers(0, 2**32),
)
@settings(max_examples=250, deadline=None)
def test_saito_verify_matches_reference(field, case, seed):
    """saito_verify on integer lifts decides as the field-scalar check does."""
    rng = random.Random(seed)
    if case == "irrational shift":
        dirs = rng.sample(field_directions(field), rng.randint(1, 4))
        M = Multiarrangement(field, dirs, [rng.randint(1, 3) for _ in dirs])
    else:
        M = random_multiarrangement(rng, field, max_h=4, min_h=1, max_mult=3)
    e = exponents(M)
    t1, t2 = e.theta1, e.theta2
    f = _random_poly(rng, field, e.d2 - e.d1)
    if case == "scaled":
        # nonzero multiples, in either order
        t1, t2 = (_times(field, _random_poly(rng, field, 0), t) for t in (t1, t2))
        if rng.random() < 0.5:
            t1, t2 = t2, t1
    elif case == "sheared":
        # theta2 + f*theta1 keeps the determinant, and is not zero
        g = _times(field, f, t1)
        t2 = HomDerivation(field, tuple(map(add, t2.px, g.px)), tuple(map(add, t2.py, g.py)))
    elif case == "in S*theta1":
        t2 = _times(field, f, t1)
    elif case == "perturbed":
        px, py = list(t2.px), list(t2.py)
        i = rng.randrange(len(px))
        py[i] = py[i] + _random_poly(rng, field, 0)[0]
        if any(px) or any(py):
            t2 = HomDerivation(field, tuple(px), tuple(py))
    elif case == "irrational shift":
        # over Q(sqrt d), M and its witnesses are rational, so sqrt(d)*g
        # moves only the v parts of the determinant
        s = Quad(0, 1, field.d) if field.kind == "quadratic" else field.one
        g = [s * rng.randint(-3, 3) for _ in range(2 * e.d2 + 2)]
        px, py = tuple(map(add, t2.px, g[: e.d2 + 1])), tuple(map(add, t2.py, g[e.d2 + 1 :]))
        if any(px) or any(py):
            t2 = HomDerivation(field, px, py)
    elif case == "random":
        a = rng.randint(0, M.size)
        t1 = HomDerivation(field, _random_poly(rng, field, a), _random_poly(rng, field, a))
        b = M.size - a
        t2 = HomDerivation(field, _random_poly(rng, field, b), _random_poly(rng, field, b))
    got = saito_verify(t1, t2, M)
    assert got == reference_saito_verify(t1, t2, M)
    if case in ("witnesses", "scaled", "sheared"):
        assert got
    if case == "in S*theta1":
        assert not got


# ------------------------------------------------------------- Euler witness


def test_euler_witness_simple_is_euler():
    M = mk(Q, [(1, 0, 1), (0, 1, 1), (1, -1, 1)])
    theta = euler_witness(M)
    assert theta == HomDerivation(Q, (1, 0), (0, 1))
    assert theta.degree == 1


def test_euler_witness_xy22():
    M = mk(Q, [(1, 0, 2), (0, 1, 2)])
    theta = euler_witness(M)
    # x*y * theta_E = x^2 y dx + x y^2 dy
    assert theta == HomDerivation(Q, (0, 1, 0, 0), (0, 0, 1, 0))
    assert theta.degree == 3


def test_euler_witness_random_membership_and_degree():
    rng = random.Random(18)
    for field in (Q, F5):
        for _ in range(25):
            M = random_multiarrangement(rng, field, max_h=4, min_h=1)
            theta = euler_witness(M)
            assert theta.degree == M.size - M.h + 1
            assert is_member(M, theta)
            if M.size <= 2 * M.h - 2:
                assert exponents(M).d1 == theta.degree


# ----------------------------------------------------------- membership odds


def test_is_member_rejects():
    M = mk(Q, [(1, 0, 2), (0, 1, 2)])
    assert not is_member(M, HomDerivation(Q, (1, 0), (0, 0)))  # x dx
    assert not is_member(M, HomDerivation(Q, (1, 0), (0, 1)))  # theta_E


@pytest.mark.parametrize("field", [F5, Field.quadratic(2)], ids=str)
def test_saito_verify_rejects_field_mismatch(field):
    M = mk(field, [(1, 0, 2), (0, 1, 2)])
    # a certified pair over Q, checked against M over another field
    t1 = HomDerivation(Q, (1, 0, 0), (0, 0, 0))
    t2 = HomDerivation(Q, (0, 0, 0), (0, 0, 1))
    with pytest.raises(PreconditionError):
        saito_verify(t1, t2, M)
    with pytest.raises(PreconditionError):
        saito_verify(HomDerivation(field, (1, 0, 0), (0, 0, 0)), t2, M)


def test_q_poly_times_dx_is_member():
    rng = random.Random(19)
    for field in (Q, F5, Field.quadratic(2)):
        for _ in range(15):
            M = random_multiarrangement(rng, field, max_h=4, min_h=1, max_mult=3)
            q = reference_q_poly(M)
            zero = (field.zero,) * len(q)
            assert is_member(M, HomDerivation(field, q, zero))
            # the integer form Saito's check builds is Q(M) up to a scalar
            lifted = lifted_scalars(derivations._q_lifted(M), field.one)
            assert is_nonzero_multiple(lifted, q)


# --------------------------------------------------------- exponent lemmas


def test_increment_moves_one_exponent():
    rng = random.Random(20)
    for field in (Q, F5):
        for _ in range(25):
            M = random_multiarrangement(rng, field, max_h=4, min_h=1, max_mult=3)
            i = rng.randrange(M.h)
            bigger = Multiarrangement(
                M.field,
                M.centrals,
                tuple(m + (1 if j == i else 0) for j, m in enumerate(M.mults)),
            )
            d1, d2 = exponents(M).pair
            assert exponents(bigger).pair in {(d1 + 1, d2), (d1, d2 + 1)}


def test_pointwise_monotonicity():
    rng = random.Random(21)
    for field in (Q, F5):
        for _ in range(25):
            M = random_multiarrangement(rng, field, max_h=4, min_h=1, max_mult=4)
            smaller = Multiarrangement(
                M.field, M.centrals, tuple(rng.randint(1, m) for m in M.mults)
            )
            d1, d2 = exponents(smaller).pair
            e1, e2 = exponents(M).pair
            assert d1 <= e1 and d2 <= e2


def test_exponent_bounds_by_size():
    rng = random.Random(22)
    for field in (Q, F5):
        for _ in range(40):
            M = random_multiarrangement(rng, field, max_h=5, min_h=1, max_mult=4)
            n = M.h
            d1, d2 = exponents(M).pair
            if M.size >= 2 * n - 2:
                assert d1 >= n - 1 and d2 >= n - 1
            if M.size <= 2 * n - 2:
                assert (d1, d2) == (M.size - n + 1, n - 1)
            # splitting |m| strictly around n - 1 brackets the exponents
            for alpha in range(M.size + 1):
                beta = M.size - alpha
                if alpha < n - 1 < beta:
                    assert alpha < d1 <= d2 < beta


def test_unbalanced_closed_form():
    rng = random.Random(23)
    for field in (Q, F5):
        for _ in range(25):
            M = random_multiarrangement(rng, field, max_h=4, min_h=1, max_mult=3)
            # force one dominant multiplicity
            i = rng.randrange(M.h)
            mults = list(M.mults)
            mults[i] = sum(mults) + rng.randint(1, 3)
            M = Multiarrangement(M.field, M.centrals, tuple(mults))
            assert not M.is_balanced()
            top = max(M.mults)
            assert exponents(M).pair == (M.size - top, top)


def _unbalanced_multiarrangements(rng, field, count):
    """Odd |m|, or one multiplicity above the sum of the others."""
    dirs = [(field.zero, field.one)]
    if field.kind == "quadratic":
        dirs += [(field.one, Quad(u, v, field.d)) for u in range(-2, 3) for v in (-1, 1)]
    ts = range(min(field.p, 11)) if field.characteristic else range(-5, 6)
    dirs += [(field.one, field.from_int(t)) for t in ts]
    cases = []
    while len(cases) < count:
        h = rng.randint(1, 5)
        mults = [rng.randint(1, 4) for _ in range(h)]
        if len(cases) % 2:
            i = rng.randrange(h)
            mults[i] = sum(mults) - mults[i] + rng.randint(1, 3)
        elif sum(mults) % 2 == 0:
            mults[rng.randrange(h)] += 1
        cases.append(Multiarrangement(field, rng.sample(dirs, h), mults))
    return cases


UNBALANCED_FIELDS = (Q, Field.quadratic(2), Field.quadratic(-3), F5, Field.prime(101))


def _battery_multiarrangements():
    """500 seeded multiarrangements, 100 per field of UNBALANCED_FIELDS.

    They cycle through even |m|, odd |m|, one dominant multiplicity and
    even |m| again; over Q(sqrt d) every other one draws from irrational
    centrals too.
    """
    rng = random.Random(1313)
    for field in (Q, F5, Field.prime(101), Field.quadratic(2), Field.quadratic(-3)):
        one = field.one
        rational = [(field.zero, one)]
        if field.characteristic:
            rational += [(one, field.from_int(t)) for t in range(field.p)]
        else:
            rational += [(one, field.from_int(t)) for t in range(-5, 6)]
            rational += [(2 * one, field.from_int(t)) for t in (-3, -1, 1, 3)]
        irrational = []
        if field.kind == "quadratic":
            irrational += [(one, Quad(u, v, field.d)) for u in range(-2, 3) for v in (-1, 1, 2)]
            irrational += [(2 * one, Quad(u, v, field.d)) for u in (-1, 1) for v in (-1, 1)]
        for k in range(100):
            dirs = rational + (irrational if k % 2 == 0 else [])
            h = rng.randint(1, 5)
            mults = [rng.randint(1, 4) for _ in range(h)]
            if k % 4 == 2:
                i = rng.randrange(h)
                mults[i] = sum(mults) - mults[i] + rng.randint(1, 3)
            elif sum(mults) % 2 != (k % 4 == 1):
                mults[rng.randrange(h)] += 1
            yield Multiarrangement(field, rng.sample(dirs, h), mults)


def test_exponents_battery_digest():
    """Degrees and witnesses of 500 multiarrangements, frozen by one digest.

    The digest was recorded with the field-scalar Saito check, before
    it moved onto integer lifts.
    """
    digest = hashlib.sha256()
    unbalanced = 0
    for M in _battery_multiarrangements():
        e = exponents.__wrapped__(M)
        digest.update(repr((M.field, e.d1, e.d2, e.theta1, e.theta2)).encode())
        unbalanced += e.d1 != e.d2
    assert unbalanced == 347
    assert digest.hexdigest() == (
        "8ff21fb3c1f0a8aea7f1adbb959dcb4ef6f4e93b118e77743863d60cc365b55c"
    )


@pytest.mark.parametrize("field", UNBALANCED_FIELDS, ids=str)
def test_unbalanced_exponents_match_reference_rref(field, monkeypatch):
    cases = _unbalanced_multiarrangements(random.Random(31), field, 16)

    def run():
        exponents.cache_clear()
        out = []
        for M in cases:
            e = exponents(M)
            out.append((e.d1, e.d2, e.theta1, e.theta2))
        exponents.cache_clear()
        return out

    fast = run()
    # the same exponents from field-scalar eliminations and Saito checks
    monkeypatch.setattr(exactalg, "_rref_rows", reference_rref)
    monkeypatch.setattr(derivations, "saito_verify", reference_saito_verify)
    assert run() == fast
    for M, (d1, d2, _, _) in zip(cases, fast):
        assert d1 < d2
        top = max(M.mults)
        if 2 * top > M.size:
            assert (d1, d2) == (M.size - top, top)


def test_unbalanced_theta2_matches_span_elimination():
    """theta2 chosen by Saito's check is the span elimination's choice."""
    skipped = 0
    for field in UNBALANCED_FIELDS:
        for M in _unbalanced_multiarrangements(random.Random(31), field, 16):
            e = exponents.__wrapped__(M)
            assert e.theta2 == reference_theta2(M, e.theta1, e.d2), (field, M)
            skipped += e.theta2 != graded_kernel(M, e.d2)[0]
    # the first kernel vector lies in S*theta1 in a few of these cases
    assert skipped


@pytest.mark.parametrize("field", UNBALANCED_FIELDS, ids=str)
def test_unbalanced_exponents_eliminate_only_through_graded_kernel(field, monkeypatch):
    for M in _unbalanced_multiarrangements(random.Random(31), field, 16):
        exp, calls = counted_exponents(monkeypatch, M)
        d = M.size // 2
        assert calls == [d] + ([exp.d1] if exp.d1 != d else []) + [exp.d2]


def test_balanced_gap_bound_char_zero():
    rng = random.Random(24)
    checked = 0
    while checked < 25:
        M = random_multiarrangement(rng, Q, max_h=5, min_h=3, max_mult=4)
        if not M.is_balanced() or M.h <= 2:
            continue
        d1, d2 = exponents(M).pair
        assert d2 - d1 <= M.h - 2
        checked += 1


@pytest.mark.parametrize("field", [Q, Field.quadratic(2)], ids=str)
def test_three_lines_match_wakamiko(field):
    # Wakamiko (Tokyo J. Math. 30, 2007): three lines with multiplicities
    # summing to k have exponents (k - max, max) when 2 * max >= k and
    # (k // 2, k - k // 2) otherwise. Characteristic 0 only: over F_5,
    # multiplicities (6, 5, 6) give (7, 10).
    rng = random.Random(41)
    dirs = [(field.zero, field.one)] + [(field.one, field.from_int(t)) for t in range(-4, 5)]
    if field.kind == "quadratic":
        dirs += [(field.one, Quad(u, 1, field.d)) for u in range(-2, 3)]
    balanced = 0
    for _ in range(24):
        mults = [rng.randint(1, 9) for _ in range(3)]
        M = Multiarrangement(field, rng.sample(dirs, 3), mults)
        k, top = M.size, max(mults)
        want = (k - top, top) if 2 * top >= k else (k // 2, k - k // 2)
        assert exponents(M).pair == want
        balanced += 2 * top < k
    assert 8 <= balanced < 24  # both branches are met


def test_is_balanced():
    assert mk(Q, [(1, 0, 3), (0, 1, 3), (1, 1, 3), (1, -1, 3)]).is_balanced()
    assert not mk(Q, [(1, 0, 5), (0, 1, 1)]).is_balanced()
    assert mk(Q, [(1, 0, 2), (0, 1, 2)]).is_balanced()
    assert mk(Q, []).is_balanced()


# -------------------------------------------------------- Ziegler restriction


def test_ziegler_at_infinity_pencil():
    for n in (3, 5, 7):
        M = ziegler_restriction(pencil(n), AT_INFINITY)
        assert M.h == n and M.mults == (1,) * n
        assert M.size == n


def test_ziegler_at_infinity_squares_diagonals():
    M = ziegler_restriction(ARRANGEMENT_FIXTURES["squares_diagonals"]())
    assert M.h == 4
    assert sorted(M.mults) == [3, 3, 3, 3]
    assert set(M.centrals) == {
        normalize_direction(Q, 1, 0),
        normalize_direction(Q, 0, 1),
        normalize_direction(Q, 1, 1),
        normalize_direction(Q, 1, -1),
    }
    assert exponents(M).pair == (5, 7)


def test_ziegler_at_infinity_star7():
    M = ziegler_restriction(ARRANGEMENT_FIXTURES["star7_transversal_q"]())
    assert M.h == 8 and M.mults == (1,) * 8
    assert exponents(M).pair == (1, 7)


def test_ziegler_member_single_line():
    arr = Arrangement.from_triples(Q, [(1, 0, 0)])
    M = ziegler_restriction(arr, 0)
    assert M.h == 1 and M.mults == (1,)


def test_ziegler_member_squares_diagonals():
    arr = ARRANGEMENT_FIXTURES["squares_diagonals"]()
    M = ziegler_restriction(arr, 0)
    assert M.h == arr.n_counts[0] + 1 == 4
    assert sorted(M.mults) == [3, 3, 3, 3]
    assert M.size == 12
    assert exponents(M).pair == (5, 7)


def test_ziegler_member_counts_random():
    rng = random.Random(25)
    for field in (Q, F5):
        for _ in range(20):
            arr = random_arrangement(rng, field, 6, min_lines=1)
            M_inf = ziegler_restriction(arr)
            assert M_inf.size == len(arr)
            i = rng.randrange(len(arr))
            M_mem = ziegler_restriction(arr, i)
            assert M_mem.size == len(arr)
            assert M_mem.h == arr.n_counts[i] + 1


def test_ziegler_bad_target():
    with pytest.raises(MembershipError):
        ziegler_restriction(pencil(3), 3)
    with pytest.raises(MembershipError):
        ziegler_restriction(pencil(3), -1)


# ------------------------------------------------------------------- file IO


MARR_TEXT = """\
field Q
mline 1 0 3
mline 0 1 3   # the y axis, tripled
mline 1 1 3
mline 1 -1 3
"""


def test_parse_multiarrangement():
    M = parse_multiarrangement(MARR_TEXT)
    assert M.h == 4 and M.size == 12
    assert exponents(M).pair == (5, 7)


def test_parse_multiarrangement_errors():
    def err(text):
        with pytest.raises(ParseError) as info:
            parse_multiarrangement(text, path="m.marr")
        return info.value

    e = err("field Q\nmline 1 0 0\n")
    assert e.line == 2 and "positive integer" in e.message
    e = err("field Q\nmline 1 0 -1\n")
    assert "positive integer" in e.message
    e = err("field Q\nmline 1 0 3/2\n")
    assert "positive integer" in e.message
    e = err("field Q\nmline 0 0 2\n")
    assert e.line == 2 and "not a direction" in e.message
    e = err("field Q\nmline 1 0 1\nmline 2 0 1\n")
    assert e.line == 3 and "input line 2" in e.message
    e = err("field Q\nline 1 0 1\n")
    assert "unknown directive" in e.message


def test_parse_multiarrangement_caps_total_multiplicity():
    at_cap = "field F 101\nmline 1 0 1022\nmline 0 1 1\nmline 1 1 1\n"
    assert parse_multiarrangement(at_cap).size == MULTIPLICITY_CAP == 1024
    over = at_cap.replace("mline 1 1 1", "mline 1 1 2")
    with pytest.raises(ParseError) as info:
        parse_multiarrangement(over, path="m.marr")
    assert str(info.value) == "m.marr: total multiplicity 1025 is above 1024"


def test_marr_round_trip():
    rng = random.Random(26)
    for field in (Q, F5, Field.quadratic(3)):
        for _ in range(20):
            M = random_multiarrangement(rng, field, max_h=5)
            again = parse_multiarrangement(format_multiarrangement(M))
            assert again == M
            assert again.centrals == M.centrals and again.mults == M.mults


def test_multiarrangement_validation():
    with pytest.raises(PreconditionError):
        Multiarrangement(Q, [(1, 0), (2, 0)], [1, 1])
    with pytest.raises(PreconditionError):
        Multiarrangement(Q, [(1, 0)], [0])
    with pytest.raises(PreconditionError):
        Multiarrangement(Q, [(1, 0)], [1, 2])
    with pytest.raises(PreconditionError):
        Multiarrangement(Q, [(0, 0)], [1])
    # a multiplicity is an int, never truncated or parsed from another type
    for bad in (2.7, True, "3", Fraction(2)):
        with pytest.raises(PreconditionError, match="multiplicities must be ints"):
            Multiarrangement(Q, [(1, 0)], [bad])


def test_format_poly_rendering():
    assert format_poly(Q, (1, 0, -1)) == "x^2 - y^2"
    assert format_poly(Q, (0, 1, 0, 0)) == "x^2y"
    assert format_poly(Q, (0,)) == "0"
    theta = HomDerivation(Q, (1, 0, 0), (0, 0, 0))
    assert str(theta) == "(x^2) dx + (0) dy"
