"""Exhaustive computations over the affine plane of a small prime field.

Over F_p the whole plane is finite: p^2 points and p^2 + p lines.
`_plane_tables` checks their incidence once per prime and keeps it as
an index table that the scans here read. Point counts on that table do
not consult the lattice's intersection keys, so they check it. The
headline identity is chi(A, p) = number of plane points on no member
line; it powers two freeness criteria that only exist in positive
characteristic: if p is a root of the characteristic polynomial the
arrangement is free, and the same holds for p - 1. For
multiarrangements whose multiplicities stay at or below p, the
derivation x^p dx + y^p dy pins the exponents against the field order.

Primes are capped at PLANE_PRIME_CAP (13), so a table has at most 182
lines. Prime powers q = p^n with n > 1 are not supported.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .arrangement import Arrangement, Line
from .derivations import HomDerivation, Multiarrangement, exponents, is_member
from .errors import InvariantViolation, PreconditionError
from .exactalg import PRIME, Field, _Frozen, is_prime, record
from .freeness import (
    FREE,
    NOT_FREE,
    PLANE_PRIME_CAP,
    CriterionEntry,
    _inapplicable,
    _line_text,
    decide_free,
)


def _require_prime(field: Field) -> int:
    if field.kind != PRIME:
        raise PreconditionError(
            f"finite-plane scan needs a prime field, not {field.kind}"
        )
    return field.p


# ------------------------------------------------------------ enumeration


@lru_cache(maxsize=None)
def _plane_tables(p: int):
    field = Field.prime(p)
    scalars = [field.from_int(k) for k in range(p)]
    points = tuple((x, y) for x in scalars for y in scalars)
    lines = tuple(
        Line(field.one, b, c) for b in scalars for c in scalars
    ) + tuple(Line(field.zero, field.one, c) for c in scalars)

    line_ids = {line: i for i, line in enumerate(lines)}
    if len(line_ids) != p * p + p:
        raise InvariantViolation(f"expected {p * p + p} distinct lines over F_{p}")
    residues = [(x.value, y.value) for x, y in points]
    on_line = []
    through = [[] for _ in points]
    for i, line in enumerate(lines):
        a, b, c = line.a.value, line.b.value, line.c.value
        on = tuple(k for k, (x, y) in enumerate(residues) if not (a * x + b * y + c) % p)
        if len(on) != p:
            raise InvariantViolation(f"line {line} carries {len(on)} points, not {p}")
        on_line.append(on)
        for k in on:
            through[k].append(i)
    if any(len(ids) != p + 1 for ids in through):
        raise InvariantViolation(f"some point is not on exactly {p + 1} lines")

    return field, points, lines, line_ids, tuple(on_line), tuple(map(tuple, through))


class PlaneEnumeration(_Frozen):
    """All points and normalized lines of the affine plane over F_p.

    Construction verifies the incidence counts once per prime: p^2 + p
    distinct lines, p points on each line, p + 1 lines through each
    point. The incidence is kept as indices: lines[i] carries the points
    on_line[i] (point (x, y) is index x*p + y), points[k] lies on the
    lines through[k], and line_ids[lines[i]] = i. Tables are cached per prime.
    """

    __slots__ = ("p", "field", "points", "lines", "line_ids", "on_line", "through")
    _args = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not is_prime(p):
            raise PreconditionError(
                f"{p} is not prime; prime powers are not supported"
            )
        if p > PLANE_PRIME_CAP:
            raise PreconditionError(f"prime {p} exceeds the enumeration cap {PLANE_PRIME_CAP}")
        for name, value in zip(self.__slots__, (p, *_plane_tables(p))):
            object.__setattr__(self, name, value)


# ------------------------------------------------------------ point counts


def _complement(A: Arrangement):
    """A's plane, its non-member lines and its points on no member, as indices."""
    plane = PlaneEnumeration(_require_prime(A.field))
    members = {plane.line_ids[line] for line in A.lines}
    covered = {k for i in members for k in plane.on_line[i]}
    externals = [i for i in range(len(plane.lines)) if i not in members]
    return plane, externals, [k for k in range(len(plane.points)) if k not in covered]


def complement_points(A: Arrangement) -> tuple:
    """Plane points lying on no member line, read off the incidence table."""
    plane, _, free = _complement(A)
    return tuple(plane.points[k] for k in free)


def complement_count(A: Arrangement) -> int:
    """Number of plane points avoiding every member, by enumeration.

    Always equals the characteristic polynomial evaluated at p; the
    equality is asserted, so a mismatch raises instead of returning.
    """
    count = len(complement_points(A))
    expected = A.char_poly().eval(A.field.p)
    if count != expected:
        raise InvariantViolation(
            f"complement has {count} points but chi({A.field.p}) = {expected}"
        )
    return count


# ------------------------------------------------------------ line spectra


@record
class LineSpectrum:
    """Incidence-count histograms over every line of the plane.

    Each histogram is a sorted tuple of (count value, number of lines)
    pairs; member lines and external lines are tallied separately.
    """

    members: tuple
    externals: tuple

    @property
    def combined(self) -> tuple:
        merged = Counter(dict(self.members))
        merged.update(dict(self.externals))
        return tuple(sorted(merged.items()))

    @property
    def member_values(self) -> tuple:
        return tuple(v for v, _ in self.members)

    @property
    def external_values(self) -> tuple:
        return tuple(v for v, _ in self.externals)


def line_spectrum(A: Arrangement) -> LineSpectrum:
    """Histogram of incidence counts over all p^2 + p lines of the plane.

    Members count their n_H. An external line meets the members exactly
    in its points outside the complement, so it counts p minus the
    complement points on it.
    """
    plane, external_ids, free = _complement(A)
    p = plane.p
    members = Counter(A.n_counts)
    touched = Counter(i for k in free for i in plane.through[k])
    externals = Counter(p - touched[i] for i in external_ids)
    if sum(members.values()) != len(A) or sum(externals.values()) != p * p + p - len(A):
        raise InvariantViolation("spectrum buckets do not add up to the whole plane")
    return LineSpectrum(tuple(sorted(members.items())), tuple(sorted(externals.items())))


# ------------------------------------------------------- freeness criteria


def order_root(A: Arrangement) -> CriterionEntry:
    """Freeness read off from chi at the field order.

    chi(A, p) = 0 forces freeness. Conversely, once |A| >= 2p - 1, a
    free arrangement must have chi(A, p) = 0, so a nonzero value proves
    non-freeness. Smaller arrangements with a nonzero value yield no
    conclusion. Either conclusion is asserted against the exact
    decision.
    """
    p = _require_prime(A.field)
    chi = A.char_poly()
    value = chi.eval(p)
    if value == 0:
        cert = decide_free(A)
        if not cert.is_free:
            raise InvariantViolation(
                f"chi({p}) = 0 must force freeness; exact decision says {cert.verdict}"
            )
        return CriterionEntry(
            "order_root",
            True,
            FREE,
            {"root": p, "exponents": cert.exponents},
        )
    if len(A) >= 2 * p - 1:
        cert = decide_free(A)
        if cert.is_free:
            raise InvariantViolation(
                f"free with |A| = {len(A)} >= {2 * p - 1} but chi({p}) = {value}"
            )
        return CriterionEntry(
            "order_root",
            True,
            NOT_FREE,
            {"chi_at_order": value, "size": len(A), "size_bound": 2 * p - 1},
        )
    return _inapplicable(
        "order_root",
        f"chi({p}) = {value} and |A| = {len(A)} < {2 * p - 1}",
    )


def order_minus_one_root(A: Arrangement) -> CriterionEntry:
    """Freeness read off from chi at the field order minus one.

    chi(A, p - 1) = 0 forces freeness. The proof produces a witness:
    with r = chi(A, p) complement points and 1 <= r <= p, some external
    line passes through exactly one complement point and meets the
    members in exactly p - 1 points. The witness is reconstructed and
    its existence asserted; r = 0 means p is also a root and the
    conclusion dispatches to order_root.
    """
    p = _require_prime(A.field)
    chi = A.char_poly()
    value = chi.eval(p - 1)
    if value != 0:
        return _inapplicable("order_minus_one_root", f"chi({p - 1}) = {value}")

    cert = decide_free(A)
    if not cert.is_free:
        raise InvariantViolation(
            f"chi({p - 1}) = 0 must force freeness; exact decision says {cert.verdict}"
        )
    r = chi.eval(p)
    if r == 0:
        inner = order_root(A)
        return CriterionEntry(
            "order_minus_one_root",
            True,
            inner.conclusion,
            {"root": p - 1, "complement": 0, "dispatched": inner.name},
        )
    if not 1 <= r <= p:
        # chi(p) counts points and the other root is nonnegative, so
        # r = p - d2 can never leave [0, p]
        raise InvariantViolation(f"chi({p}) = {r} outside [0, {p}] with root {p - 1}")

    plane, external_ids, free = _complement(A)
    if len(free) != r:
        raise InvariantViolation(f"complement has {len(free)} points but chi({p}) = {r}")
    touched = Counter(i for k in free for i in plane.through[k])
    i = next((i for i in external_ids if touched[i] == 1), None)
    if i is None:
        raise InvariantViolation(
            f"no external line through exactly one of {r} complement points"
        )
    # a line misses the complement in all but one point exactly when it
    # meets the union of members in p - 1 points
    witness = plane.lines[i]
    count = A.count_on_line(witness)
    if count != p - 1:
        raise InvariantViolation(
            f"external {witness} has one free point but meets {count} != {p - 1}"
        )
    return CriterionEntry(
        "order_minus_one_root",
        True,
        FREE,
        {
            "root": p - 1,
            "complement": r,
            "exponents": cert.exponents,
            "witness": _line_text(A, witness),
            "witness_count": p - 1,
        },
    )


# -------------------------------------------------- multiarrangement bounds


def frobenius_derivation(field: Field) -> HomDerivation:
    """x^p dx + y^p dy over F_p.

    Applied to a*x + b*y it gives a*x^p + b*y^p = (a*x + b*y)^p, so it
    lies in D(M) whenever every multiplicity is at most p.
    """
    p = _require_prime(field)
    zero, one = field.zero, field.one
    px = (one,) + (zero,) * p
    py = (zero,) * p + (one,)
    return HomDerivation(field, px, py)


@record
class FiniteBoundsReport:
    """Which field-order constraints on the exponents were exercised."""

    applicable: bool
    p: int
    size: int
    exponents: tuple | None
    checks: tuple
    reason: str | None = None


def finite_exponent_bounds(M: Multiarrangement) -> FiniteBoundsReport:
    """Assert the exponent constraints forced by the field order.

    Requires every multiplicity at most p (otherwise inapplicable).
    Then the exponents can never straddle p; |m| >= 2p forces d1 = p;
    |m| = 2p - 1 forces d2 = p; and x^p dx + y^p dy always belongs to
    D(M). Violations raise, success lists the checks that fired.
    """
    p = _require_prime(M.field)
    if any(m > p for m in M.mults):
        return FiniteBoundsReport(
            False, p, M.size, None, (), reason=f"a multiplicity exceeds {p}"
        )
    exp = exponents(M)
    d1, d2 = exp.pair
    checks = []
    if d1 < p < d2:
        raise InvariantViolation(
            f"exponents ({d1},{d2}) straddle the field order {p}"
        )
    checks.append("no_straddle")
    if M.size >= 2 * p:
        if d1 != p:
            raise InvariantViolation(
                f"|m| = {M.size} >= {2 * p} forces d1 = {p}, got {d1}"
            )
        checks.append("min_is_order")
    if M.size == 2 * p - 1:
        if d2 != p:
            raise InvariantViolation(
                f"|m| = {M.size} = {2 * p - 1} forces d2 = {p}, got {d2}"
            )
        checks.append("max_is_order")
    if not is_member(M, frobenius_derivation(M.field)):
        raise InvariantViolation(
            f"x^{p} dx + y^{p} dy must lie in D(M) when multiplicities stay <= {p}"
        )
    checks.append("frobenius_member")
    return FiniteBoundsReport(True, p, M.size, (d1, d2), tuple(checks))
