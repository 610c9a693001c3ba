"""Derivation modules of multiarrangements in the plane.

A central line is a normalized pair (a, b) standing for the form
a*x + b*y; a multiarrangement gives each central a positive integer
multiplicity. D(M) is the module of derivations theta = P dx + Q dy
with alpha^m dividing theta(alpha) = a*P + b*Q for every weighted
central. Over a field this module is free of rank 2, so it is pinned
down by two generator degrees d1 <= d2 with d1 + d2 = |m|, and its
degree-d piece has dimension max(0, d-d1+1) + max(0, d-d2+1).
exponents() reads d1 off one graded kernel probed at degree |m| // 2.
The Saito determinant both selects the second generator theta2 and
certifies the pair.

Saito's check computes on exactalg's integer form: it compares the
determinant of the witnesses' lifts with Q(M) built from the centrals'
lifts, each known up to a nonzero scalar, in Z, in Z[sqrt d] or modulo
p. is_member, divides_power and adic_coefficients stay on field
scalars, as an independent check.

Homogeneous polynomials of degree d are coefficient tuples of length
d + 1, entry j holding the coefficient of x^(d-j) y^j. The empty tuple
is the zero polynomial (degree undefined), which only shows up as a
quotient of constants.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

from .arrangement import (
    Arrangement,
    format_field_header,
    normalize_direction,
    parse_body,
    read_input,
    scalar_at,
)
from .errors import InvariantViolation, ParseError, PreconditionError
from .exactalg import (
    Field,
    _Frozen,
    _kernel_rows,
    _lift,
    _lifted_mul,
    _shown,
    _shown_int,
    record,
)

AT_INFINITY = "infinity"

# Entries kept by the exponents and exact-decision caches. A battery of
# 4000 small run_criteria calls meets about 3300 distinct restrictions.
CACHE_SIZE = 4096

# Largest total multiplicity |m| of a .marr file; exponents' dense matrices grow as |m|^2.
MULTIPLICITY_CAP = 1024


# -------------------------------------------------------- polynomial helpers


def poly_mul(field: Field, p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    zero = field.zero
    out = [zero] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if not pi:
            continue
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return tuple(out)


def linear_power(field: Field, central: tuple, e: int) -> tuple:
    out = (field.one,)
    base = (field.coerce(central[0]), field.coerce(central[1]))
    for _ in range(e):
        out = poly_mul(field, out, base)
    return out


def divmod_linear(field: Field, coeffs: tuple, central: tuple):
    """Split P = alpha*Q + gamma*beta^d for a normalized central alpha.

    beta is the first of {x, y} independent from alpha, so the remainder
    coefficient gamma is the beta^d coordinate of P in the (alpha, beta)
    monomial basis. Returns (Q, gamma) with Q one degree lower.
    """
    a, b = central
    d = len(coeffs) - 1
    if not a:
        # alpha = y, beta = x
        return coeffs[1:], coeffs[0]
    if not b:
        # alpha = x, beta = y
        return coeffs[:-1], coeffs[-1]
    # alpha = x + b*y, beta = x: evaluate at y = -x/b, then divide out
    t = -(field.one / b)
    gamma = coeffs[d]
    for j in range(d - 1, -1, -1):
        gamma = gamma * t + coeffs[j]
    if d == 0:
        return (), gamma
    q = [coeffs[0] - gamma]
    for j in range(1, d):
        q.append(coeffs[j] - b * q[-1])
    return tuple(q), gamma


def adic_coefficients(field: Field, coeffs: tuple, central: tuple, steps: int) -> list:
    """First `steps` coordinates of P along alpha^0, alpha^1, ... (beta-padded)."""
    out = []
    rest = coeffs
    for _ in range(steps):
        rest, gamma = divmod_linear(field, rest, central)
        out.append(gamma)
    return out


def divides_power(field: Field, central: tuple, m: int, coeffs: tuple) -> bool:
    """Whether alpha^m divides the homogeneous polynomial P."""
    steps = min(m, len(coeffs))
    zero = field.zero
    return all(g == zero for g in adic_coefficients(field, coeffs, central, steps))


# ------------------------------------------------------------- domain types


@record
class HomDerivation:
    """theta = P dx + Q dy with P, Q homogeneous of one shared degree."""

    field: Field
    px: tuple
    py: tuple

    def __post_init__(self):
        if len(self.px) != len(self.py) or not self.px:
            raise PreconditionError("components must share one degree")
        object.__setattr__(self, "px", tuple(self.field.coerce(c) for c in self.px))
        object.__setattr__(self, "py", tuple(self.field.coerce(c) for c in self.py))
        if not (any(self.px) or any(self.py)):
            raise PreconditionError("the zero derivation is not allowed")

    @property
    def degree(self) -> int:
        return len(self.px) - 1

    def applied_to(self, central: tuple) -> tuple:
        """theta(a*x + b*y) = a*P + b*Q as a coefficient tuple."""
        a, b = self.field.coerce(central[0]), self.field.coerce(central[1])
        return tuple(a * p + b * q for p, q in zip(self.px, self.py))

    def __str__(self):
        return f"({format_poly(self.field, self.px)}) dx + ({format_poly(self.field, self.py)}) dy"


def format_poly(field: Field, coeffs: tuple) -> str:
    d = len(coeffs) - 1
    parts = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        xexp, yexp = d - j, j
        mono = "".join(
            (
                ("x" if xexp == 1 else f"x^{xexp}") if xexp else "",
                ("y" if yexp == 1 else f"y^{yexp}") if yexp else "",
            )
        )
        txt = field.format_scalar(c)
        if mono:
            if txt == "1":
                txt = mono
            elif txt == "-1":
                txt = f"-{mono}"
            elif "+" in txt[1:] or "-" in txt[1:] or "/" in txt or "r" in txt:
                txt = f"({txt}){mono}"
            else:
                txt = f"{txt}{mono}"
        parts.append(txt)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class Multiarrangement(_Frozen):
    """Distinct central lines with positive multiplicities, in input order.

    Equality and hashing use set semantics so that logically equal
    multiarrangements built in different orders share cache entries; the
    item set and its hash are computed once, when it is built.
    """

    _args = ("field", "centrals", "mults")
    __slots__ = _args + ("_item_set", "_hash")

    def __init__(self, field: Field, centrals, mults):
        centrals = tuple(
            normalize_direction(field, a, b) for a, b in centrals
        )
        mults = tuple(mults)
        if any(type(m) is bool or not isinstance(m, int) for m in mults):
            raise PreconditionError("multiplicities must be ints")
        if len(centrals) != len(mults):
            raise PreconditionError("one multiplicity per central line")
        if len(set(centrals)) != len(centrals):
            raise PreconditionError("central lines must be distinct")
        if any(m < 1 for m in mults):
            raise PreconditionError("multiplicities must be >= 1")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "centrals", centrals)
        object.__setattr__(self, "mults", mults)
        item_set = frozenset(zip(centrals, mults))
        object.__setattr__(self, "_item_set", item_set)
        object.__setattr__(self, "_hash", hash((field, item_set)))

    @property
    def size(self) -> int:
        """|m|, the sum of all multiplicities."""
        return sum(self.mults)

    @property
    def h(self) -> int:
        """Number of distinct central lines."""
        return len(self.centrals)

    def items(self) -> tuple:
        return tuple(zip(self.centrals, self.mults))

    def is_balanced(self) -> bool:
        """No single multiplicity exceeds half of |m|."""
        if not self.mults:
            return True
        return 2 * max(self.mults) <= self.size

    def __eq__(self, other):
        if not isinstance(other, Multiarrangement):
            return NotImplemented
        return self.field == other.field and self._item_set == other._item_set

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Multiarrangement({self.field}, h={self.h}, |m|={self.size})"


def _q_lifted(M: Multiarrangement) -> tuple:
    """Q(M), the product of alpha^m over all centrals, in integer form.

    Each central enters as its lift, one linear factor at a time, as in
    linear_power.
    """
    one = M.field.one
    out = _lift((one,), one)
    for central, m in M.items():
        base = _lift(central, one)
        for _ in range(m):
            out = _lifted_mul(out, base, one)
    return out


# --------------------------------------------------------- Ziegler restriction


def _counted(field: Field, centrals) -> Multiarrangement:
    """A Ziegler restriction from the restricted central of each line: one
    central per distinct entry of `centrals`, weighted by how often it
    occurs, in order of first occurrence. At infinity a line's restricted
    central is its direction."""
    counts: dict[tuple, int] = {}
    for central in centrals:
        counts[central] = counts.get(central, 0) + 1
    return Multiarrangement(field, counts, counts.values())


def ziegler_restriction(A: Arrangement, target=AT_INFINITY) -> Multiarrangement:
    """Ziegler restriction of the cone of A onto one of its planes.

    target = AT_INFINITY restricts onto z = 0: the centrals are the
    direction classes of A and each multiplicity is the size of the
    parallel class. An integer or Line target restricts onto the cone
    of that member instead. Either way the multiplicities sum to |A|.
    """
    field = A.field
    if target == AT_INFINITY:
        M = _counted(field, [line.direction for line in A.lines])
    else:
        i = A.member_index(target)
        h_line = A.lines[i]
        u, v = _kernel_rows([[h_line.a, h_line.b, h_line.c]], 3, field.one)

        def restrict(triple):
            s = triple[0] * u[0] + triple[1] * u[1] + triple[2] * u[2]
            t = triple[0] * v[0] + triple[1] * v[1] + triple[2] * v[2]
            if not s and not t:
                raise InvariantViolation("a distinct plane restricted to zero")
            return normalize_direction(field, s, t)

        others = [(ln.a, ln.b, ln.c) for j, ln in enumerate(A.lines) if j != i]
        M = _counted(field, map(restrict, others + [(field.zero, field.zero, field.one)]))
    if M.size != len(A):
        raise InvariantViolation("restriction multiplicities must sum to |A|")
    if target != AT_INFINITY and M.h != A.n_counts[i] + 1:
        raise InvariantViolation("member restriction must have n_H + 1 distinct centrals")
    return M


# ------------------------------------------------------------- graded pieces


def _constraint_rows(M: Multiarrangement, d: int) -> list:
    """Stacked linear conditions on the 2(d+1) coefficients of (P, Q).

    Central alpha with multiplicity m contributes one row per s < m: the
    alpha^s beta^(d-s) coordinate of theta(alpha) = a*P + b*Q, with beta
    as in divmod_linear. The coordinate of the monomial x^(d-j) y^j is
    [j = s] for alpha = y, [j = d-s] for alpha = x, and
    C(j, s) * (-1)^(j-s) * b^(-j) for alpha = x + b*y, since there
    x = beta and y = (alpha - beta)/b.
    """
    field = M.field
    rows = []
    width = d + 1
    zero, one = field.zero, field.one
    for (a, b), mult in M.items():
        if a and b:
            # (-1)^(j-s) b^(-j) = (-1)^s (-1/b)^j
            neg_inv = -(one / b)
            inv_powers = [one]
            for _ in range(d):
                inv_powers.append(inv_powers[-1] * neg_inv)
        for s in range(min(mult, width)):
            if a and b:
                sign = -1 if s & 1 else 1
                coef = [zero] * s + [
                    sign * comb(j, s) * inv_powers[j] for j in range(s, width)
                ]
            else:
                coef = [zero] * width
                coef[d - s if a else s] = one
            rows.append([a * c for c in coef] + [b * c for c in coef])
    return rows


def graded_kernel(M: Multiarrangement, d: int) -> tuple:
    """Deterministic basis of the degree-d piece, as HomDerivations."""
    width = d + 1
    basis = _kernel_rows(_constraint_rows(M, d), 2 * width, M.field.one)
    return tuple(
        HomDerivation(M.field, vec[:width], vec[width:]) for vec in basis
    )


# ----------------------------------------------------------------- exponents


@record
class Exponents:
    """Generator degrees d1 <= d2 of D(M) with certified witnesses."""

    d1: int
    d2: int
    theta1: HomDerivation
    theta2: HomDerivation

    @property
    def pair(self) -> tuple[int, int]:
        return (self.d1, self.d2)


@lru_cache(maxsize=CACHE_SIZE)
def exponents(M: Multiarrangement) -> Exponents:
    """Exponents of D(M) from one graded kernel probe, Saito-verified.

    The probe is the kernel at d = |m| // 2. Since d1 <= d <= d2, its
    dimension is d - d1 + 1, plus one when d2 = d as well. So a
    two-dimensional probe at even |m| means either d1 = d2 = d or
    d1 = d - 1; the Saito determinant of the probe basis tells them
    apart, being nonzero only in the balanced case, whose witnesses are
    then that basis. When d1 = d - 1 the probe is spanned by x*theta1
    and y*theta1, whose determinant is identically zero, so
    saito_verify rejects it before building Q(M): each call builds Q(M)
    once, for the pair it returns. Otherwise d1 = d - dim + 1, theta1
    spans the one-dimensional kernel at d1, d2 = |m| - d1 and theta2 is
    the earliest reduced-echelon kernel vector at degree d2 that passes
    saito_verify with theta1: its determinant with theta1 is zero
    exactly on S*theta1, rejected before Q(M) is built, and otherwise a
    nonzero constant times Q(M). So Saito's check selects theta2 too.
    Saito's check runs on integer lifts (see the module docstring).
    """

    def violation(message: str) -> InvariantViolation:
        return InvariantViolation(
            f"{message}; reproduce with `linarr exponents` on:\n"
            + format_multiarrangement(M)
        )

    total = M.size
    d = total // 2
    probe = graded_kernel(M, d)
    if (
        2 * d == total
        and len(probe) == 2
        and saito_verify(probe[0], probe[1], M)
    ):
        return Exponents(d, d, probe[0], probe[1])
    if not 0 < len(probe) <= d + 1:
        raise violation(f"kernel dimension {len(probe)} at degree {d} = |m| // 2")
    d1 = d - len(probe) + 1
    basis1 = probe if d1 == d else graded_kernel(M, d1)
    if len(basis1) != 1:
        raise violation(
            f"kernel dimension {len(basis1)} at degree {d1} with |m| = {total}"
        )
    theta1 = basis1[0]
    d2 = total - d1
    theta2 = next(
        (c for c in graded_kernel(M, d2) if saito_verify(theta1, c, M)), None
    )
    if theta2 is None:
        raise violation("no degree-d2 derivation passes Saito's check with theta1")
    return Exponents(d1, d2, theta1, theta2)


def saito_verify(theta1: HomDerivation, theta2: HomDerivation, M: Multiarrangement) -> bool:
    """Whether det[[P1,Q1],[P2,Q2]] is a nonzero scalar times Q(M).

    Both sides are in integer form, so each is known up to a nonzero
    scalar: the determinant of the witnesses' lifts, and Q(M) from the
    centrals' lifts. They agree up to a nonzero scalar exactly when the
    determinant is nonzero and det[i] * qm[lead] == det[lead] * qm[i]
    for every i, lead the first nonzero coefficient of Q(M); that is an
    identity in Z, in Z[sqrt d] or modulo p. Q(M) is built only when
    the determinant is not identically zero.
    """
    if theta1.field != M.field or theta2.field != M.field:
        raise PreconditionError("field mismatch between derivation and centrals")
    if theta1.degree + theta2.degree != M.size:
        raise PreconditionError(
            f"witness degrees {theta1.degree}+{theta2.degree} != |m| = {M.size}"
        )
    one = M.field.one
    (p1, q1), (p2, q2) = (_lifted_halves(theta, one) for theta in (theta1, theta2))
    # both products are reduced over F_p, so a difference is 0 only
    # where they agree
    plus, minus = _lifted_mul(p1, q2, one), _lifted_mul(p2, q1, one)
    det = tuple([a - b for a, b in zip(x, y)] for x, y in zip(plus, minus))
    if not any(map(any, det)):
        return False
    qm = _q_lifted(M)
    lead = next(i for i, cell in enumerate(zip(*qm)) if any(cell))
    det_lead = tuple([part[lead]] for part in det)
    qm_lead = tuple([part[lead]] for part in qm)
    # det * qm[lead] == det[lead] * qm, each side a polynomial in integer form
    return _lifted_mul(det, qm_lead, one) == _lifted_mul(qm, det_lead, one)


def _lifted_halves(theta: HomDerivation, one) -> tuple:
    """(P, Q) of theta in integer form, lifted together with one scale."""
    width = theta.degree + 1
    parts = _lift(theta.px + theta.py, one)
    return tuple(x[:width] for x in parts), tuple(x[width:] for x in parts)


def is_member(M: Multiarrangement, theta: HomDerivation) -> bool:
    """Direct divisibility test: alpha^m | theta(alpha) for every central."""
    if theta.field != M.field:
        raise PreconditionError("field mismatch between derivation and centrals")
    return all(
        divides_power(M.field, central, mult, theta.applied_to(central))
        for central, mult in M.items()
    )


def euler_witness(M: Multiarrangement) -> HomDerivation:
    """The derivation (prod alpha^(m-1)) * theta_E, always in D(M).

    Its degree is |m| - h + 1; when |m| <= 2h - 2 that degree is d1.
    """
    field = M.field
    f = (field.one,)
    for central, mult in M.items():
        f = poly_mul(field, f, linear_power(field, central, mult - 1))
    theta = HomDerivation(field, f + (field.zero,), (field.zero,) + f)
    if not is_member(M, theta):
        raise InvariantViolation("Euler witness failed its divisibility check")
    return theta


# ------------------------------------------------------------------- file IO

_INT = re.compile(r"[0-9]+\Z")


def _mline_row(field: Field, args, lineno: int, path):
    (atok, acol), (btok, bcol), (mtok, mcol) = args
    a = scalar_at(field, atok, lineno, acol, path)
    b = scalar_at(field, btok, lineno, bcol, path)
    try:
        mult = int(mtok) if _INT.match(mtok) else 0
    except ValueError:  # past the int-string digit limit
        message = f"bad multiplicity {_shown(mtok)}: too many digits"
        raise ParseError(message, lineno, mcol, path) from None
    if mult < 1:
        message = f"multiplicity must be a positive integer, got {_shown(mtok)}"
        raise ParseError(message, lineno, mcol, path)
    central = normalize_direction(field, a, b)
    return central, (central, mult)


def parse_multiarrangement(text: str, path=None) -> Multiarrangement:
    """Parse the .marr format: a field header, then 'mline <a> <b> <mult>' rows."""
    duplicate = "duplicate central (same as mline on input line {})"
    field, items = parse_body(text, path, "mline", duplicate, _mline_row)
    size = sum(m for _, m in items)
    if size > MULTIPLICITY_CAP:
        message = f"total multiplicity {_shown_int(size)} is above {MULTIPLICITY_CAP}"
        raise ParseError(message, path=path)
    return Multiarrangement(field, [c for c, _ in items], [m for _, m in items])


def load_multiarrangement(path) -> Multiarrangement:
    return parse_multiarrangement(read_input(path), path=str(path))


def format_multiarrangement(M: Multiarrangement) -> str:
    out = [format_field_header(M.field)]
    fmt = M.field.format_scalar
    for (a, b), m in M.items():
        out.append(f"mline {fmt(a)} {fmt(b)} {m}")
    return "\n".join(out) + "\n"
