"""Seeded random generators and a reference lattice shared by the test modules.

All generators take an explicit random.Random so every suite is
reproducible; none of them touch global RNG state.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from linarr.arrangement import (
    Arrangement,
    IncidencePoint,
    Line,
    line_through,
    normalize_direction,
    normalize_line,
)
from linarr.derivations import (
    HomDerivation,
    Multiarrangement,
    graded_kernel,
    linear_power,
    poly_mul,
)
from linarr.errors import PreconditionError
from linarr.exactalg import PRIME, Field, Quad, _kernel_rows, _rref_rows
from linarr.freeness import PLANE_PRIME_CAP, _fresh_direction

Q = Field.rationals()

_Q_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (3, 1)]
_SMALL = (-2, -1, 0, 1, 2)


def field_directions(field: Field) -> list[tuple]:
    if field.characteristic:
        p = field.p
        dirs = [(field.one, field.from_int(t)) for t in range(p)]
        dirs.append((field.zero, field.one))
        return dirs
    return [normalize_direction(field, field.from_int(a), field.from_int(b)) for a, b in _Q_DIRECTIONS]


def random_arrangement(
    rng: random.Random,
    field: Field,
    max_lines: int,
    min_lines: int = 0,
) -> Arrangement:
    """Random arrangement biased toward shared points and shared directions."""
    target = rng.randint(min_lines, max_lines)
    dirs = field_directions(field)
    anchors = [
        (field.from_int(rng.choice(_SMALL)), field.from_int(rng.choice(_SMALL)))
        for _ in range(rng.randint(1, 3))
    ]
    lines: dict[Line, None] = {}
    attempts = 0
    while len(lines) < target and attempts < 20 * (target + 1):
        attempts += 1
        roll = rng.random()
        if roll < 0.45:
            a, b = rng.choice(dirs)
            x, y = rng.choice(anchors)
            line = normalize_line(field, a, b, -(a * x + b * y))
        elif roll < 0.8:
            a, b = rng.choice(dirs)
            line = normalize_line(field, a, b, field.from_int(rng.choice(_SMALL)))
        else:
            a = field.from_int(rng.choice(_SMALL))
            b = field.from_int(rng.choice(_SMALL))
            if not a and not b:
                continue
            line = normalize_line(field, a, b, field.from_int(rng.choice(_SMALL)))
        lines.setdefault(line, None)
    return Arrangement(field, lines)


def irrational(A: Arrangement) -> Arrangement:
    """A over Q(sqrt d) in the coordinates (x', y') with x = x' + t*y',
    y = t*x' + y' for t = 1 + sqrt d, so that its coefficients and points
    are irrational; incidences and parallel classes stay. Other fields
    keep A as is."""
    field = A.field
    if field.kind != "quadratic":
        return A
    t = Quad(1, 1, field.d)
    moved = [normalize_line(field, L.a + L.b * t, L.a * t + L.b, L.c) for L in A.lines]
    return Arrangement(field, moved)


@lru_cache(maxsize=None)
def multiarrangement_directions(field: Field) -> list[tuple]:
    """field_directions, and over Q(sqrt d) also their images under the map
    of `irrational`, most of which are irrational."""
    dirs = field_directions(field)
    if field.kind == "quadratic":
        t = Quad(1, 1, field.d)
        moved = [normalize_direction(field, a + b * t, a * t + b) for a, b in dirs]
        dirs = list(dict.fromkeys(dirs + moved))
    return dirs


def random_multiarrangement(
    rng: random.Random,
    field: Field,
    max_h: int = 5,
    max_mult: int = 4,
    min_h: int = 0,
) -> Multiarrangement:
    """Random centrals and multiplicities from multiarrangement_directions."""
    dirs = multiarrangement_directions(field)
    h = rng.randint(min_h, min(max_h, len(dirs)))
    chosen = rng.sample(dirs, h)
    mults = [rng.randint(1, max_mult) for _ in chosen]
    return Multiarrangement(field, chosen, mults)


def random_subset(rng: random.Random, n: int, max_out: int | None = None) -> list[int]:
    """Random subset of range(n), optionally keeping the complement small."""
    if n == 0:
        return []
    if max_out is not None:
        out = rng.randint(0, min(max_out, n))
        drop = set(rng.sample(range(n), out))
        return [i for i in range(n) if i not in drop]
    k = rng.randint(0, n)
    return sorted(rng.sample(range(n), k))


# ------------------------------------------- reference lattice (field scalars)
#
# The straightforward lattice computation in field arithmetic: intersect
# every pair of lines with two divisions, dedupe the points by value, and
# recount every remaining line at each greedy step. Arrangement computes
# the same things from integer point keys; the property tests compare the
# two.


def reference_intersect(l1: Line, l2: Line):
    """Intersection point of two distinct lines, or None when parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if not det:
        return None
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return (x, y)


def reference_points(lines) -> tuple:
    """IncidencePoints in first-seen order of the pairwise (i, j) scan."""
    by_coords: dict[tuple, set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = reference_intersect(lines[i], lines[j])
            if pt is not None:
                by_coords.setdefault(pt, set()).update((i, j))
    return tuple(IncidencePoint(x, y, frozenset(ix)) for (x, y), ix in by_coords.items())


def reference_count_on_line(lines, line: Line) -> int:
    return len(
        {
            pt
            for other in lines
            if other != line
            for pt in [reference_intersect(line, other)]
            if pt is not None
        }
    )


def reference_cmp_root(root, q) -> int:
    """Sign of root - q for an int root or a real Surd, by cases on u and v."""
    if isinstance(root, int):
        d = Fraction(root) - Fraction(q)
        return (d > 0) - (d < 0)
    c = root.u - Fraction(q)
    v = root.v
    if v == 0:
        return (c > 0) - (c < 0)
    if c == 0:
        return 1 if v > 0 else -1
    if c > 0 and v > 0:
        return 1
    if c < 0 and v < 0:
        return -1
    # opposite signs: compare c*c against v*v*rad, sign of the larger wins
    lhs, rhs = c * c, v * v * root.rad
    assert lhs != rhs, "sqrt(rad) is irrational for squarefree rad > 1"
    return 1 if (c > 0) == (lhs > rhs) else -1


def reference_order_increasing(points, n: int, base) -> tuple:
    """Greedy order from `base`: recount every remaining line at each step."""
    current = set(base)
    remaining = [i for i in range(n) if i not in current]
    order: list[int] = []
    counts: list[int] = []
    while remaining:
        best = best_count = None
        for i in remaining:
            c = sum(1 for pt in points if i in pt.incident and pt.incident & current)
            if best_count is None or c < best_count:
                best, best_count = i, c
        order.append(best)
        counts.append(best_count)
        current.add(best)
        remaining.remove(best)
    return tuple(order), tuple(counts)


# ------------------------------------------------- reference RREF (field scalars)
#
# Gauss-Jordan elimination carried out in field arithmetic, one scalar
# per cell update. exactalg._rref_rows computes the same reduced form on
# integer lifts; the RREF is unique, so the two must agree cell for cell.


def reference_rref(rows: list[list], ncols: int, one) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        head = rows[r][c]
        if head != one:
            rows[r] = [x / head for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reference_theta2(M: Multiarrangement, theta1: HomDerivation, d2: int) -> HomDerivation:
    """The earliest graded_kernel(M, d2) vector outside the span of S*theta1.

    The span is eliminated with reference_rref, and each kernel vector is
    reduced against it cell by cell; exponents selects the same vector
    with Saito's determinant instead.
    """
    field = M.field
    zero = field.zero
    # x^(k-i) y^i * theta1 shifts both coefficient tuples i places
    k = d2 - theta1.degree
    span_rows = [
        [*pad, *theta1.px, *rest, *pad, *theta1.py, *rest]
        for pad, rest in (([zero] * i, [zero] * (k - i)) for i in range(k + 1))
    ]
    echelon, pivots = reference_rref(span_rows, 2 * (d2 + 1), field.one)
    for candidate in graded_kernel(M, d2):
        v = [*candidate.px, *candidate.py]
        for row, c in zip(echelon, pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            return candidate
    raise AssertionError("no degree-d2 kernel vector outside S*theta1")


def kernel_and_rank(field: Field, rows, ncols: int) -> tuple[list[list], int]:
    """_kernel_rows and the rank of rows (ints or scalars) coerced into field."""
    rows = [[field.coerce(x) for x in row] for row in rows]
    return _kernel_rows(rows, ncols, field.one), len(_rref_rows(rows, ncols, field.one)[1])


# ---------------------------------- reference Saito check (field scalars)
#
# Saito's check in field arithmetic, one scalar per coefficient.
# derivations runs it on integer lifts, and its saito_verify must agree
# with reference_saito_verify on every input.


def reference_q_poly(M: Multiarrangement) -> tuple:
    """The defining polynomial Q(M) = product of alpha^m over all centrals."""
    out = (M.field.one,)
    for central, m in M.items():
        out = poly_mul(M.field, out, linear_power(M.field, central, m))
    return out


def reference_saito_verify(
    theta1: HomDerivation, theta2: HomDerivation, M: Multiarrangement
) -> bool:
    """Whether det[[P1,Q1],[P2,Q2]] is a nonzero scalar times Q(M)."""
    if theta1.field != M.field or theta2.field != M.field:
        raise PreconditionError("field mismatch between derivation and centrals")
    if theta1.degree + theta2.degree != M.size:
        raise PreconditionError("witness degrees do not sum to |m|")
    field = M.field
    p1q2 = poly_mul(field, theta1.px, theta2.py)
    p2q1 = poly_mul(field, theta2.px, theta1.py)
    det = tuple(a - b for a, b in zip(p1q2, p2q1))
    if not any(det):
        return False
    qm = reference_q_poly(M)
    lead = next(i for i, c in enumerate(qm) if c)
    c = det[lead] / qm[lead]
    return det == tuple(c * x for x in qm)


# ------------------------------------------- reference plane scans (field scalars)
#
# The F_p plane enumerated afresh in field arithmetic: every plane line
# counted by count_on_line (the lattice's intersection keys), and every
# point tested against every member. fqscan reads the same quantities off
# the incidence table of _plane_tables; the tests compare the two.


def reference_plane_scan(A: Arrangement) -> tuple:
    """(member histogram, external histogram, complement, witness).

    Histograms are sorted (count, number of lines) pairs as in
    LineSpectrum; the witness is the first non-member line, in plane
    order, through exactly one complement point, or None.
    """
    field = A.field
    scalars = [field.from_int(k) for k in range(field.p)]
    points = [(x, y) for x in scalars for y in scalars]
    lines = [Line(field.one, b, c) for b in scalars for c in scalars]
    lines += [Line(field.zero, field.one, c) for c in scalars]
    members: Counter = Counter()
    externals: Counter = Counter()
    for line in lines:
        (members if line in A else externals)[A.count_on_line(line)] += 1
    complement = tuple(
        (x, y) for x, y in points if all(m.a * x + m.b * y + m.c for m in A.lines)
    )
    witness = next(
        (
            line
            for line in lines
            if line not in A
            and sum(1 for x, y in complement if not line.a * x + line.b * y + line.c) == 1
        ),
        None,
    )
    return tuple(sorted(members.items())), tuple(sorted(externals.items())), complement, witness


# ------------------------------------ reference external candidates (field scalars)
#
# The candidate family built line by line in field arithmetic: line_through
# and normalize_line for every candidate, membership and duplicates tested
# on Line values. freeness.external_candidates builds the same family on
# integer line keys; the tests compare the two tuple for tuple.


def external_candidates_reference(A: Arrangement) -> tuple:
    field = A.field
    if field.kind == PRIME and field.p <= PLANE_PRIME_CAP:
        from linarr.fqscan import PlaneEnumeration

        plane = PlaneEnumeration(field.p)
        return tuple(L for L in plane.lines if L not in A)

    found: dict[Line, None] = {}

    def offer(line: Line):
        if line not in A and line not in found:
            found[line] = None

    pts = A.points
    for p, q in combinations(pts, 2):
        offer(line_through(field, (p.x, p.y), (q.x, q.y)))

    directions = [d for d, _ in A.parallel_classes]
    fresh = _fresh_direction(A)
    per_point = directions + ([fresh] if fresh is not None else [])
    for p in pts:
        for a, b in per_point:
            offer(normalize_line(field, a, b, -(a * p.x + b * p.y)))

    for a, b in per_point:
        hit = {-(a * p.x + b * p.y) for p in pts}
        k = 0
        limit = field.p if field.kind == PRIME else len(hit) + 1
        while k < limit:
            c = field.from_int(k)
            if c not in hit:
                offer(normalize_line(field, a, b, c))
                break
            k += 1

    return tuple(found)
