"""Exact freeness decisions and the combinatorial criteria layered on them.

The ground truth is decide_free: the second Betti number b2 of an affine
line arrangement always dominates the product d1*d2 of its Ziegler
restriction exponents, with equality precisely when the arrangement is
free. Every other routine in this module is a criterion that reads only
combinatorial data (characteristic polynomial roots, incidence counts,
distinguished subarrangements) and, when its hypotheses hold, predicts
the same verdict. Criteria never overrule the exact decision; any
disagreement raises InvariantViolation, because it would mean a bug in
one of the two computations rather than a mathematical possibility.

run_criteria walks the candidate subarrangements B once, reading A's
integer roots and each chi(B)'s roots once for all four subarrangement
criteria; without integer roots it walks none, as every B would be
inapplicable.

root_incidence, run_criteria and verify_root_window take `externals`,
the external lines to count. None means external_candidates(A), built
only when the check reaches them; a member among supplied externals
raises MembershipError before anything is counted. external_candidates
dedupes its lines on integer line keys (see exactalg), with membership
read off the members' own keys, and builds one Line per candidate.

The exact decisions of A minus H (addition) and of a candidate B are
read off A's own data, and no Arrangement is built for them: chi(B)
comes from A's lattice (sub_char_poly), and B's restriction at infinity
from B's members' directions. Both paths and decide_free share one
decision core, _certificate.

Criterion entries carry machine-readable evidence dictionaries whose
keys are stable snake_case names; members of the arrangement are
referenced by index, external lines by their coefficient text.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, count

from .arrangement import (
    COMPLEX_CONJUGATE,
    TWO_INTEGER,
    Arrangement,
    Line,
)
from .derivations import (
    AT_INFINITY,
    CACHE_SIZE,
    Multiarrangement,
    _counted,
    exponents,
    ziegler_restriction,
)
from .errors import InvariantViolation, MembershipError, PreconditionError
from .exactalg import _JOIN, PRIME, _key, _key_scalars, record

FREE = "free"
NOT_FREE = "not-free"
NO_CONCLUSION = "no-conclusion"

# Exhaustive external-line enumeration is only attempted for small primes.
PLANE_PRIME_CAP = 13

# Intermediate subarrangements are searched exhaustively when the gap
# between A and B is at most this many lines (2^12 subsets).
EXHAUSTIVE_GAP_CAP = 12


@record
class FreenessCertificate:
    """Outcome of the exact freeness decision.

    b2 is compared against d1*d2 for the Ziegler restriction onto
    `target` (the at-infinity plane by default, or a member line).
    exponents is the pair (d1, d2) when free and None otherwise.
    """

    verdict: str
    exponents: tuple | None
    b2: int
    d1: int
    d2: int
    target: object

    @property
    def is_free(self) -> bool:
        return self.verdict == FREE


@record
class CriterionEntry:
    """One criterion's verdict: name, applicability, conclusion, evidence."""

    name: str
    applicable: bool
    conclusion: str
    evidence: dict

    def as_record(self) -> dict:
        return {
            "criterion": self.name,
            "applicable": self.applicable,
            "conclusion": self.conclusion,
            "evidence": self.evidence,
        }


@record
class CriterionReport:
    certificate: FreenessCertificate
    entries: tuple

    def entry(self, name: str) -> CriterionEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


@record
class RootWindowReport:
    """Observed incidence counts after the root-window assertions passed."""

    member_values: tuple
    external_values: tuple
    externals_checked: int
    free: bool


# ------------------------------------------------------------ exact decision


def _certificate(M: Multiarrangement, b2: int, target) -> FreenessCertificate:
    """The decision core: b2 of an arrangement against the exponents of
    its Ziegler restriction M, which has one unit of multiplicity per
    line."""
    e = exponents(M)
    if e.d1 + e.d2 != M.size:
        raise InvariantViolation("restriction exponents must sum to |A|")
    if b2 < e.d1 * e.d2:
        raise InvariantViolation(
            f"b2 = {b2} below exponent product {e.d1 * e.d2}; "
            "the lower bound b2 >= d1*d2 is unconditional"
        )
    if b2 == e.d1 * e.d2:
        return FreenessCertificate(FREE, (e.d1, e.d2), b2, e.d1, e.d2, target)
    return FreenessCertificate(NOT_FREE, None, b2, e.d1, e.d2, target)


@lru_cache(maxsize=CACHE_SIZE)
def _decide_free_cached(A: Arrangement, target) -> FreenessCertificate:
    return _certificate(ziegler_restriction(A, target), A.char_poly().b2, target)


def _decide_sub(A: Arrangement, idx, b2: int) -> FreenessCertificate:
    """decide_free(A.subarrangement(idx)) from A's own data, given b2 of
    chi(B) for B = A[idx]."""
    M = _counted(A.field, [A.lines[i].direction for i in idx])
    return _certificate(M, b2, AT_INFINITY)


def decide_free(A: Arrangement, target=AT_INFINITY) -> FreenessCertificate:
    """Decide freeness exactly: free iff b2 equals the product of the
    Ziegler restriction exponents. target selects the restriction plane
    (AT_INFINITY, a member Line, or a member index)."""
    if target != AT_INFINITY:
        target = A.lines[A.member_index(target)]
    return _decide_free_cached(A, target)


# ------------------------------------------------------- evidence helpers


def _line_text(A: Arrangement, line: Line) -> str:
    fmt = A.field.format_scalar
    return f"{fmt(line.a)} {fmt(line.b)} {fmt(line.c)}"


def _integer_roots(A: Arrangement):
    """(low, high) integer roots of chi(A, t), or None."""
    roots = A.char_poly().roots()
    if roots.classification != TWO_INTEGER:
        return None
    return roots.low, roots.high


def _external_lines(A: Arrangement, externals) -> tuple:
    """Supplied externals as a tuple, checked as root_incidence says."""
    externals = tuple(externals)
    for L in externals:
        if L in A:
            raise MembershipError(f"{L} is a member, not an external line")
    return externals


def _member_witness(A: Arrangement, values) -> int | None:
    for i, n_h in enumerate(A.n_counts):
        if n_h in values:
            return i
    return None


def _inapplicable(name: str, reason: str, **extra) -> CriterionEntry:
    evidence = {"reason": reason}
    evidence.update(extra)
    return CriterionEntry(name, False, NO_CONCLUSION, evidence)


def _count_verdict(A: Arrangement, name: str, n: int, nr: int, evidence, **tail):
    """Verdict of a biconditional criterion: A is free iff some member
    count lies in {n, n+r}. The witness index (or None) is recorded as
    "member" after `evidence` and before `tail`."""
    witness = _member_witness(A, (n, nr))
    verdict = FREE if witness is not None else NOT_FREE
    return CriterionEntry(name, True, verdict, {**evidence, "member": witness, **tail})


def _sub_is_free(A: Arrangement, idx: tuple, roots_b) -> bool:
    """Decide B = A[idx] exactly, given the roots of chi(B). A free B has
    chi(B) = (t-d1)(t-d2), so its exponents must be its integer roots
    (low, high)."""
    cert = _decide_sub(A, idx, roots_b.b2)
    if cert.is_free and cert.exponents != (roots_b.low, roots_b.high):
        raise InvariantViolation("free subarrangement exponents must match its roots")
    return cert.is_free


def _chi_at_count(A: Arrangement, i: int):
    """(chi(A, n_H), chi(A minus H)) for member i. chi(A minus H) is read
    only at a zero, where chi(A minus H, n_H) = 0 is asserted, and is
    None otherwise.

    chi(A minus H) is recounted from A's lattice by sub_char_poly rather
    than taken from the deletion-restriction identity, so the assertion
    still checks the lattice.
    """
    n_h = A.n_counts[i]
    value = A.char_poly().eval(n_h)
    if value != 0:
        return value, None
    deleted = A.sub_char_poly([j for j in range(len(A)) if j != i])
    if deleted.eval(n_h) != 0:
        raise InvariantViolation(
            "deletion-restriction forces both polynomials to vanish at n_H"
        )
    return value, deleted


def _sub_criterion(name: str, check, A: Arrangement, sub_indices):
    """A subarrangement criterion on B = A[sub_indices]: check(A, pair,
    idx, roots of chi(B)) once A's roots are an integer pair.
    run_criteria computes the same inputs once for all candidates."""
    idx = tuple(sub_indices)
    pair = _integer_roots(A)
    if pair is None:
        return _inapplicable(name, "roots are not a pair of integers")
    return check(A, pair, idx, A.sub_char_poly(idx).roots())


# ---------------------------------------------------------------- criteria


def root_incidence(A: Arrangement, externals=None) -> CriterionEntry:
    """Freeness from a single incidence count hitting a root of chi.

    With integer roots a <= a+b, any line H (member or external) with
    count in {a, a+b} certifies freeness; finding none concludes nothing.
    externals: external_candidates(A) for None, built once no member
    count is a root; () counts none. Before any count, a supplied line
    raises PreconditionError unless normalized, MembershipError if a member.
    """
    name = "root_incidence"
    if externals is not None:
        externals = _external_lines(A, externals)
    pair = _integer_roots(A)
    if pair is None:
        return _inapplicable(
            name,
            "roots are not a pair of integers",
            classification=A.char_poly().roots().classification,
        )
    a, ab = pair
    witness = _member_witness(A, (a, ab))
    if witness is not None:
        return CriterionEntry(
            name,
            True,
            FREE,
            {"member": witness, "count": A.n_counts[witness], "roots": [a, ab]},
        )
    if externals is None:
        externals = external_candidates(A)
    for L in externals:
        n_l = A.count_on_line(L)
        if n_l in (a, ab):
            return CriterionEntry(
                name,
                True,
                FREE,
                {"external": _line_text(A, L), "count": n_l, "roots": [a, ab]},
            )
    return CriterionEntry(
        name,
        True,
        NO_CONCLUSION,
        {
            "roots": [a, ab],
            "member_counts": sorted(set(A.n_counts)),
            "externals_checked": len(externals),
        },
    )


def deletion_pair(A: Arrangement, which) -> CriterionEntry:
    """Common-root test for the pair (A, A minus H).

    The two characteristic polynomials differ by t - n_H, so their gcd
    is nonconstant exactly when both vanish at n_H; in that case the
    pair is free on both sides. Without a common root the two cannot
    both be free, which alone settles nothing about A. chi(A minus H)
    is read from A's lattice; no arrangement is built.
    """
    name = "deletion_pair"
    i = A.member_index(which)
    n_h = A.n_counts[i]
    if _chi_at_count(A, i)[0] == 0:
        return CriterionEntry(
            name,
            True,
            FREE,
            {"member": i, "common_root": n_h, "deleted_free": True},
        )
    return CriterionEntry(
        name,
        True,
        NO_CONCLUSION,
        {"member": i, "count": n_h, "pair_free": False},
    )


def addition(A: Arrangement, which) -> CriterionEntry:
    """Addition step: chi(A, n_H) = chi(A', n_H) = 0 ties the freeness of
    A to that of A' = A minus H. chi(A') is read from A's lattice, and
    only when both vanish is A' decided exactly, also from A's data; no
    arrangement is built."""
    name = "addition"
    i = A.member_index(which)
    n_h = A.n_counts[i]
    chi_at_count, deleted = _chi_at_count(A, i)
    if chi_at_count != 0:
        return CriterionEntry(
            name,
            True,
            NO_CONCLUSION,
            {"member": i, "count": n_h, "chi_at_count": chi_at_count},
        )
    smaller = _decide_sub(A, [j for j in range(len(A)) if j != i], deleted.b2)
    return CriterionEntry(
        name,
        True,
        smaller.verdict,
        {"member": i, "count": n_h, "deleted_verdict": smaller.verdict},
    )


def bracketing_sub(A: Arrangement, sub_indices) -> CriterionEntry:
    """Biconditional freeness test from a subarrangement with bracketing roots.

    With chi(A) = (t-n)(t-n-r) and a subarrangement B whose real roots
    satisfy alpha <= n and n-1 <= beta, freeness of A is equivalent to
    some member count hitting {n, n+r}. B need not be free.
    """
    return _sub_criterion("bracketing_sub", _bracketing_sub, A, sub_indices)


def _bracketing_sub(A: Arrangement, pair, idx, roots_b) -> CriterionEntry:
    name = "bracketing_sub"
    n, nr = pair
    r = nr - n
    if roots_b.classification == COMPLEX_CONJUGATE:
        return _inapplicable(name, "subarrangement roots are complex")
    if not (roots_b.cmp_low(n) <= 0 and roots_b.cmp_high(n - 1) >= 0):
        return _inapplicable(
            name,
            "subarrangement roots do not bracket the window",
            alpha=str(roots_b.low),
            beta=str(roots_b.high),
            n=n,
        )
    evidence = {
        "n": n,
        "r": r,
        "sub": list(idx),
        "alpha": str(roots_b.low),
        "beta": str(roots_b.high),
    }
    return _count_verdict(A, name, n, nr, evidence)


def intermediate_search(A: Arrangement, sub_indices) -> CriterionEntry:
    """Biconditional freeness test from a free subarrangement B.

    With chi(A) = (t-n)(t-n-r) and B free with exponents (n-s, n-1) for
    s >= 1, A is free exactly when no intermediate C between B and A has
    chi(C) = (t-n-u+1)(t-n+s) with u > r+1. The search runs over the
    greedy insertion chain always, and over all intermediate sets when
    |A minus B| <= EXHAUSTIVE_GAP_CAP. For exponents (n-1, n-s) with
    -r <= s <= 0 the equivalent test is a member count in {n, n+r}.
    """
    return _sub_criterion("intermediate_search", _intermediate_search, A, sub_indices)


def _intermediate_search(A: Arrangement, pair, idx, roots_b) -> CriterionEntry:
    name = "intermediate_search"
    n, nr = pair
    r = nr - n
    if roots_b.classification != TWO_INTEGER:
        return _inapplicable(name, "subarrangement roots are not integers")
    # a free subarrangement has exponents equal to its roots, so the
    # shape test runs on the cheap polynomial before the exact decision
    y1, y2 = roots_b.low, roots_b.high
    if y2 == n - 1:
        shifted = False
    elif y1 == n - 1 and n <= y2 <= nr:
        shifted = True
    else:
        return _inapplicable(
            name,
            "subarrangement roots do not match (n-s, n-1)",
            sub_roots=[y1, y2],
            n=n,
        )
    if not _sub_is_free(A, idx, roots_b):
        return _inapplicable(name, "subarrangement is not free", sub=list(idx))
    s = n - y2 if shifted else n - y1
    evidence = {"n": n, "r": r, "s": s, "sub": list(idx), "sub_exponents": [y1, y2]}
    if shifted:
        return _count_verdict(A, name, n, nr, evidence, mode="count-scan")

    def violating(subset: tuple) -> bool:
        chi_c = A.sub_char_poly(subset)
        return chi_c.eval(n - s) == 0 and len(subset) - (n - s) > n + r

    outside = [i for i in range(len(A)) if i not in set(idx)]
    if len(outside) <= EXHAUSTIVE_GAP_CAP:
        mode = "exhaustive"
        candidates = (
            idx + extra
            for k in range(len(outside) + 1)
            for extra in combinations(outside, k)
        )
    else:
        mode = "chain"
        order, _ = A.order_increasing(idx)
        candidates = (idx + order[: k + 1] for k in range(len(order)))
    for subset in candidates:
        if violating(subset):
            return CriterionEntry(
                name,
                True,
                NOT_FREE,
                {
                    **evidence,
                    "mode": mode,
                    "violating": sorted(subset),
                    "violating_roots": [n - s, len(subset) - (n - s)],
                },
            )
    return CriterionEntry(name, True, FREE, {**evidence, "mode": mode, "violating": None})


def subfree(A: Arrangement, sub_indices) -> CriterionEntry:
    """Freeness inherited upward from a free subarrangement sharing a root.

    With chi(A) = (t-a)(t-c) and chi(B) = (t-a)(t-b) for integers
    a <= b <= c and B free, A is free as well. One-directional.
    """
    return _sub_criterion("subfree", _subfree, A, sub_indices)


def _subfree(A: Arrangement, pair, idx, roots_b) -> CriterionEntry:
    name = "subfree"
    if roots_b.classification != TWO_INTEGER:
        return _inapplicable(name, "subarrangement roots are not integers")
    x1, x2 = pair
    y1, y2 = roots_b.low, roots_b.high
    # both pairs are ordered, so a <= b <= c can only be a = y1 = x1,
    # b = y2, c = x2
    if y1 != x1 or y2 > x2:
        return _inapplicable(
            name,
            "no shared root with ordered remainders",
            roots=[x1, x2],
            sub_roots=[y1, y2],
        )
    if not _sub_is_free(A, idx, roots_b):
        return _inapplicable(
            name,
            "subarrangement is not free",
            sub=list(idx),
            shared_root=y1,
        )
    return CriterionEntry(
        name,
        True,
        FREE,
        {"sub": list(idx), "shared_root": y1, "sub_other": y2, "other": x2},
    )


def root_gap(A: Arrangement) -> CriterionEntry:
    """Freeness from the gap between real roots of chi.

    Over characteristic zero, when the at-infinity restriction (one
    central per parallel class, weighted by its size) is balanced with
    h > 2 centrals, the gap beta - alpha never exceeds h - 2, and
    hitting h - 2 or h - 3 exactly certifies freeness.
    """
    name = "root_gap"
    if A.field.characteristic != 0:
        return _inapplicable(name, "needs characteristic zero")
    roots = A.char_poly().roots()
    if roots.classification == COMPLEX_CONJUGATE:
        return _inapplicable(name, "roots are complex")
    h = len(A.parallel_classes)
    if h <= 2:
        return _inapplicable(name, "needs more than two direction classes", h=h)
    if 2 * max(len(idx) for _, idx in A.parallel_classes) > len(A):
        return _inapplicable(name, "restriction is unbalanced", h=h)
    if roots.gap_cmp(h - 2) > 0:
        raise InvariantViolation(
            f"balanced root gap exceeded h - 2 = {h - 2}; the bound is a theorem"
        )
    matched = None
    if roots.gap_cmp(h - 2) == 0:
        matched = h - 2
    elif roots.gap_cmp(h - 3) == 0:
        matched = h - 3
    evidence = {"h": h, "gap_equals": matched, "balanced": True}
    if matched is not None:
        return CriterionEntry(name, True, FREE, evidence)
    return CriterionEntry(name, True, NO_CONCLUSION, evidence)


def small_exponent_sub(A: Arrangement, sub_indices) -> CriterionEntry:
    """Biconditional freeness test from a free subarrangement with
    exponents just below n.

    With chi(A) = (t-n)(t-n-r), a free B with exponents (n-2, n-2) and
    r >= 1, or (n-3, n-2) and r >= 2, or (n-3, n-3) and r >= 4, makes A
    free exactly when some member count hits {n, n+r}.
    """
    return _sub_criterion("small_exponent_sub", _small_exponent_sub, A, sub_indices)


def _small_exponent_sub(A: Arrangement, pair, idx, roots_b) -> CriterionEntry:
    name = "small_exponent_sub"
    n, nr = pair
    r = nr - n
    if roots_b.classification != TWO_INTEGER:
        return _inapplicable(name, "subarrangement roots are not integers")
    shape = (roots_b.low, roots_b.high)
    variants = {
        (n - 2, n - 2): 1,
        (n - 3, n - 2): 2,
        (n - 3, n - 3): 4,
    }
    min_r = variants.get(shape)
    if min_r is None or r < min_r:
        return _inapplicable(
            name,
            "subarrangement exponent shape or root spread does not qualify",
            sub_roots=list(shape),
            n=n,
            r=r,
        )
    if not _sub_is_free(A, idx, roots_b):
        return _inapplicable(name, "subarrangement is not free", sub=list(idx))
    evidence = {"n": n, "r": r, "sub": list(idx), "sub_exponents": list(shape)}
    return _count_verdict(A, name, n, nr, evidence)


# ----------------------------------------------------- external candidates


def _fresh_direction(A: Arrangement):
    """First direction not parallel to any member, scanning (0,1), (1,0),
    (1,1), (1,2), ...; None when the field has no direction left."""
    field = A.field
    used = {line.direction for line in A.lines}
    # the candidates are normalized and distinct, so len(used) + 1 of them
    # hold a fresh one, unless a prime field's p + 1 directions run out
    size = len(used) + 1
    if field.kind == PRIME:
        size = min(size, field.p + 1)
    one = field.one
    candidates = [(field.zero, one)] + [(one, field.from_int(k)) for k in range(size - 1)]
    return next((d for d in candidates if d not in used), None)


def external_candidates(A: Arrangement) -> tuple:
    """Deterministic family of candidate external lines.

    Over a small prime field this is every line of the plane that is
    not a member. Otherwise: (i) every line through two or more
    intersection points, (ii) through each intersection point one line
    per member direction class plus one fresh direction, (iii) per
    member direction class one line avoiding all intersection points.
    These realize every achievable extremum of the incidence count.
    They are found and deduplicated on integer line keys; one Line is
    built per distinct candidate.
    """
    field = A.field
    if field.kind == PRIME and field.p <= PLANE_PRIME_CAP:
        from .fqscan import PlaneEnumeration

        plane = PlaneEnumeration(field.p)
        members = {plane.line_ids[line] for line in A.lines}
        return tuple(L for i, L in enumerate(plane.lines) if i not in members)

    one, join, param = field.one, _JOIN[field.kind], field.d or field.p
    members = A._index
    found: dict[tuple, None] = {}

    def offer(k: tuple):
        if k not in members and k not in found:
            found[k] = None

    pts = A._point_keys
    for p, q in combinations(pts, 2):
        offer(join(p, q, 0, param))

    directions = [d for d, _ in A.parallel_classes]
    fresh = _fresh_direction(A)
    per_point = directions + ([fresh] if fresh is not None else [])
    ends = [_key((-b, a, field.zero), one) for a, b in per_point]
    through = [[join(p, e, 0, param) for e in ends] for p in pts]
    for row in through:
        for k in row:
            offer(k)

    # a generic line per direction, plus one in a fresh direction: the
    # latter meets every member in a distinct point, realizing the
    # maximum count |A|. The generic line takes the first offset
    # c = 0, 1, 2, ... whose key is not a line through a point.
    for j, (a, b) in enumerate(per_point):
        hit = {row[j] for row in through}
        for c in range(field.p) if field.kind == PRIME else count():
            k = _key((a, b, field.from_int(c)), one)
            if k not in hit:
                offer(k)
                break

    return tuple(Line(a, b, c) for a, b, c in _key_scalars(found, 0, one))


# ------------------------------------------------------------- root window


def verify_root_window(A: Arrangement, externals=None) -> RootWindowReport:
    """Assert the root-window facts on members and external lines.

    chi(A, count) >= 0 always; when A is free with integer roots
    (a, a+b), member counts lie in Z_{<=a} union {a+b} and external
    counts in {a} union Z_{>=a+b}. Violations raise InvariantViolation.
    externals: external_candidates(A) for None; supplied ones are
    checked as in root_incidence.
    """
    externals = external_candidates(A) if externals is None else _external_lines(A, externals)
    chi = A.char_poly()
    cert = decide_free(A)
    a, ab = cert.exponents or (None, None)
    for i, n_h in enumerate(A.n_counts):
        if chi.eval(n_h) < 0:
            raise InvariantViolation(f"chi(A, n_H) = {chi.eval(n_h)} < 0 at member {i}")
        if cert.is_free and not (n_h <= a or n_h == ab):
            raise InvariantViolation(
                f"free arrangement has member count {n_h} outside "
                f"Z_<={a} and {{{ab}}}"
            )
    external_values = set()
    for L in externals:
        n_l = A.count_on_line(L)
        if chi.eval(n_l) < 0:
            raise InvariantViolation(
                f"chi(A, n_L) = {chi.eval(n_l)} < 0 at external {_line_text(A, L)}"
            )
        if cert.is_free and not (n_l == a or n_l >= ab):
            raise InvariantViolation(
                f"free arrangement has external count {n_l} outside "
                f"{{{a}}} and Z_>={ab}"
            )
        external_values.add(n_l)
    return RootWindowReport(
        member_values=tuple(sorted(set(A.n_counts))),
        external_values=tuple(sorted(external_values)),
        externals_checked=len(externals),
        free=cert.is_free,
    )


# ------------------------------------------------------------ full report


def candidate_subarrangements(A: Arrangement) -> tuple:
    """Deterministic candidate subarrangements for criteria needing one:
    pencils at each point (largest first), delete-one sets, pairs,
    singles, and the empty set."""
    seen = set()
    out = []

    def offer(idx):
        key = frozenset(idx)
        if key not in seen and len(idx) < len(A):
            seen.add(key)
            out.append(tuple(sorted(idx)))

    pencils = sorted(
        (tuple(sorted(incident)) for incident in A._incidence),
        key=lambda t: (-len(t), t),
    )
    for idx in pencils:
        offer(idx)
    for i in range(len(A)):
        offer(tuple(j for j in range(len(A)) if j != i))
    for pair in combinations(range(len(A)), 2):
        offer(pair)
    for i in range(len(A)):
        offer((i,))
    offer(())
    return tuple(out)


def _first_entry(name: str, reason: str, entries) -> CriterionEntry:
    """First conclusive entry, else the first applicable one, else an
    inapplicable entry giving `reason`."""
    fallback = None
    for entry in entries:
        if entry.applicable and entry.conclusion != NO_CONCLUSION:
            return entry
        if entry.applicable and fallback is None:
            fallback = entry
    return fallback or _inapplicable(name, reason)


def run_criteria(A: Arrangement, externals=None) -> CriterionReport:
    """Evaluate every criterion with automatically chosen inputs and
    hard-check each conclusion against the exact verdict.

    externals go to root_incidence: None means external_candidates(A),
    built only once A's roots are an integer pair and no member count is
    one of them, and supplied ones are checked as in root_incidence.
    """
    cert = decide_free(A)
    pair = _integer_roots(A)
    # without integer roots every candidate is inapplicable to every
    # subarrangement criterion, so none is walked
    records = () if pair is None else tuple(
        (idx, A.sub_char_poly(idx).roots()) for idx in candidate_subarrangements(A)
    )

    def members(name, criterion):
        scan = (criterion(A, i) for i in range(len(A)))
        return _first_entry(name, "empty arrangement", scan)

    def subs(name, check):
        scan = (check(A, pair, idx, roots_b) for idx, roots_b in records)
        return _first_entry(name, "no qualifying subarrangement among candidates", scan)

    entries = [
        root_incidence(A, externals),
        members("deletion_pair", deletion_pair),
        members("addition", addition),
        subs("bracketing_sub", _bracketing_sub),
        subs("intermediate_search", _intermediate_search),
        subs("subfree", _subfree),
        root_gap(A),
        subs("small_exponent_sub", _small_exponent_sub),
    ]
    for entry in entries:
        if entry.applicable and entry.conclusion != NO_CONCLUSION:
            if entry.conclusion != cert.verdict:
                raise InvariantViolation(
                    f"criterion {entry.name} concluded {entry.conclusion} but the "
                    f"exact verdict is {cert.verdict}; evidence: {entry.evidence}"
                )
    return CriterionReport(cert, tuple(entries))
