"""Affine line arrangements and their characteristic polynomials.

A line is the zero set of a*x + b*y + c with (a, b) != (0, 0), stored
with its first nonzero coefficient normalized to 1 so that equal lines
compare equal. An Arrangement is an ordered tuple of distinct lines
plus caches: the intersection lattice (point keys with the incident
line indices at each), the parallel classes, and the per-line counts
n_H = number of distinct points in which the other members meet H.

Members are identified by their integer keys (see exactalg for their
form): each member is keyed once, and a supplied Line, which must be
normalized, is keyed by _key_of and looked up, so membership does not
depend on how its scalars are typed. Two members meet in the key of
their point, so points are deduplicated without field arithmetic. Every
count the library reads is combinatorial, so no field scalar of a
point is built until .points is first read. count_on_line uses the
same keys; order_increasing updates its counts incrementally.

The characteristic polynomial is always t^2 - n*t + b2 with
b2 = sum over points of (multiplicity - 1), so it lives in Z[t] no
matter which coefficient field the lines use. Root pairs are classified
exactly: two integers, an irrational conjugate pair u +- v*sqrt(rad),
or a complex conjugate pair (rad < 0). Real roots are compared with a
rational q through the signs of chi(q) and n - 2q, and their gap with
an integer k through the sign of discriminant - k^2, in every class.

Root pairs are memoized per (n, b2), since the criteria read the same
few polynomials over and over.

Everything is immutable, and an arrangement hashes its member keys once,
when it is built. delete, add and subarrangement build fresh
arrangements and caches; the criteria in freeness call none of them, as
they read what they need of a subarrangement off its parent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import InvariantViolation, MembershipError, ParseError, PreconditionError
from .exactalg import (
    _JOIN,
    QUADRATIC,
    RATIONALS,
    _RE_INT,
    Field,
    _Frozen,
    _key,
    _key_scalars,
    _shown,
    record,
    squarefree_decomposition,
)


@record
class Line:
    """Normalized coefficient triple of a*x + b*y + c = 0."""

    a: object
    b: object
    c: object

    @property
    def direction(self) -> tuple:
        """Normalized (a, b) pair; two lines are parallel iff these agree."""
        return (self.a, self.b)


def _normalized(field: Field, coeffs, what: str) -> tuple:
    """The canonical form of a line or direction (what names which): coeffs
    coerced, then divided by the head, the first nonzero of a and b, unless one."""
    coeffs = tuple(map(field.coerce, coeffs))
    a, b = coeffs[:2]
    if not a and not b:
        raise PreconditionError(f"not a {what}: a and b are both zero")
    head = a if a else b
    return coeffs if head == field.one else tuple(x / head for x in coeffs)


def normalize_line(field: Field, a, b, c) -> Line:
    return Line(*_normalized(field, (a, b, c), "line"))


def normalize_direction(field: Field, a, b) -> tuple:
    return _normalized(field, (a, b), "direction")


def _checked_triple(line, field: Field) -> tuple:
    """The coerced (a, b, c) of a supplied Line; a non-Line, a degenerate
    or an unnormalized row raises PreconditionError."""
    if not isinstance(line, Line):
        raise PreconditionError(f"expected a Line, got {line!r}")
    triple = tuple(map(field.coerce, (line.a, line.b, line.c)))
    if _normalized(field, triple, "line") != triple:
        raise PreconditionError(f"line {line} is not normalized")
    return triple


@record
class IncidencePoint:
    """Intersection point together with the indices of all lines through it."""

    x: object
    y: object
    incident: frozenset

    @property
    def multiplicity(self) -> int:
        return len(self.incident)


def line_through(field: Field, p, q) -> Line:
    """The unique line through two distinct points."""
    px, py = field.coerce(p[0]), field.coerce(p[1])
    qx, qy = field.coerce(q[0]), field.coerce(q[1])
    dx, dy = qx - px, qy - py
    if not dx and not dy:
        raise PreconditionError("need two distinct points")
    a, b = -dy, dx
    c = px * dy - py * dx
    return normalize_line(field, a, b, c)


@record
class CharPoly:
    """t^2 - n*t + b2 for an arrangement of n lines."""

    n: int
    b2: int

    def eval(self, t):
        return t * t - self.n * t + self.b2

    def __str__(self):
        parts = ["t^2"]
        if self.n:
            parts.append(f"- {self.n} t")
        if self.b2:
            parts.append(f"+ {self.b2}")
        return " ".join(parts)

    def roots(self) -> "RootPair":
        return _roots(self.n, self.b2)

    def factored_str(self) -> str | None:
        """"(t-5)(t-7)" style string when the roots are integers, else None."""
        rp = self.roots()
        if rp.classification != TWO_INTEGER:
            return None

        def factor(r):
            return "t" if r == 0 else f"(t-{r})"

        if rp.low == rp.high:
            return "t^2" if rp.low == 0 else f"(t-{rp.low})^2"
        return factor(rp.low) + factor(rp.high)


@record
class Surd:
    """u + v*sqrt(rad) with rational u, v and squarefree rad not in {0, 1}."""

    u: Fraction
    v: Fraction
    rad: int

    def __str__(self):
        if self.v == 0:
            return str(self.u)
        mag = abs(self.v)
        vpart = f"sqrt({self.rad})" if mag == 1 else f"{mag}*sqrt({self.rad})"
        sign = "-" if self.v < 0 else "+"
        if self.u == 0:
            return vpart if self.v > 0 else f"-{vpart}"
        return f"{self.u} {sign} {vpart}"


TWO_INTEGER = "two-integer"
REAL_IRRATIONAL = "real-irrational"
COMPLEX_CONJUGATE = "complex-conjugate"


@record
class RootPair:
    """Exact root data of a CharPoly.

    low and high are ints for the two-integer classification and Surd
    descriptors otherwise; for the complex classification they describe
    the conjugate pair and carry no ordering.
    """

    n: int
    b2: int
    discriminant: int
    classification: str
    low: object
    high: object

    @classmethod
    def from_char_poly(cls, cp: CharPoly) -> "RootPair":
        n, b2 = cp.n, cp.b2
        disc = n * n - 4 * b2
        if disc >= 0:
            s = isqrt(disc)
            if s * s == disc:
                if (n - s) % 2:
                    raise InvariantViolation(
                        f"integer discriminant parity broken for n={n}, b2={b2}"
                    )
                low, high = (n - s) // 2, (n + s) // 2
                if low + high != n or low * high != b2:
                    raise InvariantViolation("integer root reconstruction failed")
                return cls(n, b2, disc, TWO_INTEGER, low, high)
            f, rad = squarefree_decomposition(disc)
            kind = REAL_IRRATIONAL
        else:
            f, rad = squarefree_decomposition(-disc)
            rad = -rad
            kind = COMPLEX_CONJUGATE
        u = Fraction(n, 2)
        v = Fraction(f, 2)
        low = Surd(u, -v, rad)
        high = Surd(u, v, rad)
        if 2 * u != n or u * u - v * v * rad != b2:
            raise InvariantViolation("surd root reconstruction failed")
        return cls(n, b2, disc, kind, low, high)

    def cmp_low(self, q) -> int:
        """Sign of (low root) - q; roots must be real."""
        return self._cmp_root(q, -1)

    def cmp_high(self, q) -> int:
        """Sign of (high root) - q; roots must be real."""
        return self._cmp_root(q, 1)

    def _cmp_root(self, q, side: int) -> int:
        """Sign of the low (side -1) or high (side 1) root minus q.

        chi(q) < 0 puts q strictly between the roots, chi(q) = 0 makes q
        a root (the low one when 2q <= n), and chi(q) > 0 puts both roots
        on the side of n/2 that q is not on.
        """
        if self.discriminant < 0:
            raise PreconditionError("complex roots cannot be ordered")
        a, b = Fraction(q).as_integer_ratio()
        # chi(q) and n/2 - q, scaled by the positive b*b and 2*b
        chi = a * a - self.n * a * b + self.b2 * b * b
        if chi < 0:
            return side
        mid = self.n * b - 2 * a
        s = (mid > 0) - (mid < 0)
        return s if chi > 0 or s == side else 0

    def gap_cmp(self, k: int) -> int:
        """Sign of (high - low) - k for real roots and k >= 0."""
        if self.discriminant < 0:
            raise PreconditionError("complex roots have no real gap")
        if k < 0:
            raise PreconditionError("gap comparisons need k >= 0")
        # (high - low)^2 is the discriminant
        d = self.discriminant - k * k
        return (d > 0) - (d < 0)


# (n, b2) pairs kept by the roots memo: every chi of up to 18 lines fits,
# as 0 <= b2 <= n(n-1)/2
ROOTS_CACHE_SIZE = 1024


@lru_cache(maxsize=ROOTS_CACHE_SIZE)
def _roots(n: int, b2: int) -> RootPair:
    return RootPair.from_char_poly(CharPoly(n, b2))


class Arrangement(_Frozen):
    """Ordered distinct lines over one field, with incidence caches."""

    _args = ("field", "lines")
    __slots__ = (
        "field",
        "lines",
        "_index",
        "_point_keys",
        "_incidence",
        "_points",
        "_points_on",
        "_classes",
        "_n_counts",
        "_char_poly",
        "_hash",
    )

    def __init__(self, field: Field, lines):
        index: dict[tuple, int] = {}
        canon = []
        for line in lines:
            triple = _checked_triple(line, field)
            if index.setdefault(_key(triple, field.one), len(canon)) != len(canon):
                raise PreconditionError(f"duplicate line {line}")
            canon.append(Line(*triple))  # members hold field scalars
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lines", tuple(canon))
        object.__setattr__(self, "_index", index)
        self._build_caches()

    def _build_caches(self):
        field, lines, keys = self.field, self.lines, tuple(self._index)
        n = len(lines)
        join, param = _JOIN[field.kind], field.d or field.p
        by_key: dict[tuple, set[int]] = {}
        for i in range(n):
            ki = keys[i]
            for j in range(i + 1, n):
                key = join(ki, keys[j], 2, param)
                if key is not None:
                    by_key.setdefault(key, set()).update((i, j))
        incidence = tuple(map(frozenset, by_key.values()))
        points_on: list[list[int]] = [[] for _ in range(n)]
        for k, incident in enumerate(incidence):
            for i in incident:
                points_on[i].append(k)
        classes: dict[tuple, list[int]] = {}
        for i, line in enumerate(lines):
            classes.setdefault(line.direction, []).append(i)
        n_counts = tuple(map(len, points_on))
        # a point of multiplicity m lies on m members and adds m - 1 to b2
        b2 = sum(n_counts) - len(incidence)
        object.__setattr__(self, "_point_keys", tuple(by_key))
        object.__setattr__(self, "_incidence", incidence)
        object.__setattr__(
            self, "_points_on", tuple(tuple(ks) for ks in points_on)
        )
        object.__setattr__(
            self,
            "_classes",
            tuple((d, tuple(ix)) for d, ix in classes.items()),
        )
        object.__setattr__(self, "_n_counts", n_counts)
        object.__setattr__(self, "_char_poly", CharPoly(n, b2))
        # a member's key is a function of the member, so equal line sets
        # have equal key sets
        object.__setattr__(self, "_hash", hash((field, frozenset(keys))))

    # -------------------------------------------------------- constructors

    @classmethod
    def from_triples(cls, field: Field, triples) -> "Arrangement":
        return cls(field, [normalize_line(field, *t) for t in triples])

    # -------------------------------------------------------- basic queries

    def __len__(self):
        return len(self.lines)

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.field == other.field and self._index.keys() == other._index.keys()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Arrangement({self.field}, {len(self.lines)} lines)"

    @property
    def points(self) -> tuple[IncidencePoint, ...]:
        """IncidencePoints in lattice scan order, built on the first read."""
        try:
            return self._points
        except AttributeError:
            scalars = _key_scalars(self._point_keys, 2, self.field.one)
            points = tuple(map(IncidencePoint, *zip(*scalars), self._incidence))
            object.__setattr__(self, "_points", points)
            return points

    @property
    def parallel_classes(self) -> tuple:
        """Tuple of (direction, line index tuple), in first-occurrence order."""
        return self._classes

    @property
    def n_counts(self) -> tuple[int, ...]:
        """n_H for each member: distinct points where other members meet it."""
        return self._n_counts

    def char_poly(self) -> CharPoly:
        return self._char_poly

    def _key_of(self, line: Line) -> tuple:
        """The key of a supplied Line, the one gate that identifies it;
        a Line that is not normalized raises PreconditionError."""
        return _key(_checked_triple(line, self.field), self.field.one)

    def index_of(self, line: Line) -> int:
        try:
            return self._index[self._key_of(line)]
        except KeyError:
            raise MembershipError(f"{line} is not a member") from None

    def __contains__(self, line: Line) -> bool:
        return self._key_of(line) in self._index

    # -------------------------------------------------------- counting

    def count_on_line(self, line: Line) -> int:
        """Distinct intersection points of `line` with members other than itself.

        Defined for members and non-members alike. A member meets itself
        with a zero determinant, like a parallel line, so it adds no key.
        A line that is not a normalized Line raises PreconditionError.
        """
        join, param = _JOIN[self.field.kind], self.field.d or self.field.p
        mine = self._key_of(line)
        keys = {join(mine, other, 2, param) for other in self._index}
        keys.discard(None)
        return len(keys)

    # -------------------------------------------------------- edits

    def member_index(self, which) -> int:
        """Index of a member given as a Line or as an int other than a bool;
        an unnormalized Line raises PreconditionError, and anything else, a
        non-member line or an index out of range MembershipError."""
        if isinstance(which, Line):
            return self.index_of(which)
        if type(which) is bool or not isinstance(which, int):
            raise MembershipError(f"{which!r} is not a Line or a line index")
        if not 0 <= which < len(self.lines):
            raise MembershipError(f"line index {which} out of range")
        return which

    def delete(self, which) -> "Arrangement":
        i = self.member_index(which)
        return Arrangement(self.field, self.lines[:i] + self.lines[i + 1 :])

    def add(self, line) -> "Arrangement":
        """A plus a Line or an (a, b, c) tuple; anything else raises PreconditionError."""
        if isinstance(line, tuple) and len(line) == 3:
            line = normalize_line(self.field, *line)
        if line in self:
            raise MembershipError(f"{line} is already a member")
        return Arrangement(self.field, self.lines + (line,))

    def subarrangement(self, indices) -> "Arrangement":
        idx = self._validate_subset(indices)
        return Arrangement(self.field, [self.lines[i] for i in idx])

    def _validate_subset(self, indices) -> tuple[int, ...]:
        idx = tuple(self.member_index(i) for i in indices)
        seen = set()
        for i in idx:
            if i in seen:
                raise MembershipError(f"duplicate index {i} in subset")
            seen.add(i)
        return idx

    def sub_char_poly(self, indices) -> CharPoly:
        """CharPoly of the subarrangement, computed from the cached lattice."""
        idx = set(self._validate_subset(indices))
        b2 = 0
        for incident in self._incidence:
            m = len(incident & idx)
            if m > 1:
                b2 += m - 1
        return CharPoly(len(idx), b2)

    def order_increasing(self, sub_indices) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Greedy ordering of the lines outside a subarrangement.

        Starting from B = sub_indices, repeatedly appends the remaining
        line H minimizing the number of points in which the current set
        meets H (ties broken by line index). Returns (order, counts)
        where counts[k] is that minimum at step k. The count sequence is
        nondecreasing.

        The counts are kept up to date instead of recounted: a point is
        touched once a line of the current set passes through it, and
        counts[i] is the number of touched points on line i. Adding a
        line touches the untouched points on it, and only the lines
        through those points gain one.
        """
        base = set(self._validate_subset(sub_indices))
        incidence, points_on = self._incidence, self._points_on
        n = len(self.lines)
        touched = [bool(incident & base) for incident in incidence]
        counts = [sum(touched[k] for k in points_on[i]) for i in range(n)]
        remaining = [i for i in range(n) if i not in base]
        order: list[int] = []
        steps: list[int] = []
        while remaining:
            # min keeps the first of equal counts: ties go to the lower index
            best = min(remaining, key=counts.__getitem__)
            order.append(best)
            steps.append(counts[best])
            remaining.remove(best)
            for k in points_on[best]:
                if not touched[k]:
                    touched[k] = True
                    for j in incidence[k]:
                        counts[j] += 1
        return tuple(order), tuple(steps)


# ------------------------------------------------------------------ file IO

_TOKEN = re.compile(r"\S+")


def _tokens_with_columns(line: str):
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _header_int(token: str) -> int:
    """An integer in the scalar grammar, which int() alone would widen."""
    if not _RE_INT.match(token):
        raise PreconditionError(f"{_shown(token)}: not an integer")
    try:
        return int(token)
    except ValueError:  # past the int-string digit limit
        raise PreconditionError(f"{_shown(token)}: too many digits") from None


def _parse_field_header(tokens, lineno, path) -> Field:
    words = [t for t, _ in tokens]
    try:
        if words == ["field", "Q"]:
            return Field.rationals()
        if len(words) == 4 and words[:3] == ["field", "Q", "sqrt"]:
            return Field.quadratic(_header_int(words[3]))
        if len(words) == 3 and words[:2] == ["field", "F"]:
            return Field.prime(_header_int(words[2]))
    except PreconditionError as exc:
        raise ParseError(f"bad field header: {exc}", lineno, tokens[0][1], path) from None
    raise ParseError(
        "field header must be 'field Q', 'field Q sqrt <d>', or 'field F <p>'",
        lineno,
        tokens[0][1],
        path,
    )


def parse_body(text: str, path, keyword: str, duplicate: str, build):
    """Shared reader for .arr and .marr: a field header, then keyword rows
    of three arguments. Every row's shape is checked before any row is
    read. build(field, args, lineno, path) turns a row's (token, column)
    pairs into (key, item); a PreconditionError it raises, and a repeated
    key, worded duplicate.format(line of its first occurrence), are
    reported at the directive's column. Returns (field, items).
    """
    field = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = _tokens_with_columns(stripped)
        if not tokens:
            continue
        word, col = tokens[0]
        if field is None:
            if word != "field":
                raise ParseError("expected a field header first", lineno, col, path)
            field = _parse_field_header(tokens, lineno, path)
            continue
        if word != keyword:
            raise ParseError(f"unknown directive {word!r}", lineno, col, path)
        if len(tokens) != 4:
            raise ParseError(f"{keyword} takes 3 arguments", lineno, col, path)
        rows.append((tokens[1:], lineno, col))
    if field is None:
        raise ParseError("empty input: missing field header", 1, 1, path)
    items = []
    seen = {}
    for args, lineno, col in rows:
        try:
            key, item = build(field, args, lineno, path)
        except PreconditionError as exc:
            raise ParseError(str(exc), lineno, col, path) from None
        if key in seen:
            raise ParseError(duplicate.format(seen[key]), lineno, col, path)
        seen[key] = lineno
        items.append(item)
    return field, items


def scalar_at(field: Field, token: str, lineno: int, col: int, path):
    try:
        return field.parse_scalar(token)
    except ParseError as exc:
        raise ParseError(exc.message, lineno, col, path) from None


def _line_row(field: Field, args, lineno: int, path):
    line = normalize_line(field, *(scalar_at(field, t, lineno, c, path) for t, c in args))
    return line, line


def parse_arrangement(text: str, path=None) -> Arrangement:
    """Parse the .arr format: a field header, then 'line <a> <b> <c>' rows."""
    duplicate = "duplicate line (same as line directive on input line {})"
    field, lines = parse_body(text, path, "line", duplicate, _line_row)
    return Arrangement(field, lines)


def read_input(path) -> str:
    """The text of an input file; bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=str(path)) from None


def load_arrangement(path) -> Arrangement:
    return parse_arrangement(read_input(path), path=str(path))


def format_field_header(field: Field) -> str:
    if field.kind == RATIONALS:
        return "field Q"
    if field.kind == QUADRATIC:
        return f"field Q sqrt {field.d}"
    return f"field F {field.p}"


def format_arrangement(arr: Arrangement) -> str:
    out = [format_field_header(arr.field)]
    fmt = arr.field.format_scalar
    for line in arr.lines:
        out.append(f"line {fmt(line.a)} {fmt(line.b)} {fmt(line.c)}")
    return "\n".join(out) + "\n"
