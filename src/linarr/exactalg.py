"""Exact scalars and dense linear algebra over Q, Q(sqrt d), and F_p.

Three scalar representations share one arithmetic protocol (binary ops,
unary minus, truthiness as a zero test):

  * rationals            stdlib Fraction, always in lowest terms
  * quadratic extension  Quad(u, v, d) meaning u + v*sqrt(d)
  * prime field          Mod(value, p) with value reduced into [0, p)

A Field value describes which representation a computation uses and
provides coercion, parsing, and formatting. All arithmetic is
arbitrary precision; nothing here ever rounds.

Every value type of the library derives from _Frozen: setting or
deleting an attribute raises, and __reduce__ rebuilds the value as
type(self)(*args) from the attributes its _args names, so values pickle
and copy. Quad and Mod derive from _Scalar(_Frozen), which adds
subtraction, division and square-and-multiply powers on top of each
class's own _lift, +, unary minus, * and inverse. Arrangement,
Multiarrangement and PlaneEnumeration are written by hand on _Frozen;
Field and the other value classes are records: @record rebuilds an
annotated class on _Frozen with __slots__ and _args its fields and
generated __init__ (its defaults, then __post_init__ if defined),
__eq__ (same class, equal field tuples), __hash__ of the field tuple
and a Name(field=value) __repr__; slots the class declares itself
(Field's zero and one) are derived, set by __post_init__ and kept out
of _args and all of these. It does what dataclass(frozen=True,
slots=True) did, without importing dataclasses, which took about half
the time of importing the CLI.

_kernel_rows is the one kernel construction: it takes plain rows of
field scalars and returns the reduced row echelon form of the standard
free-variable parametrization of their null space, which makes the
basis deterministic: the same rows always yield the same vectors in the
same order.

Integer form: _lift(vec, one) puts a vector over one common
denominator and returns the numerators as a tuple of parts, one int
list each: (ints,) over Q; over Q(sqrt d), for entries u + v*sqrt(d),
(u parts, v parts); (residues,) over F_p. _scalar(num, den, one)
builds num/den as a field scalar, with num a (u, v) pair over
Q(sqrt d) and den 1 over F_p. The intersection lattice of an
arrangement and the elimination below compute on these ints and build
field scalars only for results. Polynomials take the same form, the
_lift of their coefficient tuple, and _lifted_mul multiplies two of
them, which is how derivations runs Saito's check.

Keys: points and lines are homogeneous triples. The point (x, y) is
(x, y, 1), its head the last coordinate; the line a*x + b*y + c = 0 is
(a, b, c), its head the first nonzero of a and b; the point at infinity
of the direction (a, b) is (-b, a, 0), which only enters joins. _key
keys a triple whose head is 1 by its integer form, flattened:

  Q         three ints, primitive, head > 0
  Q(sqrt d) six ints, the u parts then the v parts, primitive, head a
            positive int
  F_p       three residues, head 1

so equal points and equal lines have equal keys. A join (_JOIN, one
fused function per field) crosses two keys into a key: two lines meet
in their point's key, None when they are parallel, and two points span
their line's key. _key_scalars turns keys back into field scalars.

Elimination runs on the lifted rows, in two loops. Q and Q(sqrt d) use
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): with head
the new pivot and prev the previous one, every other row becomes
(head*row - f*pivot_row) / prev, a division that is exact by
Sylvester's identity. The integer loop serves Q and F_p: over F_p it
scales each pivot row so that the pivot is 1 and reduces each updated
row mod p, so prev stays 1. The Z[sqrt d] loop runs on (u, v) pairs,
and its division by prev is multiplication by conj(prev) followed by
exact division of both parts by the norm of prev. Every pivot ends
equal to the last one, D, so each returned cell is entry/D, and at most
one field scalar is built per returned cell.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, PreconditionError

RATIONALS = "rationals"
QUADRATIC = "quadratic"
PRIME = "prime"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Strong pseudoprimes to all of _MR_BASES start here (Sorenson and
# Webster, Math. Comp. 86, 2017), so Miller-Rabin is exact below it.
PRIMALITY_CAP = 3317044064679887385961981
# Quadratic fields need |d| below this: squarefree_decomposition is trial
# division, which takes about 10^6 steps just below the cap.
SQUAREFREE_CAP = 10**12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises PreconditionError at n >= PRIMALITY_CAP."""
    if n >= PRIMALITY_CAP:
        raise PreconditionError(
            f"{_shown_int(n)} is beyond the certified primality range (< {PRIMALITY_CAP})"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for q in _MR_BASES:
        x = pow(q, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_decomposition(m: int) -> tuple[int, int]:
    """Write m >= 1 as f*f*r with r squarefree; returns (f, r)."""
    if m < 1:
        raise PreconditionError(f"need a positive integer, got {m}")
    f = 1
    i = 2
    while i * i <= m:
        while m % (i * i) == 0:
            m //= i * i
            f *= i
        i += 1
    return f, m


class _Frozen:
    """Base of every value type: no attribute set or deleted after
    __init__, and pickled and copied as type(self)(*its _args)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._args)


class _Scalar(_Frozen):
    """Subtraction, division and powers from each field's _lift, +,
    unary minus, * and inverse."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self._lift(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class Quad(_Scalar):
    """u + v*sqrt(d) with rational u, v and a fixed squarefree d.

    Mixing values with different d raises; mixing with int or Fraction
    coerces the rational into the extension. Because d is squarefree and
    not 0 or 1, the norm u*u - d*v*v vanishes only at zero, so every
    nonzero value is invertible.
    """

    __slots__ = _args = ("u", "v", "d")

    def __init__(self, u, v, d: int):
        object.__setattr__(self, "u", Fraction(u))
        object.__setattr__(self, "v", Fraction(v))
        object.__setattr__(self, "d", d)

    def _lift(self, other):
        if isinstance(other, Quad):
            if other.d != self.d:
                raise PreconditionError(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
                )
            return other
        if isinstance(other, (int, Fraction)):
            if isinstance(other, bool):
                raise PreconditionError(f"{other!r} is not a scalar of sqrt({self.d}) values")
            return Quad(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Quad(self.u + o.u, self.v + o.v, self.d)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Quad(
            self.u * o.u + self.d * self.v * o.v,
            self.u * o.v + self.v * o.u,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        norm = self.u * self.u - self.d * self.v * self.v
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return Quad(self.u / norm, -self.v / norm, self.d)

    def __neg__(self):
        return Quad(-self.u, -self.v, self.d)

    def __bool__(self):
        return self.u != 0 or self.v != 0

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.d == other.d and self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        return NotImplemented

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash(("quad", self.u, self.v, self.d))

    def __repr__(self):
        return f"Quad({self.u}, {self.v}, d={self.d})"


class Mod(_Scalar):
    """Residue in the prime field F_p, stored reduced into [0, p)."""

    __slots__ = _args = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", int(value) % p)
        object.__setattr__(self, "p", p)

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise PreconditionError(f"cannot mix F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            if isinstance(other, bool):
                raise PreconditionError(f"{other!r} is not a scalar of F_{self.p}")
            return Mod(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(self.value + o.value, self.p)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "Mod":
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Mod(pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("mod", self.value, self.p))

    def __repr__(self):
        return f"Mod({self.value}, p={self.p})"


# ASCII digits only: \d would also match every other Unicode digit
_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RE_RAT = re.compile(rf"{_RAT}\Z")
_RE_INT = re.compile(r"[+-]?[0-9]+\Z")
_RE_QUAD_FULL = re.compile(rf"(?P<u>{_RAT})(?P<sign>[+-])(?P<v>(?:[0-9]+(?:/[0-9]+)?)?)r\Z")
_RE_QUAD_PURE = re.compile(rf"(?P<v>{_RAT}|[+-]?)r\Z")


def _shown(text: str) -> str:
    """A token quoted for an error message, cut after 32 characters."""
    if len(text) <= 32:
        return repr(text)
    return f"{text[:32] + '…'!r} ({len(text)} chars)"


def _shown_int(n: int) -> str:
    """n in decimal for an error message, or only its size past 32 digits."""
    if -(10**32) < n < 10**32:
        return str(n)
    return f"a {n.bit_length()}-bit integer"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {_shown(text)}: {exc}") from None
    except ValueError:  # past the int-string digit limit
        raise ParseError(f"bad rational {_shown(text)}: too many digits") from None


def record(cls):
    """cls rebuilt as a frozen record of its annotated fields; see the module docstring."""
    names, derived = tuple(cls.__annotations__), vars(cls).get("__slots__", ())
    skip = names + derived + ("__dict__", "__weakref__")
    body = {k: v for k, v in vars(cls).items() if k not in skip}
    own, other = ("".join(f"{obj}.{n}, " for n in names) for obj in ("self", "other"))
    params = ", ".join(f"{n}=_D[{n!r}]" if n in vars(cls) else n for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = [f"def __init__(self, {params}):"] + [f"    _set(self, {n!r}, {n})" for n in names]
    source += ["    self.__post_init__()"] * ("__post_init__" in body) + [
        "def __eq__(self, other):",
        f"    return ({own}) == ({other}) if other.__class__ is self.__class__ else NotImplemented",
        f"def __hash__(self): return hash(({own}))",
        f"def __repr__(self): return f'{cls.__qualname__}({shown})'",
    ]
    exec("\n".join(source), {"_D": vars(cls), "_set": object.__setattr__}, body)
    body.update(__slots__=names + derived, _args=names, __qualname__=cls.__qualname__)
    bases = tuple(b for b in cls.__bases__ if b is not object) + (_Frozen,)
    return type(cls)(cls.__name__, bases, body)


@record
class Field:
    """Descriptor for one of the three supported coefficient fields."""

    kind: str
    d: int | None = None
    p: int | None = None
    __slots__ = ("zero", "one")

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.d is not None or self.p is not None:
                raise PreconditionError("rationals take no parameters")
        elif self.kind == QUADRATIC:
            if self.p is not None or self.d is None:
                raise PreconditionError("quadratic field needs d only")
            if self.d in (0, 1):
                raise PreconditionError(f"sqrt({self.d}) is rational, d must not be 0 or 1")
            if abs(self.d) >= SQUAREFREE_CAP:
                raise PreconditionError(
                    f"|d| = {_shown_int(abs(self.d))} is not below {SQUAREFREE_CAP}"
                )
            if squarefree_decomposition(abs(self.d))[0] != 1:
                raise PreconditionError(f"d = {self.d} is not squarefree")
        elif self.kind == PRIME:
            if self.d is not None or self.p is None:
                raise PreconditionError("prime field needs p only")
            if not is_prime(self.p):
                raise PreconditionError(f"p = {self.p} is not prime")
        else:
            raise PreconditionError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "zero", self.from_int(0))
        object.__setattr__(self, "one", self.from_int(1))

    @classmethod
    def rationals(cls) -> "Field":
        return cls(RATIONALS)

    @classmethod
    def quadratic(cls, d: int) -> "Field":
        return cls(QUADRATIC, d=d)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(PRIME, p=p)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == PRIME else 0

    def from_int(self, n: int):
        if self.kind == RATIONALS:
            return Fraction(n)
        if self.kind == QUADRATIC:
            return Quad(n, 0, self.d)
        return Mod(n, self.p)

    def coerce(self, x):
        """Return x as this field's canonical scalar type, or raise."""
        if isinstance(x, bool):
            raise PreconditionError(f"{x!r} is not a scalar of {self}")
        if self.kind == RATIONALS:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        elif self.kind == QUADRATIC:
            if isinstance(x, Quad):
                if x.d != self.d:
                    raise PreconditionError(
                        f"sqrt({x.d}) value in a sqrt({self.d}) field"
                    )
                return x
            if isinstance(x, (int, Fraction)):
                return Quad(x, 0, self.d)
        else:
            if isinstance(x, Mod):
                if x.p != self.p:
                    raise PreconditionError(f"F_{x.p} value in an F_{self.p} field")
                return x
            if isinstance(x, int):
                return Mod(x, self.p)
        raise PreconditionError(f"{x!r} is not a scalar of {self}")

    def parse_scalar(self, text: str):
        """Parse scalar syntax: '-3', '5/7', '2+3/4r' (r = sqrt d), residues '4'."""
        if self.kind == RATIONALS:
            if not _RE_RAT.match(text):
                raise ParseError(f"bad rational {_shown(text)}")
            return _fraction(text)
        if self.kind == QUADRATIC:
            m = _RE_QUAD_FULL.match(text)
            if m:
                u = _fraction(m.group("u"))
                v = _fraction(m.group("v") or "1")
                if m.group("sign") == "-":
                    v = -v
                return Quad(u, v, self.d)
            m = _RE_QUAD_PURE.match(text)
            if m:
                vtxt = m.group("v")
                if vtxt in ("", "+"):
                    v = Fraction(1)
                elif vtxt == "-":
                    v = Fraction(-1)
                else:
                    v = _fraction(vtxt)
                return Quad(0, v, self.d)
            if _RE_RAT.match(text):
                return Quad(_fraction(text), 0, self.d)
            raise ParseError(f"bad quadratic scalar {_shown(text)}")
        if not _RE_INT.match(text):
            raise ParseError(f"bad residue {_shown(text)}")
        try:
            return Mod(int(text), self.p)
        except ValueError:  # past the int-string digit limit
            raise ParseError(f"bad residue {_shown(text)}: too many digits") from None

    def format_scalar(self, x) -> str:
        """Canonical text for a scalar; round-trips through parse_scalar."""
        x = self.coerce(x)
        if self.kind == RATIONALS:
            return str(x)
        if self.kind == PRIME:
            return str(x.value)
        if x.v == 0:
            return str(x.u)
        if x.v == 1:
            vpart = "r"
        elif x.v == -1:
            vpart = "-r"
        elif x.v > 0:
            vpart = f"{x.v}r"
        else:
            vpart = f"-{-x.v}r"
        if x.u == 0:
            return vpart
        sign = "+" if x.v > 0 else ""
        return f"{x.u}{sign}{vpart}"

    def __str__(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == QUADRATIC:
            return f"Q(sqrt {self.d})"
        return f"F_{self.p}"


def _lift(vec, one) -> tuple:
    """vec in integer form over the field type(one), a tuple of parts;
    see the module docstring."""
    if type(one) is Mod:
        return ([x.value for x in vec],)
    if type(one) is Quad:
        den = lcm(*(x.u.denominator for x in vec), *(x.v.denominator for x in vec))
        return (
            [x.u.numerator * (den // x.u.denominator) for x in vec],
            [x.v.numerator * (den // x.v.denominator) for x in vec],
        )
    den = lcm(*(x.denominator for x in vec))
    return ([x.numerator * (den // x.denominator) for x in vec],)


def _scalar(num, den, one):
    """num/den as a scalar of type(one), num and den in integer form."""
    if type(one) is Mod:
        return Mod(num, one.p)
    if type(one) is Quad:
        return Quad(Fraction(num[0], den), Fraction(num[1], den), one.d)
    return Fraction(num, den)


def _int_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _lifted_mul(p: tuple, q: tuple, one) -> tuple:
    """Product of two polynomials given by _lift of their coefficients."""
    if type(one) is Quad:
        (pu, pv), (qu, qv) = p, q
        d = one.d
        return (
            [a + d * b for a, b in zip(_int_mul(pu, qu), _int_mul(pv, qv))],
            [a + b for a, b in zip(_int_mul(pu, qv), _int_mul(pv, qu))],
        )
    out = _int_mul(p[0], q[0])
    return ([x % one.p for x in out] if type(one) is Mod else out,)


# ------------------------------------------------- keys of points and lines
#
# A join takes the head of its result: 2 for a meet of two lines, or 0
# for the line through two points, whose head is the first nonzero of a
# and b. It returns None when the head is zero.


def _key(vec, one) -> tuple:
    """The key of a normalized triple: its integer form, flattened."""
    parts = _lift(vec, one)
    return tuple(parts[0] + parts[1]) if type(one) is Quad else tuple(parts[0])


def _join_rational(p, q, head, _):
    a1, b1, c1 = p
    a2, b2, c2 = q
    x = b1 * c2 - b2 * c1
    y = a2 * c1 - a1 * c2
    z = a1 * b2 - a2 * b1
    h = z if head else x or y
    if not h:
        return None
    g = gcd(x, y, z)
    if h < 0:
        g = -g
    return (x // g, y // g, z // g)


def _join_quadratic(p, q, head, d: int):
    a1u, b1u, c1u, a1v, b1v, c1v = p
    a2u, b2u, c2u, a2v, b2v, c2v = q
    # the cross product over Z[sqrt d], bilinear in the (u, v) parts
    xu = b1u * c2u + d * b1v * c2v - b2u * c1u - d * b2v * c1v
    xv = b1u * c2v + b1v * c2u - b2u * c1v - b2v * c1u
    yu = a2u * c1u + d * a2v * c1v - a1u * c2u - d * a1v * c2v
    yv = a2u * c1v + a2v * c1u - a1u * c2v - a1v * c2u
    zu = a1u * b2u + d * a1v * b2v - a2u * b1u - d * a2v * b1v
    zv = a1u * b2v + a1v * b2u - a2u * b1v - a2v * b1u
    hu, hv = (zu, zv) if head else (xu, xv) if xu or xv else (yu, yv)
    if not (hu or hv):
        return None
    # times conj(head) = hu - hv*sqrt(d): the head becomes its norm
    dhv = d * hv
    norm = hu * hu - dhv * hv
    xu, xv = xu * hu - dhv * xv, xv * hu - xu * hv
    yu, yv = yu * hu - dhv * yv, yv * hu - yu * hv
    zu, zv = (norm, 0) if head else (zu * hu - dhv * zv, zv * hu - zu * hv)
    g = gcd(xu, yu, zu, xv, yv, zv)
    if norm < 0:
        g = -g
    return (xu // g, yu // g, zu // g, xv // g, yv // g, zv // g)


def _join_prime(p, q, head, prime: int):
    a1, b1, c1 = p
    a2, b2, c2 = q
    x = b1 * c2 - b2 * c1
    y = a2 * c1 - a1 * c2
    z = a1 * b2 - a2 * b1
    h = z % prime if head else x % prime or y % prime
    if not h:
        return None
    inv = pow(h, -1, prime)
    return (x * inv % prime, y * inv % prime, z * inv % prime)


_JOIN = {RATIONALS: _join_rational, QUADRATIC: _join_quadratic, PRIME: _join_prime}


def _key_scalars(keys, head, one) -> list:
    """Field scalars of keys: (x, y) of each point key at head 2, (a, b, c)
    of each line key at head 0."""
    quad = type(one) is Quad
    out = []
    for key in keys:
        den = key[2] if head else key[0] or key[1]
        if quad:
            key = (key[0], key[3]), (key[1], key[4]), (key[2], key[5])
        x, y = _scalar(key[0], den, one), _scalar(key[1], den, one)
        out.append((x, y) if head else (x, y, _scalar(key[2], den, one)))
    return out


def _rref_rows(rows: list[list], ncols: int, one) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The field is type(one). The rows are lifted to ints once and
    eliminated there; only the returned cells become field scalars.
    """
    if type(one) is Quad:
        return _rref_quadratic(rows, ncols, one)
    return _rref_integers(rows, ncols, one)


def _rref_integers(rows, ncols, one):
    """Gauss-Jordan over Z: fraction-free over Q, where every pivot ends
    equal to prev; over F_p each pivot row is scaled to pivot 1 and each
    updated row reduced mod p, so prev stays 1."""
    p = one.p if type(one) is Mod else 0
    lifted = [ints for (ints,) in (_lift(row, one) for row in rows) if any(ints)]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, len(lifted)):
            if lifted[i][c]:
                break
        else:
            continue
        lifted[r], lifted[i] = lifted[i], lifted[r]
        prow = lifted[r]
        head = prow[c]
        if p and head != 1:
            inv = pow(head, -1, p)
            prow = lifted[r] = [a * inv % p for a in prow]
            head = 1
        for i, row in enumerate(lifted):
            if i == r:
                continue
            f = row[c]
            if f and p:
                lifted[i] = [(a - f * b) % p for a, b in zip(row, prow)]
            elif f:
                lifted[i] = [(head * a - f * b) // prev for a, b in zip(row, prow)]
            elif head != prev:
                lifted[i] = [head * a // prev for a in row]
        prev = head
        pivots.append(c)
        if len(pivots) == len(lifted):
            break
    zero = one - one
    out = [
        [one if x == prev else _scalar(x, prev, one) if x else zero for x in row]
        for row in lifted[: len(pivots)]
    ]
    return out, pivots


def _rref_quadratic(rows, ncols, one):
    """Fraction-free Gauss-Jordan over Z[sqrt d], rows as (us, vs) int lists.

    Division by prev is multiplication by its conjugate, then exact
    division of both parts by its norm.
    """
    d = one.d
    lifted = [
        (us, vs) for us, vs in (_lift(row, one) for row in rows) if any(us) or any(vs)
    ]
    pivots: list[int] = []
    pu, pv, norm = 1, 0, 1
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, len(lifted)):
            if lifted[i][0][c] or lifted[i][1][c]:
                break
        else:
            continue
        lifted[r], lifted[i] = lifted[i], lifted[r]
        bus, bvs = lifted[r]
        hu, hv = bus[c], bvs[c]
        dhv, dpv = d * hv, d * pv
        for i, (us, vs) in enumerate(lifted):
            fu, fv = us[c], vs[c]
            if i == r or not (fu or fv or hu != pu or hv != pv):
                continue
            dfv = d * fv
            # x = head * row - f * pivot row, then x / prev
            xu = [
                hu * au + dhv * av - fu * bu - dfv * bv
                for au, av, bu, bv in zip(us, vs, bus, bvs)
            ]
            xv = [
                hu * av + hv * au - fu * bv - fv * bu
                for au, av, bu, bv in zip(us, vs, bus, bvs)
            ]
            if pv:
                lifted[i] = (
                    [(a * pu - dpv * b) // norm for a, b in zip(xu, xv)],
                    [(b * pu - a * pv) // norm for a, b in zip(xu, xv)],
                )
            else:
                lifted[i] = ([a // pu for a in xu], [b // pu for b in xv])
        pu, pv, norm = hu, hv, hu * hu - d * hv * hv
        pivots.append(c)
        if len(pivots) == len(lifted):
            break
    zero = one - one
    dpv = d * pv

    def scalar(a, b):
        # (a + b sqrt d) / (pu + pv sqrt d)
        if not (a or b):
            return zero
        if a == pu and b == pv:
            return one
        return _scalar((a * pu - dpv * b, b * pu - a * pv), norm, one)

    out = [[scalar(a, b) for a, b in zip(us, vs)] for us, vs in lifted[: len(pivots)]]
    return out, pivots


def _kernel_rows(rows: list[list], ncols: int, one) -> list[list]:
    """The null space of rows over type(one), as its unique RREF basis.

    One RREF of the rows with columns reversed leaves each pivot row
    nonzero only in free columns left of its pivot, so the free-column
    parametrization is already reduced. rank + len(basis) equals ncols.
    """
    echelon, pivots = _rref_rows([row[::-1] for row in rows], ncols, one)
    last = ncols - 1
    pivot_set = {last - c for c in pivots}
    zero = one - one
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(echelon, pivots):
            x = row[last - f]
            v[last - c] = -x if x else zero
        basis.append(v)
    return basis
