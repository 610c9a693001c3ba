"""Reference arrangements shipped with the package.

Each .arr or .marr file under linarr/fixtures/ is the one definition of
its fixture, and ARRANGEMENT_FIXTURES or MULTIARRANGEMENT_FIXTURES maps
its stem to a loader: ARRANGEMENT_FIXTURES["pencil3"]() parses pencil3.arr.
pencil(n, field), pentagon_sqrt5() and f3_all() build three of them from
a rule other than their rows, as references the files are checked against.

- pencil3 to pencil8: n concurrent lines through the origin, distinct slopes.
- star7_transversal_r2: seven concurrent lines (two of sqrt(2) slope) and y = 1.
- star7_transversal_q: its rational twin, the same lattice with plain slopes.
- squares_diagonals: the walls x, y in {-1, 0, 1} plus both diagonal bundles.
- pentagon_r5: edges and diagonals of an affine-regular pentagon over Q(sqrt 5).
- subfree_gap_a: two horizontals crossing a six-fold star; free, exponents (3, 5).
- subfree_gap_b: six of subfree_gap_a's lines; chi is (t-3)^2, yet not free.
- subfree_gap_c: the four-fold star shared by subfree_gap_a and subfree_gap_b.
- f3_three: {x, x - 1, y} over F_3; the complement has two points.
- f3_pencil: all four lines through the origin of F_3^2.
- f3_all: every line of the plane over F_3.
- m3333: the four directions of squares_diagonals, each of multiplicity 3.
- xy_m22: x and y, each of multiplicity 2.
- xy_m51: x of multiplicity 5 and y of multiplicity 1.
- triple_simple: {x, y, x - y}, all of multiplicity 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import combinations

from .arrangement import Arrangement, line_through, load_arrangement
from .derivations import load_multiarrangement
from .exactalg import Field, Quad

Q = Field.rationals()


def pencil(n: int, field: Field | None = None) -> Arrangement:
    """n concurrent lines through the origin with distinct slopes."""
    field = field or Q
    triples = []
    if n >= 1:
        triples.append((1, 0, 0))
    if n >= 2:
        triples.append((0, 1, 0))
    for k in range(1, n - 1):
        # y = k x
        triples.append((field.from_int(k), field.from_int(-1), field.zero))
    return Arrangement.from_triples(field, triples)


def pentagon_sqrt5() -> Arrangement:
    """Edges and diagonals of an affine-regular pentagon over Q(sqrt 5)."""
    field = Field.quadratic(5)

    def s(u, v):
        return Quad(Fraction(u), Fraction(v), 5)

    # vertices of a regular pentagon with the y axis rescaled into Q(sqrt 5)
    vertices = [
        (s(1, 0), s(0, 0)),
        (s(Fraction(-1, 4), Fraction(1, 4)), s(1, 0)),
        (s(Fraction(-1, 4), Fraction(-1, 4)), s(Fraction(-1, 2), Fraction(1, 2))),
        (s(Fraction(-1, 4), Fraction(-1, 4)), s(Fraction(1, 2), Fraction(-1, 2))),
        (s(Fraction(-1, 4), Fraction(1, 4)), s(-1, 0)),
    ]
    return Arrangement(field, [line_through(field, p, q) for p, q in combinations(vertices, 2)])


def f3_all() -> Arrangement:
    """Every line of the plane over F_3."""
    field = Field.prime(3)
    triples = [(1, b, c) for b in range(3) for c in range(3)]
    triples += [(0, 1, c) for c in range(3)]
    return Arrangement.from_triples(field, triples)


def fixture_path(name: str):
    """Filesystem path of a shipped fixture file such as 'pencil3.arr'."""
    return resources.files("linarr").joinpath("fixtures", name)


def fixture_names() -> list[str]:
    """Names of every shipped fixture file."""
    root = resources.files("linarr").joinpath("fixtures")
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.name.endswith((".arr", ".marr"))
    )


def _loaders(ext: str, load) -> dict:
    """Stem to loader for every shipped file <stem>.<ext>."""
    split = (name.rpartition(".") for name in fixture_names())
    return {stem: partial(load, fixture_path(f"{stem}.{ext}")) for stem, _, e in split if e == ext}


ARRANGEMENT_FIXTURES = _loaders("arr", load_arrangement)
MULTIARRANGEMENT_FIXTURES = _loaders("marr", load_multiarrangement)
