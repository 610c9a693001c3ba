"""Seeded input generators for the in-process workloads.

Each generator takes its own random.Random, so one seed always gives the
same inputs, and yields units: fixed lists of input shapes whose order
is shuffled. A run measures whole units, so every run of a workload
times the same mix of shapes whatever the seed.

The library's caches are unbounded, so an input repeated within one
process would be timed as a cache hit. Each generator remembers a
digest of what it produced (not the input itself, so the benchmark does
not hold on to its inputs) and draws again instead of repeating.

The arrangement generator follows tests/helpers.py: lines are biased
toward a few shared anchor points and shared directions, so the
lattices have multiple points and parallel classes.
"""

from __future__ import annotations

import hashlib
import random

_SMALL = (-2, -1, 0, 1, 2)


TRIES = 1000


def input_key(field, lines) -> bytes:
    """Digest of an input's field and line set, equal for equal inputs."""
    text = repr((str(field), sorted(repr(line) for line in lines)))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def arrangement_key(A) -> bytes:
    return input_key(A.field, A.lines)


def lattice_key(item) -> bytes:
    return input_key(*item)


def multiarrangement_key(M) -> bytes:
    return input_key(M.field, M.items())


class Inputs:
    """Generator state shared by the workloads: the rng and what was produced."""

    def __init__(self, lib, seed: int, name: str):
        self.lib = lib
        self.rng = random.Random(f"{name}:{seed}")
        self.seen: set[bytes] = set()

    def fresh(self, draw, key):
        """Draw until key(item) is new to this process; draw() may return None."""
        for _ in range(TRIES):
            item = draw()
            if item is None:
                continue
            k = key(item)
            if k not in self.seen:
                self.seen.add(k)
                return item
        raise RuntimeError("input space exhausted; widen the generator")


# ---------------------------------------------------------------- criteria


def _directions(lib, field):
    if field.characteristic:
        return [(field.one, field.from_int(t)) for t in range(field.p)] + [(field.zero, field.one)]
    pairs = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (3, 1)]
    return [
        lib.arrangement.normalize_direction(field, field.from_int(a), field.from_int(b))
        for a, b in pairs
    ]


def random_arrangement(lib, rng: random.Random, field, size: int):
    """Arrangement of exactly `size` lines, or None when the draw falls short."""
    normalize_line = lib.arrangement.normalize_line
    dirs = _directions(lib, field)
    anchors = [
        (field.from_int(rng.choice(_SMALL)), field.from_int(rng.choice(_SMALL)))
        for _ in range(rng.randint(1, 3))
    ]
    lines: dict = {}
    attempts = 0
    while len(lines) < size and attempts < 20 * (size + 1):
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
    if len(lines) < size:
        return None
    return lib.arrangement.Arrangement(field, lines)


CRITERIA_SIZES = range(3, 11)


def criteria_units(inputs: Inputs):
    """One arrangement per (field, size) for Q, F5, F7 and 3..10 lines."""
    lib, rng = inputs.lib, inputs.rng
    Field = lib.exactalg.Field
    fields = (Field.rationals(), Field.prime(5), Field.prime(7))
    while True:
        unit = []
        for field in fields:
            for size in CRITERIA_SIZES:
                unit.append(
                    inputs.fresh(
                        lambda: random_arrangement(lib, rng, field, size),
                        key=arrangement_key,
                    )
                )
        rng.shuffle(unit)
        yield unit


# ---------------------------------------------------------------- lattice

# (field, number of lines) per unit: a few large characteristic-zero
# builds and eight finite-plane scans.
LATTICE_SHAPES = (
    ("Q", 40),
    ("Q", 80),
    ("Q", 120),
    ("R5", 40),
    ("R5", 80),
    *((f"F{p}", n) for p in (11, 13) for n in (8, 14, 20, 26)),
)


def _random_line(lib, rng: random.Random, field):
    if field.characteristic:
        coeffs = [field.from_int(rng.randrange(field.p)) for _ in range(3)]
    elif field.kind == "quadratic":
        Quad = lib.exactalg.Quad
        coeffs = [Quad(rng.randint(-3, 3), rng.choice((-1, 0, 0, 1)), field.d) for _ in range(3)]
    else:
        coeffs = [field.from_int(rng.randint(-4, 4)) for _ in range(3)]
    a, b, c = coeffs
    if not a and not b:
        return None
    return lib.arrangement.normalize_line(field, a, b, c)


def random_lines(lib, rng: random.Random, field, n: int) -> tuple:
    """n distinct normalized lines with small coefficients."""
    lines: dict = {}
    while len(lines) < n:
        line = _random_line(lib, rng, field)
        if line is not None:
            lines.setdefault(line, None)
    return tuple(lines)


def lattice_units(inputs: Inputs):
    """(field, line tuple) inputs; the op builds the arrangement itself."""
    lib, rng = inputs.lib, inputs.rng
    Field = lib.exactalg.Field
    fields = {"Q": Field.rationals(), "R5": Field.quadratic(5), "F11": Field.prime(11), "F13": Field.prime(13)}
    while True:
        unit = [
            inputs.fresh(
                lambda: (fields[kind], random_lines(lib, rng, fields[kind], n)),
                key=lattice_key,
            )
            for kind, n in LATTICE_SHAPES
        ]
        rng.shuffle(unit)
        yield unit


# ---------------------------------------------------------------- ladder

# (field, multiplicities) per unit: h = 3..8 distinct central lines and
# |m| up to 20 over Q and 24 over F_101, and small ones over Q(sqrt 2),
# whose arithmetic costs several times more. The multiplicities are fixed
# per shape, balanced and unbalanced ones, so that a shape's cost varies
# little with the seed; the central lines are drawn.
LADDER_SHAPES = (
    ("Q", (4, 3, 3)),
    ("Q", (5, 3, 2, 2)),
    ("Q", (4, 4, 3, 3, 2)),
    ("Q", (3, 3, 3, 3, 3, 3)),
    ("Q", (6, 3, 3, 2, 2, 2, 2)),
    ("F101", (6, 3, 3)),
    ("F101", (4, 4, 3, 3)),
    ("F101", (6, 4, 3, 3, 2)),
    ("F101", (4, 4, 3, 3, 3, 3)),
    ("F101", (5, 3, 3, 3, 3, 3, 2, 2)),
    ("R2", (3, 3, 2)),
    ("R2", (4, 2, 2, 2)),
    ("R2", (3, 3, 2, 2, 2)),
)


def _ladder_directions(lib, field) -> list:
    """Central directions with small coefficients: (0, 1) and (1, t)."""
    if field.characteristic:
        ts = [field.from_int(t) for t in range(field.p)]
    elif field.kind == "quadratic":
        Quad = lib.exactalg.Quad
        ts = [Quad(u, v, field.d) for u in range(-2, 3) for v in (-1, 0, 1)]
    else:
        ts = [field.from_int(t) for t in range(-5, 6)]
    return [(field.zero, field.one)] + [(field.one, t) for t in ts]


def random_multiarrangement(lib, rng: random.Random, field, mults: tuple):
    """len(mults) distinct random central lines with the given multiplicities."""
    centrals = rng.sample(_ladder_directions(lib, field), len(mults))
    return lib.derivations.Multiarrangement(field, centrals, mults)


def ladder_units(inputs: Inputs):
    """One multiarrangement per shape of LADDER_SHAPES."""
    lib, rng = inputs.lib, inputs.rng
    Field = lib.exactalg.Field
    fields = {"Q": Field.rationals(), "F101": Field.prime(101), "R2": Field.quadratic(2)}
    while True:
        unit = [
            inputs.fresh(
                lambda: random_multiarrangement(lib, rng, fields[kind], mults),
                key=multiarrangement_key,
            )
            for kind, mults in LADDER_SHAPES
        ]
        rng.shuffle(unit)
        yield unit
