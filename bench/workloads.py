"""The four benchmark workloads.

Each workload sets itself up (a fresh import of the library plus its
first inputs), yields units of inputs, runs one operation per input,
and checks each output outside the timed region. check() returns the
output row that goes into the run's digest and raises CheckFailed when
an output is wrong.

Where an operation runs is the workload's business: the in-process
workloads call the library and trace it in this process, fixture_cli
starts a child per operation. Each workload therefore also gives the
benchmark its host-speed reference (reference()), whose resource usage
is the program's (rusage), its traced schedule (traced_unit(),
traced_op(), take_trace()) and its cProfile pass (profile_items(),
profile_op()).

Why these four (each stresses different layers, see BENCHMARK.json):
  fixture_cli       fresh CLI processes on the shipped fixtures: process
                    start and import, then every layer at cold caches; the
                    quadratic-field fixtures spend most of their time in
                    exponents.
  criteria_battery  many small run_criteria calls: criteria, rebuilds,
                    small exponent problems and caches.
  exponent_ladder   exponents of multiarrangements up to |m| = 24:
                    derivations and exactalg only.
  lattice_plane     a few large lattice builds plus finite-plane scans:
                    arrangement and fqscan only, derivations idle.
"""

from __future__ import annotations

import cProfile
import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import gen
import layers
import reference

PYTHON = sys.executable
HERE = Path(__file__).resolve().parent
FIXTURE_OUTPUTS = HERE / "fixture_outputs.json"


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _row(*items) -> str:
    return json.dumps(items, sort_keys=True, default=str)


# ------------------------------------------------------------ in-process


def import_library(src: Path) -> SimpleNamespace:
    """Import the library afresh from src, dropping any earlier import.

    A fresh import also starts the library's caches empty, which is
    what every set-up repetition should time.
    """
    for key in [k for k in sys.modules if k == "linarr" or k.startswith("linarr.")]:
        del sys.modules[key]
    lib = SimpleNamespace(
        **{
            name: importlib.import_module(f"linarr.{name}")
            for name in ("exactalg", "arrangement", "derivations", "freeness", "fqscan")
        }
    )
    origin = Path(sys.modules["linarr"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"linarr was imported from {origin}, not from {src}")
    return lib


class InProcess:
    """Shared parts of the workloads that call the library directly.

    Every input is new to the process, so a traced unit draws new inputs
    too: the run alternates an untraced unit with a traced one, and
    both go into the digest.
    """

    name = ""
    make_units = None  # gen.*_units, set by each workload
    warm_primes: tuple = ()
    digest_ops = 100
    rusage = resource.RUSAGE_SELF
    ref_ms = reference.JOB_MS
    traced_repeats = False

    def __init__(self, root: Path):
        self.src = root / "src"
        self.lib = None
        self._units = None
        self.pending: list = []
        self.tracer = None
        self._trace = None

    def setup(self, seed: int):
        self.lib = import_library(self.src)
        self.tracer = None
        inputs = gen.Inputs(self.lib, seed, self.name)
        self._units = self.make_units(inputs)
        self.pending = []
        while sum(len(u) for u in self.pending) < self.digest_ops:
            self.pending.append(next(self._units))
        for p in self.warm_primes:
            self.lib.fqscan.PlaneEnumeration(p)

    def next_unit(self) -> list:
        return self.pending.pop(0) if self.pending else next(self._units)

    @staticmethod
    def reference() -> int:
        start = perf_counter_ns()
        reference.job()
        return perf_counter_ns() - start

    def traced_unit(self) -> list:
        """An untraced unit, then a traced unit: [(input, traced)]."""
        return [(x, False) for x in self.next_unit()] + [(x, True) for x in self.next_unit()]

    def traced_op(self, item):
        if self.tracer is None:  # after set-up, so that it wraps this import
            self.tracer = layers.Tracer()
        out, self._trace = self.tracer.call(self.op, item)
        return out

    def take_trace(self) -> dict:
        """Summary of the last traced op, folded outside its timed region."""
        return layers.Tracer.summarize(self._trace)

    def profile_items(self) -> list:
        return self.next_unit()

    def profile_op(self, item):
        """op(item) under cProfile: (output, scalar call counts)."""
        profile = cProfile.Profile()
        out = profile.runcall(self.op, item)
        return out, layers.scalar_counts(profile)


class CriteriaBattery(InProcess):
    name = "criteria_battery"
    make_units = staticmethod(gen.criteria_units)
    warm_primes = (5, 7)

    def op(self, A):
        return self.lib.freeness.run_criteria(A)

    def check(self, A, report):
        cert = report.certificate
        require(cert.b2 == A.char_poly().b2, "certificate b2 differs from chi")
        require(cert.d1 + cert.d2 == len(A), "exponents do not sum to |A|")
        require(cert.b2 >= cert.d1 * cert.d2, "b2 below d1*d2")
        require((cert.verdict == "free") == (cert.b2 == cert.d1 * cert.d2), "verdict disagrees with b2")
        require(len(report.entries) == 8, "criterion rows missing")
        for e in report.entries:
            if e.applicable and e.conclusion != "no-conclusion":
                require(e.conclusion == cert.verdict, f"{e.name} contradicts the exact verdict")
        return _row(
            str(A.field),
            len(A),
            cert.verdict,
            cert.d1,
            cert.d2,
            cert.b2,
            [e.as_record() for e in report.entries],
        )


class ExponentLadder(InProcess):
    name = "exponent_ladder"
    make_units = staticmethod(gen.ladder_units)

    def op(self, M):
        return self.lib.derivations.exponents(M)

    def check(self, M, e):
        d = self.lib.derivations
        require(e.d1 + e.d2 == M.size, "exponents do not sum to |m|")
        require(e.d1 <= e.d2, "exponents out of order")
        require((e.theta1.degree, e.theta2.degree) == (e.d1, e.d2), "witness degrees differ from the exponents")
        require(d.is_member(M, e.theta1) and d.is_member(M, e.theta2), "witness is not in D(M)")
        require(d.saito_verify(e.theta1, e.theta2, M), "witnesses fail Saito's criterion")
        return _row(str(M.field), M.h, M.size, list(M.mults), e.d1, e.d2)


class LatticePlane(InProcess):
    name = "lattice_plane"
    make_units = staticmethod(gen.lattice_units)
    warm_primes = (11, 13)

    def op(self, item):
        field, lines = item
        A = self.lib.arrangement.Arrangement(field, lines)
        if field.characteristic:
            fq = self.lib.fqscan
            return A, fq.line_spectrum(A), fq.complement_count(A)
        return A, A.char_poly().roots(), A.order_increasing(())

    def check(self, item, out):
        A, first, second = out
        chi = A.char_poly()
        n = len(A)
        require(n == len(item[1]), "lines lost in the build")
        # deletion-restriction on one member, with n_H recounted directly
        i = n // 2
        sub = A.sub_char_poly([j for j in range(n) if j != i])
        n_h = A.count_on_line(A.lines[i])
        require(n_h == A.n_counts[i], "n_H recount differs")
        require(chi.n == sub.n + 1 and chi.b2 == sub.b2 + n_h, "deletion-restriction fails")
        if A.field.characteristic:
            p = A.field.p
            require(sum(c for _, c in first.combined) == p * p + p, "spectrum does not cover the plane")
            require(sum(c for _, c in first.members) == n, "member bucket size")
            require(second == chi.eval(p), "complement count differs from chi(p)")
            return _row(str(A.field), n, chi.b2, first.members, first.externals, second)
        order, counts = second
        require(sorted(order) == list(range(n)), "order is not a permutation")
        require(list(counts) == sorted(counts), "order counts decrease")
        require(first.n == n and first.b2 == chi.b2, "roots of another polynomial")
        return _row(str(A.field), n, chi.b2, first.classification, str(first.low), str(first.high), order, counts)


# ------------------------------------------------------------ CLI processes


def child_report(proc, tag: str) -> dict:
    """The JSON that cli_child.py put on the `tag` line of standard error."""
    for line in reversed(proc.stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1 :])
    raise CheckFailed(f"child printed no {tag} line")


class FixtureCli:
    """Fresh `linarr` processes, one at a time, on the shipped fixtures.

    Interpreter start runs with -S: site hooks of the Python installation
    (such as a .pth file importing certifi) are not linarr's cost and
    differ between installations. A child process is free to run on any
    vCPU, so the host-speed reference is a child process too. Children
    start with empty caches, so the traced schedule runs each fixture
    twice, once plainly and once in a tracing child, and only the plain
    run goes into the digest.
    """

    name = "fixture_cli"
    digest_ops = 40  # two units
    rusage = resource.RUSAGE_CHILDREN
    ref_ms = reference.CHILD_MS
    traced_repeats = True

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(self.src.resolve())}
        self.expected: dict = {}
        self._rng = None
        self._trace = None

    def fixture_names(self) -> list[str]:
        folder = self.src / "linarr" / "fixtures"
        return sorted(p.name for p in folder.iterdir() if p.suffix in (".arr", ".marr"))

    def setup(self, seed: int):
        with open(FIXTURE_OUTPUTS, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        if sorted(self.expected) != self.fixture_names():
            raise RuntimeError("shipped fixtures differ from the recorded outputs")
        self._rng = random.Random(f"{self.name}:{seed}")
        # the per-process cost every operation pays: start and import
        subprocess.run([PYTHON, "-S", "-c", "import linarr.cli"], env=self.env, cwd=self.root, check=True)

    def next_unit(self) -> list:
        """Every shipped fixture once, in seeded order."""
        unit = self.fixture_names()
        self._rng.shuffle(unit)
        return unit

    def reference(self) -> int:
        start = perf_counter_ns()
        subprocess.run([PYTHON, "-S", str(HERE / "reference.py")], env=self.env, cwd=self.root, check=True)
        return perf_counter_ns() - start

    def traced_unit(self) -> list:
        """Every fixture plainly and traced, order alternating: [(name, traced)]."""
        out = []
        for k, name in enumerate(self.next_unit()):
            out += [(name, traced) for traced in ((False, True) if k % 2 == 0 else (True, False))]
        return out

    def traced_op(self, name):
        proc = self.run_child(name, "trace")
        self._trace = child_report(proc, "BENCH-TRACE")
        return proc

    def take_trace(self) -> dict:
        return self._trace

    def profile_items(self) -> list:
        return self.fixture_names()

    def profile_op(self, name):
        proc = self.run_child(name, "profile")
        return proc, child_report(proc, "BENCH-PROFILE")

    def argv(self, name: str) -> list[str]:
        command = "verify" if name.endswith(".arr") else "exponents"
        return [command, "--format", "json-lines", f"src/linarr/fixtures/{name}"]

    def run_child(self, name: str, mode: str | None = None):
        if mode is None:
            cmd = [PYTHON, "-S", "-m", "linarr.cli"]
        else:
            cmd = [PYTHON, "-S", str(HERE / "cli_child.py"), mode]
        return subprocess.run(
            cmd + self.argv(name), env=self.env, cwd=self.root, capture_output=True, timeout=150
        )

    def op(self, name):
        return self.run_child(name)

    def check(self, name, proc):
        want = self.expected[name]
        require(proc.returncode == want["exit"], f"{name}: exit {proc.returncode}")
        require(proc.stdout.decode("utf-8") == want["stdout"], f"{name}: stdout differs")
        return _row(name, proc.returncode, hashlib.sha256(proc.stdout).hexdigest())


WORKLOADS = {
    w.name: w for w in (FixtureCli, CriteriaBattery, ExponentLadder, LatticePlane)
}
