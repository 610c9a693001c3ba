"""Self-tests of the benchmark itself (not of linarr).

    python3 bench/selftest.py

Checks that the generators are deterministic per seed and never repeat
an input, that the tracing wrappers leave the library exactly as they
found it, that a disabled recorder adds no spans, that self times are
computed from parent links, and that BENCHMARK.json names the metrics
run.py prints.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Summary, install, restore, wrappers  # noqa: E402

LIB = workloads.import_library(ROOT / "src")
GENERATORS = {  # units and the key that tells inputs apart
    "criteria_battery": (gen.criteria_units, gen.arrangement_key),
    "exponent_ladder": (gen.ladder_units, gen.multiarrangement_key),
    "lattice_plane": (gen.lattice_units, gen.lattice_key),
}


def _units(name, seed, count):
    units = GENERATORS[name][0](gen.Inputs(LIB, seed, name))
    return [next(units) for _ in range(count)]


def _keys(name, seed, count):
    key = GENERATORS[name][1]
    return [[key(x) for x in unit] for unit in _units(name, seed, count)]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in GENERATORS:
            a = _keys(name, 11, 2)
            b = _keys(name, 11, 2)
            c = _keys(name, 12, 2)
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_no_repeats_within_a_run(self):
        for name in GENERATORS:
            keys = [k for unit in _keys(name, 5, 6) for k in unit]
            self.assertEqual(len(keys), len(set(keys)), name)

    def test_generators_keep_digests_not_inputs(self):
        inputs = gen.Inputs(LIB, 4, "criteria_battery")
        next(gen.criteria_units(inputs))
        self.assertTrue(inputs.seen)
        self.assertTrue(all(isinstance(k, bytes) for k in inputs.seen))

    def test_units_have_fixed_shapes(self):
        first, second = _units("lattice_plane", 3, 2)
        shape = lambda u: sorted((str(field), len(lines)) for field, lines in u)  # noqa: E731
        self.assertEqual(shape(first), shape(second))


def _snapshot():
    """Identity of every attribute of the library's modules and classes."""
    out = {}
    for key, module in sys.modules.items():
        if key == "linarr" or key.startswith("linarr."):
            for attr, value in vars(module).items():
                out[(key, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == key:
                    for cattr, cvalue in vars(value).items():
                        out[(key, attr, cattr)] = id(cvalue)
    return out


class TracingTests(unittest.TestCase):
    def test_wrappers_restored_and_outputs_unchanged(self):
        A = _units("criteria_battery", 21, 1)[0][0]
        before = _snapshot()
        tracer = layers.Tracer()
        self.assertEqual(_snapshot(), before)  # made, not yet installed
        install(tracer.plan)
        self.assertNotEqual(_snapshot(), before)
        restore(tracer.plan)
        self.assertEqual(_snapshot(), before)
        traced, raw = tracer.call(LIB.freeness.run_criteria, A)
        self.assertEqual(_snapshot(), before)
        self.assertTrue(raw[0])
        self.assertEqual(layers.Tracer.summarize(raw)["ops"], 1)
        plain = LIB.freeness.run_criteria(A)
        self.assertEqual(
            [e.as_record() for e in traced.entries], [e.as_record() for e in plain.entries]
        )

    def test_aliases_are_wrapped(self):
        decide_free = LIB.freeness.decide_free
        exponents = LIB.derivations.exponents
        plan = wrappers(Recorder(), layers.targets(), layers.PACKAGE)
        install(plan)
        try:
            self.assertIs(LIB.fqscan.decide_free.__wrapped__, decide_free)
            self.assertIs(LIB.freeness.exponents.__wrapped__, exponents)
            self.assertIs(LIB.fqscan.exponents, LIB.derivations.exponents)
        finally:
            restore(plan)

    def test_disabled_recorder_adds_no_spans(self):
        recorder = Recorder()
        plan = wrappers(recorder, layers.targets(), layers.PACKAGE)
        install(plan)
        try:
            for A in _units("criteria_battery", 8, 1)[0][:3]:
                LIB.freeness.run_criteria(A)
        finally:
            restore(plan)
        self.assertEqual(recorder.spans, [])
        self.assertEqual(sum(recorder.counters.values()), 0)

    def test_self_time_subtracts_children(self):
        spans = [
            (1, 0, "bench.op", 0, 100),
            (2, 1, "a", 10, 60),
            (3, 2, "b", 20, 30),
            (4, 1, "b", 70, 90),
        ]
        s = Summary()
        s.add_spans(spans, {})
        self.assertEqual(s.self_ns, {"bench.op": 30, "a": 40, "b": 30})
        self.assertEqual(s.nested["a|b"], 1)
        self.assertEqual((s.ops, s.op_ns), (1, 100))
        self.assertEqual(sum(s.self_ns.values()), s.op_ns)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [m["name"] for m in spec["per_layer"]], [m.name for m in layers.METRICS]
        )
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["per_layer"]},
            {(m.name, m.unit) for m in layers.METRICS},
        )
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["end_to_end"]}, set(run.E2E_UNITS.items())
        )
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
