"""Which library functions the traced run wraps, and the per-layer metrics.

The layers are the library's modules. Every public function of each
module is wrapped, together with the few private functions and methods
that a metric needs: the RREF kernel that derivations imports by name,
the Arrangement constructor and edits, CharPoly.roots, and the plane
table cache. Span names are "<module>.<qualified name>".

Each metric carries the prediction it was chosen for: which end-to-end
metric it should move, on which workload. BENCHMARK.json lists the same
names in the same order (checked by selftest.py).
"""

from __future__ import annotations

import fractions
import pstats
import sys
from dataclasses import dataclass

from spans import ROOT_SPAN, Recorder, Summary, install, restore, wrappers

PACKAGE = "linarr"
LAYERS = ("exactalg", "arrangement", "derivations", "freeness", "fqscan", "cli")

EXTRA_TARGETS = {
    "exactalg": ("_rref_rows",),
    "arrangement": (
        "Arrangement.__init__",
        "Arrangement.delete",
        "Arrangement.add",
        "Arrangement.subarrangement",
        "Arrangement.count_on_line",
        "Arrangement.order_increasing",
        "CharPoly.roots",
    ),
    "fqscan": ("_plane_tables",),
}

CRITERIA = (
    "root_incidence",
    "deletion_pair",
    "addition",
    "bracketing_sub",
    "intermediate_search",
    "subfree",
    "root_gap",
    "small_exponent_sub",
)

# (metric prefix, module, attribute) of the library's lru_caches
CACHES = (
    ("derivations.exponents", "derivations", "exponents"),
    ("freeness.decide", "freeness", "_decide_free_cached"),
    ("fqscan.plane_tables", "fqscan", "_plane_tables"),
)


def _rref_cells(counters, args, result):
    rows, ncols = args[0], args[1]
    counters["rref_cells"] += len(rows) * ncols


def _points_built(counters, args, result):
    counters["points_built"] += len(args[0].points)


def _externals(counters, args, result):
    counters["externals"] += len(result)


def _conclusive(counters, args, result):
    if result.applicable and result.conclusion != "no-conclusion":
        counters["conclusive"] += 1


HOOKS = {
    "exactalg._rref_rows": _rref_cells,
    "arrangement.Arrangement.__init__": _points_built,
    "freeness.external_candidates": _externals,
    **{f"freeness.{name}": _conclusive for name in CRITERIA},
}


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr


def targets() -> list[tuple]:
    """(owner, attribute, span name, hook) for every loaded layer module."""
    out = []
    for layer in LAYERS:
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        names = list(_public_functions(module)) + list(EXTRA_TARGETS.get(layer, ()))
        for qualname in names:
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            span = f"{layer}.{qualname}"
            out.append((owner, attr, span, HOOKS.get(span)))
    return out


def cache_counts() -> dict:
    """Current hits and misses of the library caches that are loaded."""
    out = {}
    for prefix, layer, attr in CACHES:
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        info = vars(module)[attr].cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
    return out


class Tracer:
    """Span wrappers for every loaded target, made once, installed per call."""

    def __init__(self):
        self.recorder = Recorder()
        self.plan = wrappers(self.recorder, targets(), PACKAGE)

    def call(self, fn, *args):
        """fn(*args) under the wrappers: (result, raw trace for summarize())."""
        before = cache_counts()
        install(self.plan)
        self.recorder.enabled = True
        try:
            result = self.recorder.call(ROOT_SPAN, fn, args)
        finally:
            self.recorder.enabled = False
            restore(self.plan)
            spans, counters = self.recorder.drain()
        after = cache_counts()
        return result, (spans, counters, {k: v - before[k] for k, v in after.items()})

    @staticmethod
    def summarize(raw) -> dict:
        """A raw trace folded into Summary.to_json() form."""
        spans, counters, cache = raw
        summary = Summary()
        summary.add_spans(spans, counters)
        summary.cache.update(cache)
        return summary.to_json()


# ------------------------------------------------------------------ metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    value: object  # callable(Summary) -> float
    moves: str  # the end-to-end metric and workload it should move


def _per_op(x, s):
    return x / s.ops if s.ops else 0.0


def _calls(*spans):
    return lambda s: _per_op(sum(s.calls[n] for n in spans), s)


def _self_s(*spans):
    return lambda s: _per_op(sum(s.self_ns[n] for n in spans), s) / 1e9


def _counter(key):
    return lambda s: _per_op(s.counters[key], s)


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_frac(prefix):
    def value(s):
        hits, misses = s.cache[f"{prefix}.hits"], s.cache[f"{prefix}.misses"]
        return _ratio(hits, hits + misses)

    return value


def _degrees_scanned(s):
    scanned = s.nested["derivations.exponents|derivations.graded_kernel_dim"]
    return _ratio(scanned, s.cache["derivations.exponents.misses"])


def _conclusive_frac(s):
    calls = sum(s.calls[f"freeness.{n}"] for n in CRITERIA)
    return _ratio(s.counters["conclusive"], calls)


def _externals_per_call(s):
    return _ratio(s.counters["externals"], s.calls["freeness.external_candidates"])


def _profiled(key):
    """Per-op count from the separate cProfile pass."""
    return lambda s: _ratio(s.counters[key], s.counters["profile_ops"])


def scalar_counts(profile) -> dict:
    """Scalar multiplications and constructions seen by a cProfile pass.

    Fraction, Quad and Mod each count at their own level, so a Quad
    product also counts the Fraction products it is made of.
    """
    fractions_file = fractions.__file__
    exactalg_file = sys.modules[f"{PACKAGE}.exactalg"].__file__
    mul = new = 0
    for (filename, _, func), (_, calls, *_rest) in pstats.Stats(profile).stats.items():
        if filename == fractions_file:
            mul += calls if func == "_mul" else 0
            new += calls if func == "__new__" else 0
        elif filename == exactalg_file:
            mul += calls if func == "__mul__" else 0
            new += calls if func == "__init__" else 0
    return {"scalar_mul": mul, "scalar_new": new}


def _import_s(s):
    return _per_op(s.counters["import_ns"], s) / 1e9


def _trace_overhead(s):
    """Mean traced op time over mean untraced op time, minus one."""
    c = s.counters
    if not (c["traced_ops"] and c["untraced_ops"] and c["untraced_ns"]):
        return 0.0
    return (c["traced_ns"] / c["traced_ops"]) / (c["untraced_ns"] / c["untraced_ops"]) - 1


C = "count/op"
S = "s/op"
F = "frac"
EXP = "exponent_ladder throughput_ops_s and latency_p90_ms; fixture_cli latency_p90_ms; criteria_battery throughput_ops_s"
CRIT = "criteria_battery throughput_ops_s"
CLI_P90 = "fixture_cli latency_p90_ms"
LAT = "lattice_plane throughput_ops_s"

METRICS = (
    Metric("exactalg.rref_calls", C, "lower", _calls("exactalg._rref_rows"), EXP),
    Metric("exactalg.rref_cells", C, "lower", _counter("rref_cells"), EXP),
    Metric("exactalg.rref_s", S, "lower", _self_s("exactalg._rref_rows", "exactalg.rref"), EXP),
    Metric("exactalg.kernel_basis_calls", C, "lower", _calls("exactalg.kernel_basis"), EXP),
    Metric("exactalg.kernel_basis_s", S, "lower", _self_s("exactalg.kernel_basis"), EXP),
    Metric("exactalg.scalar_mul_calls", C, "lower", _profiled("scalar_mul"), EXP),
    Metric("exactalg.scalar_new_calls", C, "lower", _profiled("scalar_new"), EXP),
    Metric("arrangement.build_calls", C, "lower", _calls("arrangement.Arrangement.__init__"), f"{CRIT}; {LAT}"),
    Metric("arrangement.build_s", S, "lower", _self_s("arrangement.Arrangement.__init__"), f"{CRIT}; {LAT}"),
    Metric("arrangement.points_built", C, "lower", _counter("points_built"), f"{CRIT}; {LAT}"),
    Metric(
        "arrangement.rebuild_calls",
        C,
        "lower",
        _calls("arrangement.Arrangement.delete", "arrangement.Arrangement.add", "arrangement.Arrangement.subarrangement"),
        CRIT,
    ),
    Metric("arrangement.roots_calls", C, "lower", _calls("arrangement.CharPoly.roots"), CRIT),
    Metric("arrangement.roots_s", S, "lower", _self_s("arrangement.CharPoly.roots"), CRIT),
    Metric("arrangement.count_on_line_calls", C, "lower", _calls("arrangement.Arrangement.count_on_line"), f"{CRIT}; {LAT}"),
    Metric("arrangement.count_on_line_s", S, "lower", _self_s("arrangement.Arrangement.count_on_line"), f"{CRIT}; {LAT}"),
    Metric("arrangement.order_increasing_s", S, "lower", _self_s("arrangement.Arrangement.order_increasing"), LAT),
    Metric(
        "arrangement.parse_s",
        S,
        "lower",
        _self_s("arrangement.parse_arrangement", "arrangement.load_arrangement", "arrangement.parse_body", "arrangement.scalar_at"),
        "fixture_cli latency_p50_ms",
    ),
    Metric("arrangement.format_s", S, "lower", _self_s("arrangement.format_arrangement"), "fixture_cli latency_p50_ms"),
    Metric("derivations.restriction_calls", C, "lower", _calls("derivations.ziegler_restriction"), CRIT),
    Metric("derivations.restriction_s", S, "lower", _self_s("derivations.ziegler_restriction"), CRIT),
    Metric("derivations.exponents_calls", C, "lower", _calls("derivations.exponents"), EXP),
    Metric("derivations.exponents_s", S, "lower", _self_s("derivations.exponents"), EXP),
    Metric("derivations.exponents_cache_hit_frac", F, "higher", _hit_frac("derivations.exponents"), f"{CRIT}; criteria_battery peak_rss_mb"),
    Metric("derivations.kernel_dim_calls", C, "lower", _calls("derivations.graded_kernel_dim"), EXP),
    Metric("derivations.kernel_dim_s", S, "lower", _self_s("derivations.graded_kernel_dim"), EXP),
    Metric("derivations.degrees_scanned_per_exponents", "count/call", "lower", _degrees_scanned, EXP),
    Metric("derivations.graded_kernel_calls", C, "lower", _calls("derivations.graded_kernel"), EXP),
    Metric("derivations.graded_kernel_s", S, "lower", _self_s("derivations.graded_kernel"), EXP),
    Metric("derivations.saito_calls", C, "lower", _calls("derivations.saito_verify"), EXP),
    Metric("derivations.saito_s", S, "lower", _self_s("derivations.saito_verify"), EXP),
    Metric("freeness.decide_calls", C, "lower", _calls("freeness.decide_free"), f"{CRIT}; {CLI_P90}"),
    Metric("freeness.decide_s", S, "lower", _self_s("freeness.decide_free"), f"{CRIT}; {CLI_P90}"),
    Metric("freeness.decide_cache_hit_frac", F, "higher", _hit_frac("freeness.decide"), f"{CRIT}; criteria_battery peak_rss_mb"),
    Metric("freeness.run_criteria_self_s", S, "lower", _self_s("freeness.run_criteria"), "criteria_battery throughput_ops_s and latency_p50_ms"),
    *(
        Metric(f"freeness.{name}_s", S, "lower", _self_s(f"freeness.{name}"), "criteria_battery throughput_ops_s and latency_p50_ms")
        for name in CRITERIA
    ),
    Metric("freeness.criterion_calls", C, "lower", _calls(*(f"freeness.{n}" for n in CRITERIA)), CRIT),
    Metric("freeness.conclusive_frac", F, "higher", _conclusive_frac, CRIT),
    Metric("freeness.external_candidates_calls", C, "lower", _calls("freeness.external_candidates"), f"{CRIT}; {CLI_P90}"),
    Metric("freeness.external_candidates_s", S, "lower", _self_s("freeness.external_candidates"), f"{CRIT}; {CLI_P90}"),
    Metric("freeness.externals_per_call", "count/call", "lower", _externals_per_call, CRIT),
    Metric("freeness.root_window_s", S, "lower", _self_s("freeness.verify_root_window"), CLI_P90),
    Metric("fqscan.plane_tables_s", S, "lower", _self_s("fqscan._plane_tables"), "lattice_plane setup_s"),
    Metric("fqscan.plane_tables_cache_hit_frac", F, "higher", _hit_frac("fqscan.plane_tables"), "lattice_plane setup_s"),
    Metric("fqscan.line_spectrum_calls", C, "lower", _calls("fqscan.line_spectrum"), LAT),
    Metric("fqscan.line_spectrum_s", S, "lower", _self_s("fqscan.line_spectrum"), LAT),
    Metric("fqscan.complement_count_s", S, "lower", _self_s("fqscan.complement_count", "fqscan.complement_points"), LAT),
    Metric("fqscan.order_criteria_s", S, "lower", _self_s("fqscan.order_root", "fqscan.order_minus_one_root"), CLI_P90),
    Metric(
        "fqscan.finite_bounds_s",
        S,
        "lower",
        _self_s("fqscan.finite_exponent_bounds", "fqscan.frobenius_derivation"),
        CLI_P90,
    ),
    Metric("cli.import_s", S, "lower", _import_s, "fixture_cli latency_p50_ms"),
    Metric("cli.main_s", S, "lower", _self_s("cli.main"), "fixture_cli latency_p50_ms"),
    Metric("cli.run_verify_self_s", S, "lower", _self_s("cli.run_verify"), "fixture_cli latency_p50_ms"),
    Metric("trace_overhead_frac", F, "lower", _trace_overhead, "none: cost of tracing itself"),
)


def layer_shares(s) -> dict:
    """Share of traced op time spent in each layer's own code."""
    total = s.op_ns or 1
    shares = {}
    for layer in LAYERS:
        ns = sum(v for k, v in s.self_ns.items() if k.startswith(layer + "."))
        shares[layer] = round(ns / total, 4)
    return shares
