"""Seeded end-to-end benchmark for linarr, with per-layer tracing.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the checkout's src/ directory. The seed
fixes every input; the program sees only the generated inputs. One
client runs a closed loop, one operation in flight at a time, over whole
units of inputs until the operations have taken --seconds of time and
the digest window is full. Every output is checked outside the timed
region.

--trace 0 prints the end-to-end metrics. Each operation is timed next
to the host-speed reference of bench/reference.py, and timings are
reported in units of the reference, converted to milliseconds with its
nominal time (see Run.end_to_end). --trace 1 runs the workload's traced
schedule, where traced operations run under span-recording wrappers
installed for that operation only, then makes one cProfile pass for the
scalar call counts, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is a report
with the run's environment, sample counts, layer shares and
output_digest: the SHA-256 of the output rows of the first digest_ops
operations of the workload, equal between runs and commits that compute
the same results for the same seed. A run that reaches WALL_CAP_S before
its digest window is full counts as failed. Exits 2 without a result
when the checkout has no linarr sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import layers
from spans import Summary
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 15
MIN_OPS = 100  # so that at least ten ops lie beyond p90
WALL_CAP_S = 120
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """Closed-loop measurement of one workload."""

    def __init__(self, workload, seconds: int):
        self.wl = workload
        self.budget_ns = seconds * 1_000_000_000
        self.latencies: list[int] = []
        self.busy_ns = 0
        self.failed = 0
        self.extra_attempts = 0
        self.digest = hashlib.sha256()
        self.digested = 0
        self.peak_rss_kb = None
        self.start = perf_counter()
        self.summary = Summary()
        self.units: list[list[float]] = []  # op times of each whole unit, in references

    def done(self) -> bool:
        if perf_counter() - self.start > WALL_CAP_S:
            return True
        enough = len(self.latencies) >= MIN_OPS and self.digested >= self.wl.digest_ops
        return enough and self.busy_ns >= self.budget_ns

    def one(self, item, call, digest: bool = True):
        """Time call(item), check its output, and return (ns, output)."""
        out = error = None
        start = perf_counter_ns()
        try:
            out = call(item)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        elapsed = perf_counter_ns() - start
        if error is None:
            try:
                row = self.wl.check(item, out)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            traceback.print_exception(error, file=sys.stderr)
            row = f"failed {type(error).__name__}"
        if digest and self.digested < self.wl.digest_ops:
            self.digest.update(row.encode("utf-8") + b"\n")
            self.digested += 1
            if self.digested == self.wl.digest_ops:
                # after a fixed amount of work, however fast it ran
                self.peak_rss_kb = resource.getrusage(self.wl.rusage).ru_maxrss
        self.latencies.append(elapsed)
        self.busy_ns += elapsed
        return elapsed, (out if error is None else None)

    def check_window(self):
        if self.digested < self.wl.digest_ops:
            self.failed += 1
            print(f"error: {WALL_CAP_S} s passed with {self.digested} of {self.wl.digest_ops} digest ops", file=sys.stderr)

    # ---------------------------------------------------------- untraced

    def plain(self):
        """Whole units; each op in references, the mean of those on either side."""
        ref_before = self.wl.reference()
        while not self.done():
            unit = []
            for item in self.wl.next_unit():
                elapsed = self.one(item, self.wl.op)[0]
                ref_after = self.wl.reference()
                unit.append(2 * elapsed / (ref_before + ref_after))
                ref_before = ref_after
            self.units.append(unit)
        self.check_window()

    # ---------------------------------------------------------- traced

    def traced(self):
        """The workload's traced schedule, then the profile pass."""
        while not self.done():
            for item, traced in self.wl.traced_unit():
                if not traced:
                    self._count("untraced", self.one(item, self.wl.op)[0])
                    continue
                elapsed, out = self.one(item, self.wl.traced_op, digest=not self.wl.traced_repeats)
                self._count("traced", elapsed)
                if out is not None:
                    self.summary.merge(self.wl.take_trace())
        self.check_window()
        self._profile_pass()

    def _count(self, kind: str, elapsed: int):
        self.summary.counters[f"{kind}_ns"] += elapsed
        self.summary.counters[f"{kind}_ops"] += 1

    def _profile_pass(self):
        """Exact scalar call counts from cProfile, on ops outside the timed loop."""
        counters = self.summary.counters
        for item in self.wl.profile_items():
            self.extra_attempts += 1
            try:
                out, counts = self.wl.profile_op(item)
                self.wl.check(item, out)
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            counters.update(counts)
            counters["profile_ops"] += 1

    # ---------------------------------------------------------- results

    def end_to_end(self, setup_refs: list[float]) -> dict:
        """Timings in references, converted to ms at the reference's nominal time.

        On a shared host the same code runs up to 2x slower from one
        second to the next; the reference timed beside each op slows
        down with it, so op time over reference time stays put.
        """
        ops = [t for unit in self.units for t in unit]
        ref_ms = self.wl.ref_ms
        values = {
            "setup_s": statistics.median(setup_refs) * ref_ms / 1e3,
            "throughput_ops_s": len(ops) / (sum(ops) * ref_ms / 1e3),
            "latency_p50_ms": statistics.median(ops) * ref_ms,
            "latency_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8] * ref_ms,
            "peak_rss_mb": (self.peak_rss_kb or 0) / 1024,
        }
        return {k: (v, E2E_UNITS[k]) for k, v in values.items()}

    def per_layer(self) -> dict:
        return {m.name: (m.value(self.summary), m.unit) for m in layers.METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "linarr" / "__init__.py").is_file():
        print(f"error: no linarr sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # One vCPU for the benchmark, its children and its reference job: on a
    # shared host the vCPUs run at different speeds, and the reference
    # tracks only the speed of the vCPU it runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    workload = WORKLOADS[args.workload](ROOT)
    setup_refs = []  # set-up times in references, as for the ops
    ref_before = workload.reference()
    for _ in range(SETUPS):
        start = perf_counter_ns()
        workload.setup(args.seed)
        elapsed = perf_counter_ns() - start
        ref_after = workload.reference()
        setup_refs.append(2 * elapsed / (ref_before + ref_after))
        ref_before = ref_after

    run = Run(workload, args.seconds)
    if args.trace:
        run.traced()
        metrics = run.per_layer()
    else:
        run.plain()
        metrics = run.end_to_end(setup_refs)

    attempted = len(run.latencies) + run.extra_attempts
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "ops": len(run.latencies),
        "failed_ops_frac": run.failed / attempted,
        "output_digest": run.digest.hexdigest(),
        "digest_ops": run.digested,
        "samples": {"ops": len(run.latencies), "units": len(run.units), "setup_s": SETUPS},
        "unit_ms": [round(sum(u) * workload.ref_ms, 1) for u in run.units],
        "busy_s": round(run.busy_ns / 1e9, 3),
        "wall_s": round(perf_counter() - run.start, 3),
    }
    if args.trace:
        c = run.summary.counters
        report["samples"].update(
            traced_ops=run.summary.ops, untraced_ops=c["untraced_ops"], profile_ops=c["profile_ops"]
        )
        report["layer_shares"] = layers.layer_shares(run.summary)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
