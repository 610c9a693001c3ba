"""Child process for the traced and profiled fixture_cli operations.

    python3 -S bench/cli_child.py trace|profile <linarr CLI arguments>

Runs linarr's CLI like `python3 -m linarr.cli` does: standard output and
the exit code are the CLI's own. It then appends one line to standard
error, "BENCH-TRACE <json>" with the span summary of the run (as
spans.Summary.to_json) or "BENCH-PROFILE <json>" with the scalar call
counts of a cProfile pass. The library comes from PYTHONPATH.
"""

from __future__ import annotations

import cProfile
import json
import sys
from time import perf_counter_ns


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter_ns()
    import linarr.cli

    import_ns = perf_counter_ns() - start
    import linarr.fqscan  # noqa: F401  (loaded up front so that it is wrapped too)

    import layers

    if mode == "profile":
        profile = cProfile.Profile()
        code = profile.runcall(linarr.cli.main, argv)
        line = "BENCH-PROFILE " + json.dumps(layers.scalar_counts(profile))
    else:
        code, raw = layers.Tracer().call(linarr.cli.main, argv)
        summary = layers.Tracer.summarize(raw)
        summary["counters"]["import_ns"] = import_ns
        line = "BENCH-TRACE " + json.dumps(summary)
    sys.stdout.flush()
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
