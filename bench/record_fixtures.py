"""Record the fixture_cli reference outputs into fixture_outputs.json.

    python3 bench/record_fixtures.py

Runs the CLI command of every shipped fixture once, exactly as the
fixture_cli workload does, and stores its exit code and standard output.
Rerun only when a change is meant to alter the CLI's output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import FIXTURE_OUTPUTS, FixtureCli

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    cli = FixtureCli(ROOT)
    outputs = {}
    for name in cli.fixture_names():
        proc = cli.run_child(name)
        outputs[name] = {"argv": cli.argv(name), "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
        print(name, proc.returncode, file=sys.stderr)
    with open(FIXTURE_OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
