"""The package's public names and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import linarr

# test-only helpers that the package no longer carries or exports
REMOVED = ("ExactMatrix", "rref", "rank", "kernel_basis", "graded_kernel_dim")

# modules the CLI does not need at start-up: dataclasses pulls in inspect,
# ast and dis, and json is loaded only for JSON output
NOT_AT_START = ("dataclasses", "inspect", "ast", "dis", "json")

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names_resolve_and_exclude_removed_api():
    assert all(hasattr(linarr, name) for name in linarr.__all__)
    namespace: dict = {}
    exec("from linarr import *", namespace)
    assert set(linarr.__all__) <= namespace.keys()
    assert not set(REMOVED) & (set(linarr.__all__) | set(dir(linarr)))


def test_cli_import_leaves_out_slow_modules():
    code = f"import sys, linarr.cli; print(*sorted(set(sys.modules) & set({NOT_AT_START!r})))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
