"""Byte-for-byte CLI output on every shipped fixture.

tests/data/golden_cli.json maps each command line below to the exit code
and exact stdout it produced when the file was recorded: every
subcommand on every .arr fixture, and exponents on every .marr fixture.
Refactors of the criteria, lattice, restriction and CLI layers must
leave these bytes unchanged.

To regenerate the file (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from linarr.cli import main
from linarr.fixtures import fixture_names, fixture_path

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_cli.json"

ARR_FIXTURES = [name for name in fixture_names() if name.endswith(".arr")]
MARR_FIXTURES = [name for name in fixture_names() if name.endswith(".marr")]

COMMANDS = (
    ("chi",),
    ("roots",),
    ("spectrum",),
    ("ziegler",),
    ("ziegler", "--target", "member:0"),
    ("exponents",),
    ("exponents", "--target", "member:0"),
    ("free", "--target", "member:0"),
    ("criteria",),
    ("criteria", "--format", "json-lines"),
    ("free",),
    ("pair", "{file}", "0"),
    ("order",),
    ("order", "{file}", "--sub", "0", "1"),
    ("fq-count",),
    ("fq-spectrum",),
    ("verify", "--format", "json-lines"),
)

MARR_COMMANDS = (
    ("exponents",),
    ("exponents", "--format", "json-lines"),
)


def command_lines():
    for names, commands in ((ARR_FIXTURES, COMMANDS), (MARR_FIXTURES, MARR_COMMANDS)):
        for name in names:
            for command in commands:
                args = [name if a == "{file}" else a for a in command]
                if "{file}" not in command:
                    args.insert(1, name)
                yield tuple(args)


def replay(args) -> dict:
    argv = [str(fixture_path(a)) if a in ARR_FIXTURES + MARR_FIXTURES else a for a in args]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def _load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_arr_fixture():
    assert len(ARR_FIXTURES) == 16
    assert len(MARR_FIXTURES) == 4
    assert sorted(_load_golden()) == sorted(" ".join(a) for a in command_lines())


@pytest.mark.parametrize("args", list(command_lines()), ids=" ".join)
def test_cli_output_matches_golden(args):
    assert replay(args) == _load_golden()[" ".join(args)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {" ".join(args): replay(args) for args in command_lines()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
