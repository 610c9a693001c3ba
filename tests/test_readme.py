"""The README's examples, replayed: every `$ linarr ...` example whose
shown output is complete, and the Library snippet."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from linarr.cli import main
from linarr.fixtures import fixture_names, fixture_path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _examples():
    """(argv, expected stdout lines) per `$ linarr` example; each runs
    to the next blank line. Examples with elided output are left out."""
    out = []
    for block in README.split("\n\n"):
        lines = block.strip("`\n").splitlines()
        if not lines or not lines[0].startswith("$ linarr "):
            continue
        shown = lines[1:]
        if "..." not in shown:
            out.append((lines[0].removeprefix("$ linarr ").split(), shown))
    return out


EXAMPLES = _examples()


def test_readme_has_complete_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_example(argv, shown, capsys):
    names = set(fixture_names())
    argv = [str(fixture_path(a)) if a in names else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_library_snippet():
    library = README.split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    # x, y and x - y meet in one triple point that x + 3y = 1 misses:
    # chi = t^2 - 4t + 5 has complex roots, and the restriction is (1, 3)
    lines = out.getvalue().splitlines()
    assert (lines[0], len(lines), lines[-1]) == ("not-free None", 10, "(1, 3)")
