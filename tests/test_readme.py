"""The README's examples run as written.

The "Library use" block must print the values its comments give, and
each `tdual ...` line of the "Command line" block must exit 0 through
cli.main.  `tables R32` stands in for the `R2|R32|E32|homotopy`
placeholder; `run jobs.json` is left out because it needs a job file.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from tdual import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands():
    for line in _block("Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["tdual"] and argv[1] != "run":
            yield [a.replace("R2|R32|E32|homotopy", "R32") for a in argv[1:]]


def test_library_use_prints_the_commented_values():
    code = _block("Library use", "python")
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert len(want) == 3
    assert out.getvalue().splitlines() == want


@pytest.mark.parametrize("argv", list(_commands()), ids=" ".join)
def test_command_line_example_exits_0(argv):
    assert cli.main(argv, out=io.StringIO()) == cli.EXIT_OK
