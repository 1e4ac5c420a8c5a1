"""The README's command-line examples, run through cli.run.

Each `$ permderiv ...` line of the "Command line" block must print the
lines that follow it, where a `...` line stands for any run of lines.
"""
import re
import shlex
from pathlib import Path

import pytest

from permderiv import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ permderiv "):
            examples.append((line[len("$ permderiv "):], []))
        elif examples:
            examples[-1][1].append(line)
    return [(command, "\n".join(expected).strip("\n")) for command, expected in examples]


EXAMPLES = _examples()


def _pattern(expected: str) -> re.Pattern:
    return re.compile("".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                              for line in expected.split("\n")))


def test_the_command_line_block_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = cli.run(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert _pattern(expected).fullmatch(captured.out), captured.out
