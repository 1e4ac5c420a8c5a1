"""The README's command-line examples, run through cli.run, and its figures.

Each `$ permderiv ...` line of the "Command line" block must print the
lines that follow it, where a `...` line stands for any run of lines.  The
worked-example count, the caps table and the two property lists must equal
what the program has.
"""
import re
import shlex
from pathlib import Path

import pytest

from permderiv import cli, search, verify

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


def test_worked_example_count_is_the_programs():
    replays = re.findall(r"replays (\d+) worked examples", README.read_text())
    assert replays == [str(len(verify.WORKED_EXAMPLES))]


def _cap(text: str, collect: bool) -> int:
    """The largest order search takes for the property text, listed when collect."""
    def takes(n):
        try:
            search._checked(text, n, collect)
        except ValueError:
            return False
        return True
    return max(n for n in range(1, search.MAX_SEARCH_ORDER + 2) if takes(n))


def _caps_table() -> dict[str, tuple[str, str]]:
    rows = re.findall(r"^\| `([^`]+)` +\| ([^|]+?) +\| ([^|]+?) +\|$", README.read_text(), re.M)
    return {name: (count, listed) for name, count, listed in rows}


def test_caps_table_is_the_enforced_order_limits():
    table = _caps_table()
    assert sorted(table) == sorted(search.PROPERTY_FORMS)
    for name, cells in table.items():
        if name != "k-costas=K":
            assert cells == (str(_cap(name, False)), str(_cap(name, True))), name
            continue
        for cell, collect in zip(cells, (False, True)):
            k_above_0, k_0 = map(int, re.fullmatch(r"(\d+) \((\d+) at K = 0\)", cell).groups())
            assert _cap("k-costas=0", collect) == k_0
            assert {_cap(f"k-costas={k}", collect) for k in range(1, k_above_0)} == {k_above_0}


def _listed(start: str, end: str) -> list[str]:
    """The backquoted names from start up to the first end after it."""
    text = README.read_text().split(start, 1)[1].split(end, 1)[0]
    return re.findall(r"`([^`]+)`", text)


def test_check_properties_are_the_registry_in_order():
    assert _listed("Check properties:", ".\n") == list(search.PROPERTIES)


def test_searchable_properties_are_the_property_forms():
    assert _listed("Searchable properties (`count`, `enumerate`, `table`):", ";") == list(search.PROPERTY_FORMS)
