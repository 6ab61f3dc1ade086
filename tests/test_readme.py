"""The README's examples run as written: the python block under
"## Quickstart", and each command of the sh block under "## Command line"
through ``cli.main``, the function that the ``reset-sde`` entry point calls."""
import pathlib
import re
import shlex

from reset_sde import cli

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def block(heading, lang):
    """The first ``lang`` code block under ``heading``."""
    section = README.split("\n" + heading + "\n", 1)[1]
    return re.search("```" + lang + "\n(.*?)```", section, re.S).group(1)


def test_quickstart():
    exec(block("## Quickstart", "python"), {})


def test_command_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = block("## Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert commands
    for argv in commands:
        assert argv[0] == "reset-sde" and cli.main(argv[1:]) == 0, argv
