"""The README's CLI examples parse with the real parser, so removing or
renaming a flag fails here and not only in the docs."""

import shlex
from pathlib import Path

from migrate.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_commands() -> list[list[str]]:
    """Argument lists of the ``migrate ...`` lines in the README's CLI block,
    backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("migrate ")]


def test_readme_cli_examples_parse():
    commands = cli_commands()
    assert {argv[0] for argv in commands} == {"run", "sweep", "bootstrap"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
