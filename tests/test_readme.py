"""The README's examples stay runnable: every `graphalign ...` command in its
`sh` blocks parses, and its Python block imports only exported names.
Parsing only: no command runs and no file a command names is read."""

import ast
import re
import shlex
from pathlib import Path

import graphalign
from graphalign.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def _commands() -> list[list[str]]:
    """Each `graphalign` line of the sh blocks, continuation lines joined, as argv."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["graphalign"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = _commands()
    assert len(commands) >= 5
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(f"README command does not parse: graphalign {shlex.join(argv)}"
                                 ) from exc


def test_readme_python_imports_are_exported():
    names = [alias.name for block in _blocks("python") for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "graphalign"
             for alias in node.names]
    assert names
    unexported = sorted(set(names) - set(graphalign.__all__))
    assert not unexported, f"the README imports names graphalign does not export: {unexported}"
