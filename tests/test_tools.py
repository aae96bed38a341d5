"""The tools under tools/: src_lines.py counts code lines by the rule
ROADMAP's size figures use, and cli_outputs.py runs commands the CLI
accepts."""

import importlib.util
from pathlib import Path

from nonlocfem.cli import _build_parser

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module\n docstring."""\n\n# a comment\nX = 1  # counted\n'
              'S = """a string\nthat is not a docstring"""\n\n\n'
              'class C:\n    """Class docstring."""\n\n'
              '    def f(self):\n        """Method\n        docstring."""\n'
              '        return (1,\n                2)\n')
    assert _tool("src_lines").count(source) == (17, 7)


def test_every_cli_outputs_command_parses():
    # the tool adds --out-dir to each command it runs; a command the parser
    # refuses exits 2 through SystemExit
    for argv in _tool("cli_outputs").COMMANDS.values():
        _build_parser().parse_args([*argv, "--out-dir", "out"])
