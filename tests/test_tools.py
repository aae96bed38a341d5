"""The tools under tools/: src_lines.py counts code lines by the rule
ROADMAP's size figures use, and cli_outputs.py runs commands the CLI
accepts."""

import importlib.util
from pathlib import Path

import nonlocfem
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


def test_exported_names_match_the_package():
    # read from the source, so the tool counts another tree's package too
    tool = _tool("src_lines")
    source = '"""Doc."""\n__all__ = [\n    "a", "b",\n]\n'
    assert tool.exported_names(source) == 2
    source = (tool.PACKAGE / "__init__.py").read_text()
    assert tool.exported_names(source) == len(nonlocfem.__all__)


def test_every_cli_outputs_command_parses():
    # the tool adds --out-dir to each command that writes files; a command
    # the parser refuses exits 2 through SystemExit
    tool = _tool("cli_outputs")
    for argv in tool.COMMANDS.values():
        _build_parser().parse_args(tool.full_argv(argv))


def test_frozen_rows_command_is_the_failed_rows_ladder_under_warn():
    # the same sweep as sweep_failed_rows without its abort policy, so the
    # default warn policy freezes each row instead
    tool = _tool("cli_outputs")
    frozen = tool.COMMANDS["sweep_frozen_rows"]
    assert [*frozen, "--guard-policy", "abort"] == \
        tool.COMMANDS["sweep_failed_rows"]
    args = _build_parser().parse_args(tool.full_argv(frozen))
    assert args.guard_policy is None and args.kind == "h"
