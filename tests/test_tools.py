"""The tools under tools/: src_lines.py counts code lines by the rule
ROADMAP's size figures use, cli_outputs.py runs commands the CLI accepts,
and cg_iterations.py counts every CG solve of a run."""

import importlib.util
from pathlib import Path

import nonlocfem
from nonlocfem import stepper
from nonlocfem.cli import _build_parser, _config_from_args

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


def test_cg_iterations_counts_every_solve(monkeypatch, capsys):
    # example3 at k = 3, n = 4 over 5 steps: the step-1 predictor and one
    # solve per step, each counted as a wrapper of the kernel installed
    # before the tool's sees it; the tool puts the kernel back
    tool = _tool("cg_iterations")
    argv = ["--case", "example3", "--k", "3", "--n", "4", "--delta", "0.02",
            "--t-end", "0.1"]
    seen = []
    kernel = stepper.cg_jacobi

    def recording(*args, **kwargs):
        x, iterations = kernel(*args, **kwargs)
        seen.append(iterations)
        return x, iterations
    monkeypatch.setattr(stepper, "cg_jacobi", recording)
    counts = tool.iteration_counts(
        _config_from_args(_build_parser().parse_args(["solve", *argv])))
    assert stepper.cg_jacobi is recording
    assert counts == seen and len(counts) == 6 and min(counts) > 0
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == tool.report(counts)
    assert tool.report([3, 1] + [0] * 19 + [4]) == (
        "solves: 22\ntotal iterations: 8\nmax iterations: 4\n"
        "first 20 solves: 4 iterations (50.0% of the total)\n")
    # a 1D run solves by banded Cholesky, with no CG solve
    assert tool.main(["--case", "example1", "--n", "8", "--delta", "0.1",
                      "--t-end", "0.2"]) == 0
    assert capsys.readouterr().out == tool.report([])
