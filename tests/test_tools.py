"""tools/src_lines.py counts code lines by the rule ROADMAP's size figures use."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module\n docstring."""\n\n# a comment\nX = 1  # counted\n'
              'S = """a string\nthat is not a docstring"""\n\n\n'
              'class C:\n    """Class docstring."""\n\n'
              '    def f(self):\n        """Method\n        docstring."""\n'
              '        return (1,\n                2)\n')
    assert _src_lines().count(source) == (17, 7)
