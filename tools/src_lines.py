"""Print the raw and code lines of each module of src/nonlocfem, their
totals, and the number of names in the package's __all__.

Raw lines are all lines of a file. Code lines are the non-blank lines that
are neither comments (comment tokens alone on their line, found with
tokenize) nor docstrings (the string statement opening a module, class or
function, found with ast).

usage: python tools/src_lines.py [PACKAGE_DIR]   (default: src/nonlocfem)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nonlocfem"


def _docstring_lines(tree):
    """Line numbers covered by the docstrings of the module, its classes and
    its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    raw = source.splitlines()
    skip = _docstring_lines(ast.parse(source))
    code_tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code_tokens.update(range(tok.start[0], tok.end[0] + 1))
    code = sum(1 for i, line in enumerate(raw, 1)
               if line.strip() and i in code_tokens and i not in skip)
    return len(raw), code


def exported_names(source: str) -> int:
    """Number of names in the __all__ list of a package's __init__.py."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def main() -> int:
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total_raw = total_code = 0
    print(f"{'module':<18} {'raw':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        raw, code = count(path.read_text())
        total_raw += raw
        total_code += code
        print(f"{path.name:<18} {raw:>6} {code:>6}")
    print(f"{'total':<18} {total_raw:>6} {total_code:>6}")
    init = package / "__init__.py"
    if init.exists():
        print(f"__all__: {exported_names(init.read_text())} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
