"""Count the code lines of a package's Python modules.

    python3 tools/code_lines.py DIRECTORY

A code line is a line that holds at least one token other than a comment:
blank lines, comment-only lines and the lines of docstrings (the leading
string literal of a module, class or function body) are not counted.  A
line inside any other multi-line token, such as a string that is not a
docstring, counts.  Prints one line per ``*.py`` file under DIRECTORY, in
sorted path order, with its count and its path relative to DIRECTORY, then
the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

#: tokens that carry no code by themselves
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(args.directory)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
