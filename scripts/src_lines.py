#!/usr/bin/env python3
"""Count the lines of each module of src/mlvariety by kind, with totals.

Every line gets one kind.  A docstring line is a line of a module, class or
function docstring, blank lines inside it included.  A comment line holds a
comment and no code; a line with code and a trailing comment is code.  A
blank line holds only whitespace outside a docstring.  Every other line is
code, the lines of other multi-line strings included.  So the four counts of
a module sum to its line count.

Run it from anywhere; it counts the package of its own checkout:

    python scripts/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlvariety"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> dict[str, int]:
    """{kind: lines} of one Python file, over KINDS."""
    text = path.read_text()
    docstring = _docstring_lines(ast.parse(text))
    kind_of: dict[int, str] = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        kind = "comment" if tok.type == tokenize.COMMENT else "code"
        for line in range(tok.start[0], tok.end[0] + 1):
            if kind_of.get(line) != "code":
                kind_of[line] = kind
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(text.splitlines()) + 1):
        counts["docstring" if line in docstring else kind_of.get(line, "blank")] += 1
    return counts


def main() -> None:
    rows = [(path.name, count_lines(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'lines':>11}")
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS)
              + f"{sum(counts.values()):>11,}")


if __name__ == "__main__":
    main()
