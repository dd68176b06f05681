"""Count the code lines of the kdvgauge package, per module.

Usage, from the root of a checkout:

    python3 tools/src_lines.py [REV]

A code line of `src/kdvgauge/*.py` is one that is not blank, not a `#`
comment and not part of a docstring (the string that opens a module, class
or function body, found with `ast`).  Prints each module's count and the
total for the working tree.  With REV, the same counts of REV's tree, which
is exported with `git archive` into a temporary directory, are printed
beside them with the difference.  Exits 0; the counts are information, not
a gate.
"""

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/kdvgauge"
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The lines of one module's source that are code."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(text.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.strip().startswith("#")
    )


def counts(package: Path) -> dict:
    """module name -> code lines, for every module of `package`."""
    return {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def exported_counts(rev: str) -> dict:
    """`counts` of the package in the committed tree of `rev`."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, PACKAGE], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory(prefix="src_lines_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tmp, filter="data")
        return counts(Path(tmp) / PACKAGE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~")
    args = ap.parse_args(argv)
    now = counts(ROOT / PACKAGE)
    if args.rev is None:
        for name, lines in now.items():
            print(f"{name:14s} {lines:6d}")
        print(f"{'total':14s} {sum(now.values()):6d}")
        return 0
    then = exported_counts(args.rev)
    print(f"{'module':14s} {args.rev[:12]:>12s} {'tree':>6s} {'change':>7s}")
    for name in sorted(now.keys() | then.keys()):
        old, new = then.get(name, 0), now.get(name, 0)
        print(f"{name:14s} {old:12d} {new:6d} {new - old:+7d}")
    old, new = sum(then.values()), sum(now.values())
    print(f"{'total':14s} {old:12d} {new:6d} {new - old:+7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
