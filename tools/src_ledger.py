"""Print every function of src/scatsig that no run of tools/artifact_hashes.py enters.

A call tracer goes in before scatsig is imported. Then every run of
artifact_hashes' RUNS, its CONFIGS among them, goes through
``scatsig.cli.main`` in this one process, in a temporary directory, with
one thread as there. A function counts as entered when its code runs at
least once. Methods and nested functions are listed by qualified name,
each with its span in lines; the total counts an unentered function
nested in another unentered one only once. It takes no options:

    python tools/src_ledger.py
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import artifact_hashes

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scatsig"


def functions(path):
    """(first line, qualified name, span, enclosing function's first line) per function of a module.

    The first line is the first decorator's, as in the function's code object.
    """
    found = []

    def walk(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name, child.end_lineno - first + 1, outer))
                walk(child, prefix + child.name + ".", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", outer)
            else:
                walk(child, prefix, outer)

    walk(ast.parse(path.read_text()), "", None)
    return found


def main():
    entered = set()

    def tracer(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    os.environ.update(SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    from scatsig import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for label, argv in artifact_hashes.write_inputs(tmp).items():
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"src_ledger: run {label} failed")
        finally:
            os.chdir(cwd)
            sys.settrace(None)

    count = total = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines += len(path.read_text().splitlines())
        found = functions(path)
        missed = {first for first, *_ in found if (str(path), first) not in entered}
        for first, name, span, outer in found:
            if first in missed:
                print(f"{path.stem}.{name}  ({span} lines, from line {first})")
                count += 1
                total += 0 if outer in missed else span
    print(f"{count} functions never entered, {total} lines by function span, "
          f"of {lines} lines in {PACKAGE.name}")


if __name__ == "__main__":
    main()
