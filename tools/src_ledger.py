"""List every function of src/scatsig that no run of tools/artifact_hashes.py enters.

A call tracer goes in before scatsig is imported. Then every run of
artifact_hashes' RUNS, its CONFIGS among them, goes through
``scatsig.cli.main`` in this one process, in a temporary directory, with
one thread as there. A function counts as entered when its code runs at
least once. Methods and nested functions are listed by qualified name,
each with its span in lines; the total counts an unentered function
nested in another unentered one only once.

``src/`` holds only what a command runs, except the functions in
ALLOWED, each kept by the owner named there. Each unentered function
is printed with its owner, and the script exits 1 if one is not in
ALLOWED, or if an ALLOWED one is entered or gone. It takes no options:

    python tools/src_ledger.py

tests/test_package.py holds a subset of the runs to the same ALLOWED.
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

# unentered functions, by qualified name, with who keeps them; the list only shrinks
ALLOWED = {
    "cli._Parser.error": "argparse, on a usage error; every pinned run is a valid command",
    # ROADMAP item 1: the benchmark trace reads both until it wraps package functions instead
    "ffop.FarFieldMatrix.operator_norm": "bench/spans.py wraps it by name",
    "spectra.worker_count": "bench/child.py records it with each run",
    # ROADMAP item 5: until every run checks its signature against its oracle
    "scan.find_peaks": "bench/run.py and the README read indicator peaks with it",
    # ROADMAP item 4: until a command reads far field data from an operator file
    "ffop.save_ffop": "the operator file format, which no command reads yet",
    "ffop.load_ffop": "the operator file format, which no command reads yet",
    "ffop.load_ffop.take": "the operator file format, which no command reads yet",
}


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


def unentered(labels):
    """(name, first line, span, nested) of each function that the runs ``labels`` never enter.

    ``labels`` name runs of artifact_hashes.RUNS; one that names none
    raises KeyError before any run. ``nested`` is whether the enclosing
    function is unentered too. Call this once, in a fresh interpreter: a
    function whose result an earlier call left in a cache is not entered.
    """
    entered = set()

    def tracer(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    os.environ.update(SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(PACKAGE.parent))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = artifact_hashes.write_inputs(tmp)
        runs = [(label, argvs[label]) for label in labels]
        sys.settrace(tracer)
        try:
            from scatsig import cli

            os.chdir(tmp)
            for label, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"src_ledger: run {label} failed")
        finally:
            os.chdir(cwd)
            sys.settrace(None)

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        funcs = functions(path)
        missed = {first for first, *_ in funcs if (str(path), first) not in entered}
        found += [(f"{path.stem}.{name}", first, span, outer in missed)
                  for first, name, span, outer in funcs if first in missed]
    return found


def main():
    found = unentered(artifact_hashes.RUNS)
    names = {name for name, *_ in found}
    for name, first, span, _ in found:
        owner = ALLOWED.get(name, "NOT ALLOWED: no run enters it and no owner keeps it")
        print(f"{name}  ({span} lines, from line {first})  {owner}")
    stale = sorted(set(ALLOWED) - names)
    for name in stale:
        print(f"{name}  ALLOWED, but a run enters it or it is gone: drop it from ALLOWED")
    total = sum(span for *_, span, nested in found if not nested)
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    print(f"{len(found)} functions never entered, {total} lines by function span, "
          f"of {lines} lines in {PACKAGE.name}")
    return 1 if stale or names - set(ALLOWED) else 0


if __name__ == "__main__":
    sys.exit(main())
