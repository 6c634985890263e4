"""List the functions of src/arrayimg that the byte-identity gate never enters.

Runs the command set of tools/golden.sh in this one process under
``sys.setprofile``: `arrayimg image` for the five shipped scenarios at seed 1
and for fig89 at seeds 6 and 9, `simulate` and `coherence` on fig2,
`stability --realizations 10` on fig89,
and the estimator script that golden.sh feeds to Python (read from golden.sh
itself, so the two cannot drift apart).  Then prints each function, method,
nested function and property of the package that was never called, with its
line count, and the total.  Standard library only:

    python3 tools/unreached.py

A function listed here is reached by no command of the gate; it may still be
reached by the tests or the benchmark.
"""

import ast
import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arrayimg"


def _definitions():
    """``{(file, first line): (qualified name, line count)}`` for every def,
    keyed as the interpreter keys its code object (decorators included)."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                defs[(str(path), first)] = (name, child.end_lineno - first + 1)
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return defs


def _estimator_script() -> str:
    text = (ROOT / "tools" / "golden.sh").read_text()
    return re.search(r"<<'EOF'\n(.*?)\nEOF\n", text, re.S).group(1)


def _run_gate(main):
    scenarios = ROOT / "scenarios"
    fig2 = str(scenarios / "fig2_smv_noiseless.ini")
    fig89 = str(scenarios / "fig89_random_medium.ini")
    commands = [["image", "--config", str(ini), "--seed", "1", "--out", "image"]
                for ini in sorted(scenarios.glob("*.ini"))]
    commands += [["image", "--config", fig89, "--seed", seed, "--out", "image"]
                 for seed in ("6", "9")]
    commands += [["simulate", "--config", fig2, "--seed", "1", "--out", "simulate"],
                 ["coherence", "--config", fig2, "--seed", "1", "--out", "coherence"],
                 ["stability", "--config", fig89, "--seed", "1", "--realizations", "10",
                  "--out", "stability"]]

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in commands:
            if main(argv) != 0:
                raise SystemExit(f"arrayimg {' '.join(argv)} failed:\n{sink.getvalue()}")
        exec(compile(_estimator_script(), "golden.sh:estimators", "exec"), {})


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.setprofile(profile)  # before the import: module bodies call helpers
        try:
            from arrayimg.cli import main as arrayimg
            _run_gate(arrayimg)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    defs = _definitions()
    missed = sorted((key, value) for key, value in defs.items() if key not in entered)
    for (path, line), (name, count) in missed:
        print(f"{name:60s} {count:4d} lines  ({Path(path).name}:{line})")
    print(f"{len(missed)} of {len(defs)} functions never entered, "
          f"{sum(count for _, (_, count) in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
