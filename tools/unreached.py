"""List the functions of src/arrayimg that the byte-identity gate never
enters, and the statements it never executes in the functions it does enter.

Runs the command set of tools/golden.sh in this one process under
``sys.settrace``: `arrayimg image` for the five shipped scenarios at seed 1
and for fig89 at seeds 6 and 9, `simulate` and `coherence` on fig2,
`stability --realizations 10` on fig89,
and the estimator script that golden.sh feeds to Python (read from golden.sh
itself, so the two cannot drift apart).  Then prints each function, method,
nested function and property of the package that was never called, with its
line count, and the total; then each statement of an entered function that
never ran, with its line count and first line, and the total.  A statement
under one that never ran is not listed again.  Standard library only:

    python3 tools/unreached.py

A function or statement listed here is reached by no command of the gate; it
may still be reached by the tests or the benchmark.
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


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _statements(func):
    """The statement tree of a def's body as ``(node, children)`` pairs.

    An ``except`` clause counts as a statement.  Nested defs and classes are
    leaves (their bodies are functions of their own); the docstring and
    ``global``/``nonlocal``, which run no code, are left out.
    """
    def tree(body):
        out = []
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            children = []
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for block in ("body", "handlers", "orelse", "finalbody"):
                    children += tree(getattr(node, block, []))
            out.append((node, children))
        return out

    body = func.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return tree(body)


def _ran(node, lines) -> bool:
    """Whether a line event fell on the statement: on any of its lines for a
    simple statement, on its header for a compound one (the interpreter may
    report a multi-line statement at a line other than its first)."""
    first = _first_line(node)
    body = getattr(node, "body", None)
    last = max(first, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
    return any((line in lines) for line in range(first, last + 1))


def _definitions():
    """``{(file, first line): (qualified name, line count, def node)}`` for
    every def, keyed as the interpreter keys its code object (decorators
    included)."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _first_line(child)
                name = f"{prefix}{child.name}"
                defs[(str(path), first)] = (name, child.end_lineno - first + 1, child)
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
                 ["coherence", "--config", fig2, "--out", "coherence"],
                 ["stability", "--config", fig89, "--realizations", "10", "--out", "stability"]]

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in commands:
            if main(argv) != 0:
                raise SystemExit(f"arrayimg {' '.join(argv)} failed:\n{sink.getvalue()}")
        exec(compile(_estimator_script(), "golden.sh:estimators", "exec"), {})


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    package = {str(path) for path in PACKAGE.glob("*.py")}
    entered = set()
    executed = {path: set() for path in package}

    def trace(frame, event, _arg):
        code = frame.f_code
        if code.co_filename not in package:
            return None  # no line events outside the package
        if event == "call":
            entered.add((code.co_filename, code.co_firstlineno))
        elif event == "line":
            executed[code.co_filename].add(frame.f_lineno)
        return trace

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(trace)  # before the import: module bodies call helpers
        try:
            from arrayimg.cli import main as arrayimg
            _run_gate(arrayimg)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    defs = _definitions()
    missed = sorted((key, value) for key, value in defs.items() if key not in entered)
    for (path, line), (name, count, _) in missed:
        print(f"{name:60s} {count:4d} lines  ({Path(path).name}:{line})")
    print(f"{len(missed)} of {len(defs)} functions never entered, "
          f"{sum(count for _, (_, count, _) in missed)} lines")

    skipped = []

    def walk(tree, name, path):
        for node, children in tree:
            if not _ran(node, executed[path]):
                skipped.append((name, path, node))
            else:
                walk(children, name, path)

    for key, (name, _, func) in sorted(defs.items()):
        if key in entered:
            walk(_statements(func), name, key[0])
    sources = {path: Path(path).read_text().splitlines() for path in package}
    for name, path, node in skipped:
        first = _first_line(node)
        count = node.end_lineno - first + 1
        text = sources[path][node.lineno - 1].strip()
        print(f"{name:60s} {count:4d} lines  ({Path(path).name}:{first})  {text}")
    print(f"{len(skipped)} statements never executed in "
          f"{len({name for name, _, _ in skipped})} entered functions, "
          f"{sum(n.end_lineno - _first_line(n) + 1 for _, _, n in skipped)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
