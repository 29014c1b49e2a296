"""Repository hygiene: the library imports only what it declares, the
metrics module holds no code that only tests reach, and the CLI's outputs
do not depend on how many threads BLAS runs.

numpy is htlab's one runtime dependency. scipy and pytest-benchmark may be
installed next to it, but nothing declares them, so src/ must not use them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import helpers
from htlab.imagecore import save_pgm

SRC = Path(__file__).resolve().parent.parent / "src" / "htlab"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_numpy_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, module in _absolute_imports(tree):
            if module.partition(".")[0] not in ALLOWED:
                bad.append(f"{path.name}:{lineno}: {module}")
    assert not bad, "undeclared imports: " + ", ".join(bad)


def _identifiers(node):
    """Every bare name, attribute name and from-imported name under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_metrics_definition_is_reached_from_src_or_the_tracer():
    # a top-level definition is live when another src module or the
    # benchmark tracer names it, or when a live definition in metrics does;
    # whatever else metrics defines only tests can reach
    tree = ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    users = [path for path in SRC.glob("*.py") if path.name != "metrics.py"]
    live = {name for path in users + [TRACER] for name in _identifiers(
        ast.parse(path.read_text(encoding="utf-8")))}
    todo = [name for name in defs if name in live]
    while todo:
        for name in _identifiers(defs[todo.pop()]):
            if name in defs and name not in live:
                live.add(name)
                todo.append(name)
    dead = sorted(set(defs) - live)
    assert not dead, "metrics definitions only tests reach: " + ", ".join(dead)


def _run_cli(args, blas_threads, cwd):
    # the thread count must be in the environment before numpy is imported,
    # so every run is its own interpreter
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC.parent)] + [p for p in [os.environ.get(
                       "PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "htlab"] + args, cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_outputs_do_not_depend_on_blas_threads(tmp_path):
    contones = tmp_path / "contones"
    contones.mkdir()
    for k in (1, 2):
        save_pgm(helpers.natural_crop(32, seed=k), contones / f"im{k}.pgm")
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        _run_cli(["halftone", "--input", str(contones / "im1.pgm"),
                  "--output", "dbs.pbm", "--method", "dbs", "--seed", "3",
                  "--max-sweeps", "3", "--trace", "dbs.csv"], threads, out)
        _run_cli(["eval", "--contone-dir", str(contones), "--method", "fs",
                  "--output", "eval.csv"], threads, out)
        _run_cli(["spectra", "--gray", "0.3", "--method", "bayer",
                  "--output", "spectra.csv"], threads, out)
        outputs[threads] = {name: (out / name).read_bytes() for name in
                            ("dbs.pbm", "dbs.csv", "eval.csv", "spectra.csv")}
    for name, data in outputs[1].items():
        assert data == outputs[2][name], f"{name} differs across BLAS threads"
