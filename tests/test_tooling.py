"""Repository hygiene: the library imports only what it declares, src
holds no code that only tests reach, and the CLI's outputs do not depend on
how many threads BLAS runs.

numpy is htlab's one runtime dependency. scipy and pytest-benchmark may be
installed next to it, but nothing declares them, so src/ must not use them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import helpers
from htlab.imagecore import Rng, save_pgm
from htlab.nn import PolicyNetwork, save_checkpoint
from test_cli import train_config

SRC = Path(__file__).resolve().parent.parent / "src" / "htlab"
BENCHMARK = [SRC.parent.parent / "perfbench" / name
             for name in ("tracer.py", "workloads.py")]
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


# top-level definitions that nothing in src or the benchmark calls, kept on
# purpose: "module.name" -> why
UNREACHED_ON_PURPOSE = {
    "multitone.LevelSet": "the lattice argument of infer_multitone, whose "
                          "callers live outside src",
}


def test_every_src_definition_is_reached_from_src_or_the_benchmark():
    # a top-level definition is live when another src module or a benchmark
    # file names it, or when its own module's top-level code or a live
    # definition there does; whatever else src defines only tests can reach
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = {stem: set(_identifiers(tree)) for stem, tree in trees.items()}
    benchmark = {name for path in BENCHMARK for name in _identifiers(
        ast.parse(path.read_text(encoding="utf-8")))}
    dead = set()
    for stem, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        live = benchmark.union(*(names for other, names in named.items()
                                 if other != stem))
        live.update(name for node in tree.body
                    if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    for name in _identifiers(node))
        todo = [name for name in defs if name in live]
        while todo:
            for name in _identifiers(defs[todo.pop()]):
                if name in defs and name not in live:
                    live.add(name)
                    todo.append(name)
        dead.update(f"{stem}.{name}" for name in set(defs) - live)
    unexplained = sorted(dead - set(UNREACHED_ON_PURPOSE))
    assert not unexplained, ("src definitions only tests reach: "
                             + ", ".join(unexplained))
    stale = sorted(set(UNREACHED_ON_PURPOSE) - dead)
    assert not stale, "allow-listed but reached: " + ", ".join(stale)


def _run_python(args, blas_threads, cwd):
    # the thread count must be in the environment before numpy is imported,
    # so every run is its own interpreter
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC.parent)] + [p for p in [os.environ.get(
                       "PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_cli(args, blas_threads, cwd):
    _run_python(["-m", "htlab"] + args, blas_threads, cwd)


def test_convolve_same_does_not_depend_on_blas_threads(tmp_path):
    # a 509x511 image is large enough that a BLAS product over its windows
    # would split the rows across threads and sum them in another order
    code = ("import hashlib, numpy as np\n"
            "from htlab.hvs import HvsConfig, build_kernel, convolve_same\n"
            "img = np.random.default_rng(23).random((509, 511))\n"
            "out = convolve_same(img, build_kernel(HvsConfig()))\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n")
    hashes = {threads: _run_python(["-c", code], threads, tmp_path)
              for threads in (1, 2)}
    assert hashes[1] == hashes[2]


def test_cli_outputs_do_not_depend_on_blas_threads(tmp_path):
    contones = tmp_path / "contones"
    contones.mkdir()
    for k in (1, 2):
        save_pgm(helpers.natural_crop(32, seed=k), contones / f"im{k}.pgm")
    # 64^2 is large enough for OpenBLAS to split the network's products
    # across threads
    save_pgm(helpers.natural_crop(64, seed=3), tmp_path / "im64.pgm")
    net = PolicyNetwork(channels=8, blocks=1, in_channels=2)
    net.init_params(Rng(4), std=0.3)
    checkpoint = tmp_path / "policy.htnn"
    save_checkpoint(str(checkpoint), net)
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        for levels, name in ((2, "nn2.pbm"), (4, "nn4.pgm")):
            _run_cli(["halftone", "--input", str(tmp_path / "im64.pgm"),
                      "--output", name, "--method", "nn", "--checkpoint",
                      str(checkpoint), "--levels", str(levels), "--seed", "5"],
                     threads, out)
        cfg, _ = train_config(out, iterations=2)
        _run_cli(["train", "--config", cfg], threads, out)
        _run_cli(["halftone", "--input", str(contones / "im1.pgm"),
                  "--output", "dbs.pbm", "--method", "dbs", "--seed", "3",
                  "--max-sweeps", "3", "--trace", "dbs.csv"], threads, out)
        _run_cli(["eval", "--contone-dir", str(contones), "--method", "fs",
                  "--output", "eval.csv"], threads, out)
        _run_cli(["spectra", "--gray", "0.3", "--method", "bayer",
                  "--output", "spectra.csv"], threads, out)
        outputs[threads] = {name: (out / name).read_bytes() for name in
                            ("dbs.pbm", "dbs.csv", "eval.csv", "spectra.csv",
                             "nn2.pbm", "nn4.pgm", "run/model.htnn",
                             "run/log.csv")}
    for name, data in outputs[1].items():
        assert data == outputs[2][name], f"{name} differs across BLAS threads"
