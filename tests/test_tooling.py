"""Repository hygiene: the library imports only what it declares and starts
no threads, src holds no code that only tests reach, and neither the CLI's
outputs nor image-scale inference and draws depend on how many threads BLAS
runs.

numpy is htlab's one runtime dependency. scipy and pytest-benchmark may be
installed next to it, but nothing declares them, so src/ must not use them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from htlab.imagecore import Rng, save_pgm
from htlab.nn import PolicyNetwork, save_checkpoint
from test_cli import train_config

SRC = Path(__file__).resolve().parent.parent / "src" / "htlab"
BENCHMARK = [SRC.parent.parent / "perfbench" / name
             for name in ("tracer.py", "workloads.py")]
# the CLI runs one policy network over every image of a command, and a
# network is not safe to call from two threads at once
ALLOWED = ((set(sys.stdlib_module_names)
            - {"threading", "_thread", "concurrent"}) | {"numpy"})


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


def _definitions(tree):
    """A module's definitions: "name" -> (the name that calls it, its class
    or None, the nodes it owns). Top-level functions and classes are named
    by their own names, and each non-dunder method is a definition of its
    own, "Class.method", named by its bare name; a class owns the rest of
    its body, its bases and its decorators."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = (node.name, None, [node])
        elif isinstance(node, ast.ClassDef):
            own = node.bases + node.decorator_list
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    defs[f"{node.name}.{sub.name}"] = (sub.name, node.name,
                                                       [sub])
                else:
                    own.append(sub)
            defs[node.name] = (node.name, None, own)
    return defs


# definitions that nothing in src or the benchmark calls, kept on purpose:
# "module.name" or "module.Class.method" -> why
UNREACHED_ON_PURPOSE = {}


def test_every_src_definition_is_reached_from_src_or_the_benchmark():
    # a definition is live when another src module or a benchmark file
    # names it, or when its own module's top-level code or a live
    # definition there does; a method needs its class live as well, and a
    # dead class's methods go unreported with it. Whatever else src defines
    # only tests can reach
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = {stem: set(_identifiers(tree)) for stem, tree in trees.items()}
    benchmark = {name for path in BENCHMARK for name in _identifiers(
        ast.parse(path.read_text(encoding="utf-8")))}
    dead = set()
    for stem, tree in trees.items():
        defs = _definitions(tree)
        reached = benchmark.union(*(names for other, names in named.items()
                                    if other != stem))
        reached.update(name for node in tree.body
                       if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       for name in _identifiers(node))
        live = set()
        grown = True
        while grown:
            grown = False
            for key, (name, owner, nodes) in defs.items():
                if (key not in live and name in reached
                        and (owner is None or owner in live)):
                    live.add(key)
                    reached.update(n for node in nodes
                                   for n in _identifiers(node))
                    grown = True
        dead.update(f"{stem}.{key}" for key, (_, owner, _) in defs.items()
                    if key not in live and (owner is None or owner in live))
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


# an 8x2 policy's inference at 256^2, and a 65,536-word request, which is
# drawn as lanes of the xoshiro stream
LARGE_WORK = {
    "inference_256": (
        "import hashlib\n"
        "from htlab.imagecore import Rng\n"
        "from htlab.nn import PolicyNetwork\n"
        "net = PolicyNetwork(channels=8, blocks=2)\n"
        "net.init_params(Rng(4), std=0.3)\n"
        "x = Rng(5).uniforms(2 * 256 * 256).reshape(1, 2, 256, 256)\n"
        "p = net.forward(x, train=False)\n"
        "print(hashlib.sha256(p.tobytes()).hexdigest())\n"),
    "draw_65536": (
        "import hashlib\n"
        "from htlab.imagecore import Rng\n"
        "r = Rng(6)\n"
        "u = r.uniforms(65536 + 3)\n"
        "print(hashlib.sha256(u.tobytes()).hexdigest(), r.state_words())\n"),
}


@pytest.mark.parametrize("case", sorted(LARGE_WORK))
def test_large_work_does_not_depend_on_blas_threads(tmp_path, case):
    hashes = {threads: _run_python(["-c", LARGE_WORK[case]], threads,
                                   tmp_path) for threads in (1, 2)}
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
