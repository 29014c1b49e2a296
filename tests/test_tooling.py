"""Repository hygiene: the library imports only what it declares and starts
no threads, src holds no code that only tests reach, and neither the CLI's
outputs nor image-scale inference and draws depend on how many threads BLAS
runs; the convolutions and the whole policy network keep the bytes of
their per-tap tensordot reference.

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
from htlab import cli, nn
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
        # a module's private names stay its own: another module that needs
        # one needs it made public
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bad.extend(f"{path.name}:{node.lineno}: {alias.name}"
                           for alias in node.names
                           if alias.name.startswith("_")
                           and not alias.name.endswith("__"))
    assert not bad, "undeclared or private imports: " + ", ".join(bad)


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
    # would split the rows across threads and sum them in another order;
    # the separable Gaussian window is hashed in the same process
    code = ("import hashlib, numpy as np\n"
            "from htlab.hvs import (HvsConfig, build_kernel, convolve_same,\n"
            "                       correlate_separable, gaussian_factor)\n"
            "img = np.random.default_rng(23).random((509, 511))\n"
            "for out in (convolve_same(img, build_kernel(HvsConfig())),\n"
            "            correlate_separable(img, gaussian_factor(11, 1.5))):\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n")
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


# the Conv2d layers the program runs, as (batch, c_in, c_out, size): an
# 8-channel policy on the training crops and at image scale, a 32-channel
# one on 64^2 crops, and the TrainConfig default (64 crops of 64^2, 32
# channels)
PROGRAM_CONVS = [(8, 2, 8, 32), (8, 8, 8, 32), (8, 8, 1, 32),
                 (2, 2, 32, 64), (2, 32, 32, 64), (2, 32, 1, 64),
                 (1, 2, 8, 256), (1, 8, 8, 256),
                 (64, 2, 32, 64), (64, 32, 32, 64), (64, 32, 1, 64)]

# Conv2d.backward's input gradient runs in blocks of 2^20 / (c_in * c_out)
# rows rounded up to a power of two (1,024 rows at 32 -> 32, 16,384 at
# 8 -> 8), the last block taking the rest; as (batch, c_in, c_out, height,
# width): n not a multiple of the block, a block boundary inside the
# second image, n below one block, and one 512^2 image
BLOCK_CONVS = [(1, 32, 32, 37, 50), (2, 32, 32, 20, 30), (2, 8, 8, 10, 10),
               (1, 2, 8, 512, 512), (1, 8, 8, 512, 512)]


# the build on which the nn docstring's input-gradient identity was measured
MEASURED_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas",
                  "blas_version": "0.3.31.188.0"}


def _input_gradient_diffs(shapes, blas_threads, tmp_path):
    """max |dx - oracle dx| of a seeded Conv2d at each (batch, c_in, c_out,
    height, width), in a child process under blas_threads BLAS threads."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import numpy as np\n"
            "import helpers\n"
            "import oracles\n"
            "from htlab.imagecore import Rng\n"
            "from htlab.nn import Conv2d, Workspace\n"
            f"for b, ci, co, h, w in {shapes!r}:\n"
            "    rng = Rng(ci * co + h)\n"
            "    conv = Conv2d(ci, co, Workspace())\n"
            "    wt = conv.weight.value\n"
            "    wt[...] = rng.gaussians(wt.size).reshape(wt.shape) * 0.3\n"
            "    x = rng.gaussians(b * ci * h * w).reshape(b, ci, h, w)\n"
            "    conv.forward(helpers.pad(x))\n"
            "    g = rng.gaussians(b * co * h * w).reshape(b, co, h, w)\n"
            "    want = oracles.conv3x3_backward_tensordot(x, wt, g)[0]\n"
            "    dx = helpers.crop(conv.backward(helpers.pad(g)))\n"
            "    print(np.max(np.abs(dx - want)))\n")
    diffs = [float(v) for v in
             _run_python(["-c", code], blas_threads, tmp_path).split()]
    assert len(diffs) == len(shapes)
    return diffs


def _assert_tensordot_bytes(diffs):
    # BLAS chooses its kernels by problem size and thread count, so the
    # byte identity holds on the measured build only; another build may
    # cross a kernel switch at other sizes and keep only rounding agreement
    if cli._build() == MEASURED_BUILD:
        assert diffs == [0.0] * len(diffs)
    else:
        assert max(diffs) <= 1e-12


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_conv_input_gradient_is_the_tensordot_bytes_at_program_shapes(
        tmp_path, blas_threads):
    _assert_tensordot_bytes(_input_gradient_diffs(
        [(b, ci, co, n, n) for b, ci, co, n in PROGRAM_CONVS], blas_threads,
        tmp_path))


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_conv_input_gradient_blocks_are_the_tensordot_bytes(tmp_path,
                                                            blas_threads):
    _assert_tensordot_bytes(_input_gradient_diffs(BLOCK_CONVS, blas_threads,
                                                  tmp_path))


# the policy networks the program runs, as (channels, blocks, batch, size,
# train): an 8x2 policy on the training crops, a 32x2 one on 64^2 crops,
# and the 8x2 one's forward-only inference at image scale
PROGRAM_NETS = [(8, 2, 8, 32, True), (32, 2, 2, 64, True),
                (8, 2, 1, 256, False)]


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_policy_network_is_the_tensordot_bytes_at_program_shapes(
        tmp_path, blas_threads):
    # p and the parameter gradients must be the oracle's bytes everywhere;
    # the input gradient, as for a single layer, on the measured build only
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import numpy as np\n"
            "import oracles\n"
            "from htlab.imagecore import Rng\n"
            "from htlab.nn import PolicyNetwork\n"
            f"for ch, blocks, b, n, train in {PROGRAM_NETS!r}:\n"
            "    net = PolicyNetwork(channels=ch, blocks=blocks)\n"
            "    rng = Rng(ch + n)\n"
            "    net.init_params(rng, std=0.1)\n"
            "    for q in net.params():\n"
            "        if q.value.ndim == 1:\n"
            "            q.value[...] = rng.gaussians(q.value.size) * 0.1\n"
            "    x = rng.uniforms(b * 2 * n * n).reshape(b, 2, n, n)\n"
            "    if not train:\n"
            "        want = oracles.policy_network_tensordot(net, x)\n"
            "        p = net.forward(x, train=False)\n"
            "        print(p.tobytes() == want.tobytes(), 0.0)\n"
            "        continue\n"
            "    dp = rng.gaussians(b * n * n).reshape(b, 1, n, n)\n"
            "    p_want, dx_want, grads = oracles.policy_network_tensordot(\n"
            "        net, x, dp)\n"
            "    p = net.forward(x)\n"
            "    net.zero_grad()\n"
            "    dx = net.backward(dp)\n"
            "    same = p.tobytes() == p_want.tobytes() and all(\n"
            "        q.grad.tobytes() == g.tobytes()\n"
            "        for q, g in zip(net.params(), grads))\n"
            "    print(same, np.max(np.abs(dx - dx_want)))\n")
    rows = [line.split() for line in
            _run_python(["-c", code], blas_threads, tmp_path).splitlines()]
    assert len(rows) == len(PROGRAM_NETS)
    assert [same for same, _ in rows] == ["True"] * len(PROGRAM_NETS)
    diffs = [float(diff) for _, diff in rows]
    if cli._build() == MEASURED_BUILD:
        assert diffs == [0.0] * len(PROGRAM_NETS)
    else:
        assert max(diffs) <= 1e-12


# Conv2d.forward sums its taps over blocks of rows; each case places the
# block boundaries: a last block shorter than the others ("tail"), a
# boundary inside the second image of a batch ("second"), all rows in one
# block ("one"), and one 512^2 image ("big")
BLOCK_CASES = [(1, 8, 8, 64, 64, "tail"), (3, 8, 8, 48, 48, "second"),
               (2, 8, 8, 16, 16, "one"), (2, 32, 32, 40, 40, "second"),
               (2, 2, 32, 40, 40, "tail"), (2, 32, 1, 40, 40, "second"),
               (1, 2, 8, 512, 512, "big"), (1, 8, 8, 512, 512, "big"),
               (1, 8, 1, 512, 512, "big")]


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_blocked_forward_is_the_tensordot_bytes(tmp_path, blas_threads):
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import helpers\n"
            "import oracles\n"
            "from htlab.imagecore import Rng\n"
            "from htlab.nn import Conv2d, Workspace\n"
            f"for b, ci, co, h, w, _ in {BLOCK_CASES!r}:\n"
            "    rng = Rng(ci * co + h)\n"
            "    conv = Conv2d(ci, co, Workspace())\n"
            "    for q in conv.params():\n"
            "        q.value[...] = rng.gaussians(q.value.size).reshape(\n"
            "            q.value.shape) * 0.3\n"
            "    x = rng.gaussians(b * ci * h * w).reshape(b, ci, h, w)\n"
            "    out = helpers.crop(conv.forward(helpers.pad(x), False))\n"
            "    want = oracles.conv3x3_forward_tensordot(\n"
            "        x, conv.weight.value, conv.bias.value)\n"
            "    rows, = [shape[0] for role, shape in conv._ws._arrays\n"
            "             if role == 'product']\n"
            "    print(out.tobytes() == want.tobytes(), rows)\n")
    lines = _run_python(["-c", code], blas_threads, tmp_path).splitlines()
    assert len(lines) == len(BLOCK_CASES)
    for (b, ci, co, h, w, where), line in zip(BLOCK_CASES, lines):
        same, rows = line.split()
        rows, n = int(rows), (b * (h + 3) - 3) * (w + 2)
        # block k starts at padded row w + 3 + k*rows of the batch
        starts = range(w + 3 + rows, w + 3 + n, rows)
        placed = {"tail": n > rows and n % rows,
                  "second": any(s // ((h + 3) * (w + 2)) == 1
                                for s in starts),
                  "one": rows == n < nn._BLOCK // (2 * max(ci, co)),
                  "big": b == 1 and h == w == 512 and n > rows}[where]
        assert placed, (b, ci, co, h, w, where)
        assert same == "True", (b, ci, co, h, w)


# BLAS sums a one-column product in groups of rows that follow the rows'
# places in the call, and the flat-shift rows of a C -> 1 conv fall in other
# places than the tensordot form's: there the two agree to rounding only
ONE_COLUMN_CONVS = [(1, c, 37, 50) for c in range(8, 129)] + [(2, 64, 64, 64)]


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_one_column_forward_agrees_with_tensordot(tmp_path, blas_threads):
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import numpy as np\n"
            "import helpers\n"
            "import oracles\n"
            "from htlab.imagecore import Rng\n"
            "from htlab.nn import Conv2d, Workspace\n"
            f"for b, ci, h, w in {ONE_COLUMN_CONVS!r}:\n"
            "    rng = Rng(ci + h)\n"
            "    conv = Conv2d(ci, 1, Workspace())\n"
            "    for q in conv.params():\n"
            "        q.value[...] = rng.gaussians(q.value.size).reshape(\n"
            "            q.value.shape) * 0.3\n"
            "    x = rng.gaussians(b * ci * h * w).reshape(b, ci, h, w)\n"
            "    out = helpers.crop(conv.forward(helpers.pad(x), False))\n"
            "    want = oracles.conv3x3_forward_tensordot(\n"
            "        x, conv.weight.value, conv.bias.value)\n"
            "    print(np.max(np.abs(out - want)) / np.max(np.abs(want)))\n")
    rel = [float(v) for v in
           _run_python(["-c", code], blas_threads, tmp_path).split()]
    assert len(rel) == len(ONE_COLUMN_CONVS)
    assert max(rel) <= 1e-14


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
    net = PolicyNetwork(channels=8, blocks=1)
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
