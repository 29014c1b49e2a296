"""The benchmark's three closed-loop workloads and their output checks.

Each workload is one caller that starts the next op only when the previous
one has returned. Every input comes from the ``--seed``; the program sees
only the generated images, configs and checkpoint.

- ``train-mini``: ``rl.train_step`` with the acceptance criterion-6 config
  (batch 8, 32x32 crops, 8 channels x 2 blocks, local expectation, Gaussian
  5x5 HVS, w_a = 0.002) on a 20-image dataset. This is the paper's training
  loop; its time goes to the reward engine, the network and the xoshiro
  draws, and none to ``classic``.
- ``dbs-classic``: ``classic.dbs_search`` solves of 64x64 constant grays and
  natural crops with the CLI defaults (Nasanen 11x11, 20 sweeps at most).
  Nearly all of its time is the per-pixel Python search; it never touches
  ``nn``, ``rl`` or the reward engine, so it is the no-change check for a
  training-side optimisation and the target of a DBS one.
- ``cli-eval``: in-process ``cli.main`` calls on 256x256 contone PGMs and an
  8x2 checkpoint written during set-up. Full-image metrics, 256x256
  convolutions, forward-only inference, the periodogram, Netpbm I/O,
  manifests, multitone and the ``HTLAB_THREADS`` pool.

An op is one train step, one DBS solve or one CLI call. The work unit
behind ``work_per_s`` is a train step, a pixel-sweep, or an image.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from htlab import classic, cli, metrics, nn, rl, spectral
from htlab.hvs import HvsConfig
from htlab.imagecore import (Rng, constant_image, derive_seed, load_pgm,
                             save_pbm, save_pgm)
from htlab.metrics import MetricConfig
from htlab.rl import TrainConfig

NASANEN = MetricConfig()


# ---------------------------------------------------------------------------
# inputs

def natural_scene(size, rng):
    """A composite scene standing in for a photographic crop (the recipe of
    the test suite's natural crop, with its geometry drawn from rng): a tone
    ramp, two low-frequency waves, a bright disc and a dark ridge, plus
    faint grain; values kept inside [0.02, 0.98]."""
    phase_y, phase_x = rng.uniform(), rng.uniform()
    disc_y, disc_x = 0.2 + 0.3 * rng.uniform(), 0.45 + 0.3 * rng.uniform()
    ridge_y = 0.6 + 0.2 * rng.uniform()
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = 0.35 + 0.4 * xx / max(size - 1, 1)
    img = img + 0.18 * np.sin(2.0 * np.pi * (1.7 * yy / size + phase_y))
    img = img + 0.12 * np.sin(2.0 * np.pi * (2.3 * xx / size + phase_x))
    disc = ((yy - disc_y * size) ** 2 + (xx - disc_x * size) ** 2
            < (0.16 * size) ** 2)
    img = np.where(disc, 0.85, img)
    ridge = np.abs((yy - ridge_y * size) - 0.35 * (xx - 0.5 * size)) \
        < 0.04 * size
    img = np.where(ridge, 0.12, img)
    img = img + 0.015 * rng.gaussians(size * size).reshape(size, size)
    return np.clip(img, 0.02, 0.98)


def tilted_ramp(size, rng):
    """Linear ramp in a random direction between random low and high tones
    (the criterion-6 dataset recipe)."""
    gx = rng.uniform() * 2.0 - 1.0
    gy = rng.uniform() * 2.0 - 1.0
    lo = 0.1 + 0.3 * rng.uniform()
    hi = 0.6 + 0.3 * rng.uniform()
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1.0)
    t = gx * xx + gy * yy
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    return lo + (hi - lo) * t


def ring_mean(anisotropy, counts):
    """Mean of the per-ring anisotropy weighted by ring size, undefined
    rings left out: the few bins of the innermost rings make their
    estimates too noisy to count as much as the outer rings."""
    a = np.asarray(anisotropy, dtype=np.float64)
    ok = np.isfinite(a)
    w = np.asarray(counts, dtype=np.float64)[ok]
    return float(np.sum(a[ok] * w) / np.sum(w))


def quality(pairs, gray_outputs):
    """Quality guards over (halftone, contone) pairs: mean HVS-PSNR
    (Nasanen, valid region), mean CSSIM, and the ring mean of the per-ring
    anisotropy averaged over the outputs of constant grays, the way
    ``htlab spectra --realizations`` averages it."""
    psnr = [metrics.psnr(metrics.hvs_mse(h, c, NASANEN, region="valid"))
            for h, c in pairs]
    css = [metrics.cssim(h, c, NASANEN, region="valid")[0] for h, c in pairs]
    curves = [spectral.rapsd(spectral.periodogram(g)) for g in gray_outputs]
    anis = np.mean([curve.anisotropy for curve in curves], axis=0)
    return {"hvs_psnr_db": float(np.mean(psnr)), "cssim": float(np.mean(css)),
            "anisotropy": ring_mean(anis, curves[0].counts)}


def _is_binary(h, shape):
    return h.shape == shape and bool(np.all((h == 0.0) | (h == 1.0)))


# ---------------------------------------------------------------------------
# workloads

class TrainMini:
    name = "train-mini"
    GRAYS = (0.15, 0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.85)
    SNAPSHOT_STEP = 24        # the quality guards score the policy here
    PROBE_GRAYS = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)

    def setup(self, seed, workdir):
        self.seed = seed
        rng = Rng(seed)
        self.dataset = (
            [constant_image(g, 64, 64) for g in self.GRAYS]
            + [tilted_ramp(64, rng) for _ in range(6)]
            + [natural_scene(64, rng) for _ in range(6)])
        self.cfg = TrainConfig(
            iterations=3000, batch_size=8, crop_size=32, channels=8, blocks=2,
            w_s=0.06, w_a=0.002, estimator="local_expectation", seed=seed,
            lr_start=1.2e-2, lr_end=2e-4, hvs_model="gaussian", hvs_size=5,
            hvs_sigma=1.5)
        self.probes = ([constant_image(g, 64, 64) for g in self.PROBE_GRAYS]
                       + [natural_scene(64, rng) for _ in range(2)])
        # warm the lru_cache kernels and train_step's ring-partition cache
        # on a throwaway state, then start the measured run afresh
        self._fresh_state()
        rl.train_step(self.net, self.adam, self.dataset, self.cfg, self.rng,
                      0)
        self._fresh_state()
        self.snapshot = None
        self.history = hashlib.sha256()

    def _fresh_state(self):
        self.rng = Rng(self.cfg.seed)
        self.net = nn.PolicyNetwork(channels=self.cfg.channels,
                                    blocks=self.cfg.blocks)
        self.adam = nn.Adam(self.net.params())
        self.net.init_params(self.rng)

    def finished(self, i, elapsed, seconds):
        return i >= self.SNAPSHOT_STEP and elapsed >= seconds

    def op(self, i):
        return lambda: rl.train_step(self.net, self.adam, self.dataset,
                                     self.cfg, self.rng, i)

    def check(self, i, diag):
        values = [diag["reward"], diag["l_as"], diag["bin_gap"], diag["lr"]]
        if not all(math.isfinite(v) for v in values):
            return 0, f"step {i}: non-finite diagnostics {diag}"
        if i < self.SNAPSHOT_STEP:
            self.history.update(np.array(values).tobytes())
        if i == self.SNAPSHOT_STEP - 1:
            self.snapshot = [p.value.copy() for p in self.net.params()]
        return 1, None

    def quality(self):
        """Guards on the halftones the snapshot policy draws on the probes.
        A policy this young thresholds to solid black or white away from
        mid-gray, so its draws, not its 0.5 threshold, carry the signal."""
        net = nn.PolicyNetwork(channels=self.cfg.channels,
                               blocks=self.cfg.blocks)
        for p, value in zip(net.params(), self.snapshot):
            p.value[...] = value
        digest = self.history.copy()
        outputs = []
        for j, c in enumerate(self.probes):
            _, p = rl.infer_halftone(net, c, Rng(derive_seed(self.seed,
                                                             1000 + j)))
            h = rl.sample_actions(p, Rng(derive_seed(self.seed, 2000 + j)))
            outputs.append(h)
            digest.update(h.tobytes())
        for value in self.snapshot:
            digest.update(value.tobytes())
        q = quality(list(zip(outputs, self.probes)),
                    outputs[:len(self.PROBE_GRAYS)])
        return q, digest.hexdigest()


class DbsClassic:
    name = "dbs-classic"
    SIZE = 64
    MAX_SWEEPS = 20           # the CLI default
    GRAYS = (0.2, 0.35, 0.5, 0.7)

    def setup(self, seed, workdir):
        rng = Rng(seed)
        s = self.SIZE
        # fixed tones, so that the seed moves only the scenes and the white
        # noise each search starts from; a sweep's cost depends on the tone
        self.items = []
        for g in self.GRAYS:
            self.items.append((constant_image(g, s, s), True))
            self.items.append((natural_scene(s, rng), False))
        self.start_seeds = [derive_seed(seed, j)
                            for j in range(len(self.items))]
        self.first = [None] * len(self.items)

    def finished(self, i, elapsed, seconds):
        # at least one whole cycle, so the quality guards see every input
        return i >= len(self.items) and elapsed >= seconds

    def op(self, i):
        j = i % len(self.items)
        c = self.items[j][0]
        return lambda: classic.dbs_search(c, Rng(self.start_seeds[j]),
                                          max_sweeps=self.MAX_SWEEPS)

    def check(self, i, result):
        j = i % len(self.items)
        c = self.items[j][0]
        h, trace = result
        if not _is_binary(h, c.shape):
            return 0, f"solve {i}: output not binary {c.shape}"
        errs = [row[1] for row in trace]
        if any(b > a for a, b in zip(errs, errs[1:])):
            return 0, f"solve {i}: DBS trace increases"
        full = metrics.hvs_mse(h, c, NASANEN, region="full")
        if not math.isclose(errs[-1], full, rel_tol=1e-9, abs_tol=1e-15):
            return 0, (f"solve {i}: trace ends at {errs[-1]!r}, hvs_mse "
                       f"gives {full!r}")
        if self.first[j] is None:
            self.first[j] = h
        elif not np.array_equal(self.first[j], h):
            return 0, f"solve {i}: differs from the first solve of input {j}"
        productive = len(trace) - 1
        sweeps = productive + (1 if productive < self.MAX_SWEEPS else 0)
        return c.size * sweeps, None

    def quality(self):
        digest = hashlib.sha256()
        for h in self.first:
            digest.update(h.tobytes())
        pairs = [(h, c) for h, (c, _) in zip(self.first, self.items)]
        grays = [h for h, (_, gray) in zip(self.first, self.items) if gray]
        return quality(pairs, grays), digest.hexdigest()


def policy_checkpoint(path, seed, channels=8, blocks=2):
    """Write an 8x2 policy whose output thresholds the contone against
    Gaussian noise: the input conv copies contone and noise into two
    channels, the output conv reads 8 (c - 0.5) + 2 z off them, and every
    other weight is the seeded N(0, 0.01^2) initialisation. Inference cost
    does not depend on the weights; the halftones are non-degenerate."""
    net = nn.PolicyNetwork(channels=channels, blocks=blocks)
    net.init_params(Rng(seed))
    net.conv_in.weight.value[0, 0, 1, 1] = 1.0
    net.conv_in.weight.value[1, 1, 1, 1] = 1.0
    net.conv_out.weight.value[0, 0, 1, 1] = 8.0
    net.conv_out.weight.value[0, 1, 1, 1] = 2.0
    net.conv_out.bias.value[0] = -4.0
    nn.save_checkpoint(str(path), net)


class CliEval:
    name = "cli-eval"
    SIZE = 256
    IMAGES = 3
    REALIZATIONS = 4
    MIN_CYCLES = 2            # the second cycle repeats the first exactly

    def setup(self, seed, workdir):
        rng = Rng(seed)
        s = self.SIZE
        self.workdir = Path(workdir)
        contone = self.workdir / "contone"
        halftone = self.workdir / "halftone"
        out = self.workdir / "out"
        for d in (contone, halftone, out):
            d.mkdir(parents=True, exist_ok=True)
        scenes = ([natural_scene(s, rng) for _ in range(self.IMAGES - 1)]
                  + [tilted_ramp(s, rng)])
        self.contones = []
        for k, img in enumerate(scenes):
            path = contone / f"img{k}.pgm"
            save_pgm(img, str(path))
            self.contones.append(path)
            noise = Rng(derive_seed(seed, k))
            save_pbm(classic.white_noise_threshold(img, noise),
                     str(halftone / f"img{k}.pbm"))
        ckpt = self.workdir / "policy.htnn"
        policy_checkpoint(ckpt, seed)
        gray = 0.25 + 0.5 * rng.uniform()
        cseed = str(derive_seed(seed, 7) % 1000003)
        d, o = str(contone), str(out)
        self.calls = [
            (["eval", "--contone-dir", d, "--method", "bayer",
              "--output", f"{o}/bayer.csv"], self.IMAGES),
            (["eval", "--contone-dir", d, "--method", "fs",
              "--output", f"{o}/fs.csv"], self.IMAGES),
            (["eval", "--contone-dir", d, "--method", "nn",
              "--checkpoint", str(ckpt), "--seed", cseed,
              "--output", f"{o}/nn.csv"], self.IMAGES),
            (["eval", "--contone-dir", d, "--halftone-dir", str(halftone),
              "--output", f"{o}/scored.csv"], self.IMAGES),
            (["spectra", "--gray", repr(gray), "--method", "nn",
              "--checkpoint", str(ckpt), "--size", str(s),
              "--realizations", str(self.REALIZATIONS), "--seed", cseed,
              "--output", f"{o}/spectra.csv"], self.REALIZATIONS),
            (["halftone", "--input", str(self.contones[0]), "--method", "nn",
              "--checkpoint", str(ckpt), "--levels", "4", "--seed", cseed,
              "--output", f"{o}/multitone.pgm"], 1),
        ]
        self.first = [None] * len(self.calls)
        # warm the lru_cache kernels the scoring path uses
        small = constant_image(0.5, 16, 16)
        for cfg in (NASANEN, MetricConfig(hvs=HvsConfig(model="gaussian"))):
            metrics.cssim(small, small, cfg)
            metrics.hvs_mse(small, small, cfg)

    def finished(self, i, elapsed, seconds):
        n = len(self.calls)
        return i % n == 0 and i >= self.MIN_CYCLES * n and elapsed >= seconds

    def op(self, i):
        argv = self.calls[i % len(self.calls)][0]
        return lambda: cli.main(list(argv))

    def _output(self, j):
        argv = self.calls[j][0]
        return argv[argv.index("--output") + 1]

    def check(self, i, code):
        j = i % len(self.calls)
        if code != 0:
            return 0, f"call {i}: exit {code} for {self.calls[j][0]}"
        output = self._output(j)
        bad = cli.verify_manifest(output + ".manifest.json")
        if bad:
            return 0, f"call {i}: manifest check failed for {bad}"
        data = Path(output).read_bytes()
        if self.first[j] is None:
            self.first[j] = data
            if j == 0:
                problem = self._check_eval_row(data)
                if problem:
                    return 0, f"call {i}: {problem}"
        elif data != self.first[j]:
            return 0, f"call {i}: output differs from the first identical call"
        return self.calls[j][1], None

    def _check_eval_row(self, data):
        """The Bayer eval row of the first image equals a direct score."""
        c = load_pgm(str(self.contones[0]))
        h = classic.ordered_dither(c, 8)
        want = metrics.psnr(metrics.hvs_mse(h, c, NASANEN, region="valid"))
        for line in data.decode("ascii").splitlines():
            fields = line.split(",")
            if fields[0] == self.contones[0].stem:
                if float(fields[1]) != want:
                    return f"eval psnr {fields[1]} != direct {want!r}"
                return None
        return "eval CSV lacks the first image"

    def quality(self):
        digest = hashlib.sha256()
        for data in self.first:
            digest.update(data)
        psnr, css = [], []
        for data in self.first[:4]:
            for line in data.decode("ascii").splitlines():
                fields = line.split(",")
                if fields[0].startswith("img"):
                    psnr.append(float(fields[1]))
                    css.append(float(fields[4]))
        # spectra CSV: header, the DC row, then one row per ring with the
        # anisotropy averaged over realizations and the ring's bin count
        rings = [line.split(",") for line in
                 self.first[4].decode("ascii").splitlines()[2:]]
        q = {"hvs_psnr_db": float(np.mean(psnr)),
             "cssim": float(np.mean(css)),
             "anisotropy": ring_mean([float(r[2]) for r in rings],
                                     [int(r[4]) for r in rings])}
        return q, digest.hexdigest()


WORKLOADS = {w.name: w for w in (TrainMini, DbsClassic, CliEval)}


def measure(workload, seconds, tracer=None):
    """Run the closed loop; returns latencies, work and the problems met."""
    latencies, problems = [], []
    work = 0.0
    i = 0
    start = time.perf_counter()
    while not workload.finished(i, time.perf_counter() - start, seconds):
        op = workload.op(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op()
            error = None
        except Exception as exc:              # noqa: BLE001 - counted failed
            result, error = None, f"op {i}: {exc!r}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        if error is None:
            units, error = workload.check(i, result)
            work += units
        if error is not None:
            problems.append(error)
        i += 1
    return latencies, work, problems
