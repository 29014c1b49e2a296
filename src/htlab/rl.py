"""One-step multi-agent policy-gradient halftoning.

Every pixel is an agent; the shared network maps (contone, noise) to a
per-pixel Bernoulli parameter (or, for multitone, to a value whose two
neighboring lattice levels form the support). The joint policy factorizes
pixelwise, and the episode is a single action map scored by the halftone
reward.

Three gradient estimators produce dL/dp to inject at the sigmoid output:

  reinforce  score function on the global reward, optional scalar baseline
  coma       per-agent counterfactual baseline: the policy-expected reward
             over that agent's two actions, others held fixed
  local_expectation (le)  sums the reward over each agent's two actions
             analytically, so the per-pixel factor is exactly the two-point
             reward difference

A training step scores its B crops as one (B, H, W) stack: one
RewardContext and one estimator call. All three need at most N+1 reward
evaluations per image: one full build plus one delta_map over its N pixels.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .hvs import HvsConfig, build_kernel
from .imagecore import Rng, gaussian_noise_map, random_crop
from .metrics import MetricConfig
from .nn import Adam, PolicyNetwork, cosine_lr, load_checkpoint
from .spectral import anisotropy_loss, anisotropy_loss_backward, ring_partition

_PROB_FLOOR = 1e-7   # clamp before log-derivative division

ESTIMATORS = ("reinforce", "reinforce_meanbaseline", "coma",
              "local_expectation")


def _cast_two_point(values, level_count):
    """Two nearest lattice levels around each value and the upper-level mass.

    Levels are i/(L-1), L >= 2. On-lattice values collapse to a single
    support point with zero upper mass. For L=2 this reduces bitwise to
    (0, 1, values).
    """
    if level_count < 2:
        raise ValueError("a lattice needs at least 2 levels")
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("values outside [0, 1]")
    steps = level_count - 1
    scaled = v * steps
    idx = np.floor(scaled)
    frac = scaled - idx
    floor_vals = idx / steps
    ceil_vals = np.minimum(idx + 1.0, steps) / steps
    on_lattice = frac == 0.0
    ceil_vals = np.where(on_lattice, floor_vals, ceil_vals)
    return floor_vals, ceil_vals, frac


def sample_actions(p, rng, level_count=2):
    """One lattice level per pixel from the cast policy; one uniform per
    pixel, row-major (image after image for a stack). For L=2 these are
    independent Bernoulli(p) draws."""
    floor_vals, ceil_vals, p_ceil = _cast_two_point(p, level_count)
    u = rng.uniforms(p_ceil.size).reshape(p_ceil.shape)
    return np.where(u < p_ceil, ceil_vals, floor_vals)


def make_sample(p, c, rng, cfg=None, level_count=2):
    """Sample the action maps of a policy output p, one (H, W) map or a
    (B, H, W) stack, and return the one RewardContext that scores them
    against c; its h is the action map."""
    return metrics.reward(sample_actions(p, rng, level_count), c, cfg)


def le_signal(ctx, p, level_count):
    """Local-expectation gradient: dL/dp_a = -(R(up) - R(down)) / delta,
    where up and down are the two cast levels around p_a; zero wherever
    the support collapsed to a single level."""
    floor_vals, ceil_vals, _ = _cast_two_point(p, level_count)
    up = ctx.h == ceil_vals
    d_other = metrics.delta_map(ctx, np.where(up, floor_vals, ceil_vals))
    sign = np.where(up, -1.0, 1.0)
    return -(sign * d_other) / (1.0 / (level_count - 1))


def _dlogpi(p, h):
    """Score of a binary policy; coma and reinforce need one."""
    if np.any((h != 0.0) & (h != 1.0)):
        raise ValueError("coma and reinforce require a binary policy")
    p = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return np.where(h == 1.0, 1.0 / p, -1.0 / (1.0 - p))


def coma_signal(ctx, p):
    """Counterfactual-baseline gradient (binary policies only)."""
    h = ctx.h
    score = _dlogpi(p, h)
    d_other = metrics.delta_map(ctx, 1.0 - h)
    r_cur = np.asarray(ctx.reward)[..., None, None]
    r_flip = r_cur + d_other
    r_up = np.where(h == 1.0, r_cur, r_flip)
    r_down = np.where(h == 0.0, r_cur, r_flip)
    pc = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    baseline = pc * r_up + (1.0 - pc) * r_down
    return -score * (r_cur - baseline)


def reinforce_signal(ctx, p, baseline):
    """Score-function gradient with a scalar baseline (binary policies
    only)."""
    advantage = np.asarray(ctx.reward - baseline)[..., None, None]
    return -_dlogpi(p, ctx.h) * advantage


# ---------------------------------------------------------------------------
# training

# A config is refused before anything is built when its network or batch
# would not fit in memory: at most 128 channels and 64 residual blocks
# (about 150 MB of float64 weights, four times that with gradients and
# Adam's moments), a batch of at most 1024 crops, and one (B, C, H, W)
# activation of at most 2^25 floats (256 MiB). The paper-scale defaults
# (32 channels, 16 blocks, 64 crops of 64^2) use 2^23.
MAX_CHANNELS = 128
MAX_BLOCKS = 64
MAX_BATCH_SIZE = 1024
MAX_ACTIVATION = 2 ** 25


@dataclass(frozen=True)
class TrainConfig:
    dataset_dir: str = ""
    out_dir: str = ""
    iterations: int = 200000
    batch_size: int = 64
    crop_size: int = 64
    channels: int = 32
    blocks: int = 16
    w_s: float = 0.06
    w_a: float = 0.002
    lr_start: float = 3e-4
    lr_end: float = 1e-5
    estimator: str = "local_expectation"
    seed: int = 0
    levels: int = 2
    multitone_anisotropy: bool = False
    log_every: int = 100
    checkpoint_every: int = 0           # 0 means: final checkpoint only
    hvs_model: str = "nasanen"
    hvs_size: int = 11
    hvs_scale: float = 2000.0
    hvs_sigma: float = 2.0

    def metric_config(self):
        return MetricConfig(w_s=self.w_s, hvs=HvsConfig(
            model=self.hvs_model, size=self.hvs_size,
            scale=self.hvs_scale, sigma=self.hvs_sigma))

    def validate(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.levels < 2:
            raise ValueError("levels must be at least 2")
        if self.levels > 2 and self.estimator != "local_expectation":
            raise ValueError("multitone training supports only "
                             "local_expectation")
        if self.batch_size < 1 or self.crop_size < 1 or self.iterations < 1:
            raise ValueError("batch size, crop size and iterations must be "
                             "positive")
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise ValueError(f"channels must lie in [1, {MAX_CHANNELS}]")
        if not 0 <= self.blocks <= MAX_BLOCKS:
            raise ValueError(f"blocks must lie in [0, {MAX_BLOCKS}]")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must be at most {MAX_BATCH_SIZE}")
        activation = self.batch_size * self.channels * self.crop_size ** 2
        if activation > MAX_ACTIVATION:
            raise ValueError(
                f"batch_size * channels * crop_size^2 = {activation} floats "
                f"per activation, above the bound {MAX_ACTIVATION}")
        if self.log_every < 1 or self.checkpoint_every < 0:
            raise ValueError("log_every must be positive and "
                             "checkpoint_every non-negative")
        build_kernel(self.metric_config().hvs)


def _signal(ctx, p, cfg):
    """dL/dp for the whole (B, H, W) stack from the configured estimator."""
    if cfg.estimator == "local_expectation":
        return le_signal(ctx, p, cfg.levels)
    if cfg.estimator == "coma":
        return coma_signal(ctx, p)
    if cfg.estimator == "reinforce":
        return reinforce_signal(ctx, p, 0.0)
    if cfg.estimator == "reinforce_meanbaseline":
        return reinforce_signal(ctx, p, float(np.mean(ctx.reward)))
    raise ValueError(f"unknown estimator {cfg.estimator!r}")


def train_step(net, adam, dataset, cfg, rng, t):
    """One optimization step; returns the diagnostics row.

    The B crops are scored as one (B, H, W) stack: one reward context and
    one estimator call per step, and one anisotropy loss and gradient call
    on the stack of B flat-gray outputs. Draw order per iteration is fixed
    (image pick, crop offsets, noise map per sample; then the action
    uniforms of the whole stack; then the B grays and the B noise maps of
    the anisotropy batch), so a seed pins the whole run.
    """
    size, b = cfg.crop_size, cfg.batch_size
    mcfg = cfg.metric_config()
    x = np.empty((b, 2, size, size))
    for i in range(b):
        img = dataset[rng.randint(len(dataset))]
        x[i, 0] = random_crop(rng, img, size)
        x[i, 1] = gaussian_noise_map(rng, size, size)
    p = net.forward(x)[:, 0]

    ctx = make_sample(p, x[:, 0], rng, mcfg, cfg.levels)
    signal = _signal(ctx, p, cfg)
    net.zero_grad()
    net.backward(signal[:, None] / b)
    mean_reward = float(np.mean(ctx.reward))
    bin_gap = float(np.mean(np.abs(p - np.rint(p))))
    # nothing reads the reward maps again; free them before the second pass
    del ctx, signal

    l_as = math.nan
    if cfg.w_a != 0.0 and (cfg.levels == 2 or cfg.multitone_anisotropy):
        xg = np.empty((b, 2, size, size))
        xg[:, 0] = rng.uniforms(b)[:, None, None]
        for i in range(b):
            xg[i, 1] = gaussian_noise_map(rng, size, size)
        pg = net.forward(xg)[:, 0]
        part = ring_partition((size, size))
        l_as = float(np.mean(anisotropy_loss(pg, part)))
        dpg = anisotropy_loss_backward(pg, part)
        net.backward(dpg[:, None] * (cfg.w_a / b))

    lr = cosine_lr(t, cfg.iterations, cfg.lr_start, cfg.lr_end)
    adam.step(lr)
    return {"iteration": t, "reward": mean_reward, "l_as": l_as,
            "bin_gap": bin_gap, "lr": lr}


def train_loop(cfg, dataset, resume_path=None, on_iteration=None):
    """Run Algorithm-style training; returns (net, adam, rng).

    resume_path restores parameters, Adam state, iteration counter and the
    RNG state words, so a split run reproduces an unsplit one exactly.
    """
    cfg.validate()
    if not dataset:
        raise ValueError("dataset is empty")
    rng = Rng(cfg.seed)
    net = PolicyNetwork(channels=cfg.channels, blocks=cfg.blocks)
    adam = Adam(net.params())
    net.init_params(rng)
    start = 0
    if resume_path is not None:
        meta = load_checkpoint(resume_path, net, adam)
        start = meta["iteration"]
        rng.set_state_words(meta["rng_state"])
    for t in range(start, cfg.iterations):
        try:
            diag = train_step(net, adam, dataset, cfg, rng, t)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"training diverged at iteration {t + 1}: {exc}") from exc
        if on_iteration is not None:
            on_iteration(t, diag, net, adam, rng)
    return net, adam, rng


def infer_halftone(net, c, rng, level_count=2):
    """Run the policy once and round each output to its more probable cast
    level (ties go up; for L=2 this thresholds at 0.5, ties white).
    Returns (m, p)."""
    c = np.asarray(c, dtype=np.float64)
    z = gaussian_noise_map(rng, c.shape[1], c.shape[0])
    p = net.forward(np.stack((c, z))[None], train=False)[0, 0]
    floor_vals, ceil_vals, p_ceil = _cast_two_point(p, level_count)
    return np.where(p_ceil >= 0.5, ceil_vals, floor_vals), p
