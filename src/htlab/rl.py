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

All three need at most N+1 reward evaluations per sample: one full build
plus one delta_map over the N pixels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .hvs import HvsConfig
from .imagecore import Rng, gaussian_noise_map, random_crop
from .metrics import MetricConfig, RewardContext
from .nn import Adam, PolicyNetwork, cosine_lr, load_checkpoint
from .spectral import anisotropy_loss, anisotropy_loss_backward, ring_partition

_PROB_FLOOR = 1e-7   # clamp before log-derivative division

ESTIMATORS = ("reinforce", "reinforce_meanbaseline", "coma",
              "local_expectation")


def _cast_two_point(values, level_count):
    """Two nearest lattice levels around each value and the upper-level mass.

    Levels are i/(L-1). On-lattice values collapse to a single support point
    with zero upper mass. For L=2 this reduces bitwise to (0, 1, values).
    """
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


def _sample_two_point(floor_vals, ceil_vals, p_ceil, rng):
    u = rng.uniforms(p_ceil.size).reshape(p_ceil.shape)
    return np.where(u < p_ceil, ceil_vals, floor_vals)


def sample_actions(p, rng, level_count=2):
    """One lattice level per pixel from the cast policy; one uniform per
    pixel, row-major. For L=2 these are independent Bernoulli(p) draws."""
    return _sample_two_point(*_cast_two_point(p, level_count), rng)


@dataclass
class EpisodeSample:
    c: np.ndarray
    z: np.ndarray
    p: np.ndarray              # network output: Bernoulli parameter / value
    m: np.ndarray              # sampled action map (lattice values)
    floor_vals: np.ndarray
    ceil_vals: np.ndarray
    p_ceil: np.ndarray
    level_count: int
    ctx: RewardContext = field(repr=False)


def make_sample(p, c, z, rng, cfg=None, level_count=2):
    """Sample an action map from the factorized policy and build its
    full-region reward context."""
    floor_vals, ceil_vals, p_ceil = _cast_two_point(p, level_count)
    m = _sample_two_point(floor_vals, ceil_vals, p_ceil, rng)
    ctx = metrics.reward(m, c, cfg or MetricConfig())
    return EpisodeSample(c=c, z=z, p=np.asarray(p, dtype=np.float64), m=m,
                         floor_vals=floor_vals, ceil_vals=ceil_vals,
                         p_ceil=p_ceil, level_count=level_count, ctx=ctx)


def _two_point_diff(sample):
    """R(pixel at upper level) - R(pixel at lower level), all pixels at once.
    Zero wherever the support collapsed to a single level."""
    other = np.where(sample.m == sample.ceil_vals,
                     sample.floor_vals, sample.ceil_vals)
    d_other = metrics.delta_map(sample.ctx, other)
    sign = np.where(sample.m == sample.ceil_vals, -1.0, 1.0)
    return sign * d_other


def le_signal(sample):
    """Local-expectation gradient: dL/dp_a = -(R(up) - R(down)) / delta."""
    delta = 1.0 / (sample.level_count - 1)
    return -_two_point_diff(sample) / delta


def _dlogpi(p, h):
    p = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return np.where(h == 1.0, 1.0 / p, -1.0 / (1.0 - p))


def coma_signal(sample):
    """Counterfactual-baseline gradient (binary policies only)."""
    if sample.level_count != 2:
        raise ValueError("coma_signal requires a binary policy")
    h = sample.m
    d_other = metrics.delta_map(sample.ctx, 1.0 - h)
    r_cur = sample.ctx.reward
    r_flip = r_cur + d_other
    r_up = np.where(h == 1.0, r_cur, r_flip)
    r_down = np.where(h == 0.0, r_cur, r_flip)
    p = np.clip(sample.p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    baseline = p * r_up + (1.0 - p) * r_down
    return -_dlogpi(sample.p, h) * (r_cur - baseline)


def reinforce_signal(sample, baseline=0.0):
    """Score-function gradient with an optional scalar baseline."""
    if sample.level_count != 2:
        raise ValueError("reinforce_signal requires a binary policy")
    return -_dlogpi(sample.p, sample.m) * (sample.ctx.reward - baseline)


# ---------------------------------------------------------------------------
# training

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
    anisotropy_batch_size: int = 0      # 0 means: reuse batch_size
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
        if self.channels < 1 or self.blocks < 0:
            raise ValueError("channels must be positive and blocks "
                             "non-negative")
        if self.log_every < 1 or self.checkpoint_every < 0:
            raise ValueError("log_every must be positive and "
                             "checkpoint_every non-negative")


def _signals_for_batch(samples, estimator):
    if estimator == "local_expectation":
        return [le_signal(s) for s in samples]
    if estimator == "coma":
        return [coma_signal(s) for s in samples]
    if estimator == "reinforce":
        return [reinforce_signal(s) for s in samples]
    if estimator == "reinforce_meanbaseline":
        mean_r = float(np.mean([s.ctx.reward for s in samples]))
        return [reinforce_signal(s, baseline=mean_r) for s in samples]
    raise ValueError(f"unknown estimator {estimator!r}")


def train_step(net, adam, dataset, cfg, rng, t):
    """One optimization step; returns the diagnostics row.

    Draw order per iteration is fixed (image pick, crop offsets, noise map
    per sample; then action uniforms; then the anisotropy batch), so a seed
    pins the whole run.
    """
    size = cfg.crop_size
    mcfg = cfg.metric_config()
    crops, noises = [], []
    for _ in range(cfg.batch_size):
        img = dataset[rng.randint(len(dataset))]
        crops.append(random_crop(rng, img, size))
        noises.append(gaussian_noise_map(rng, size, size))
    x = np.stack([np.stack((c, z)) for c, z in zip(crops, noises)])
    p = net.forward(x)[:, 0]

    samples = [make_sample(p[i], crops[i], noises[i], rng, mcfg, cfg.levels)
               for i in range(cfg.batch_size)]
    signals = _signals_for_batch(samples, cfg.estimator)
    net.zero_grad()
    net.backward(np.stack(signals)[:, None] / cfg.batch_size)
    mean_reward = float(np.mean([s.ctx.reward for s in samples]))
    bin_gap = float(np.mean(np.abs(p - np.rint(p))))

    l_as = math.nan
    run_aniso = cfg.w_a != 0.0 and (cfg.levels == 2 or cfg.multitone_anisotropy)
    if run_aniso:
        ba = cfg.anisotropy_batch_size or cfg.batch_size
        grays = [rng.uniform() for _ in range(ba)]
        znoise = [gaussian_noise_map(rng, size, size) for _ in range(ba)]
        xg = np.stack([np.stack((np.full((size, size), g), z))
                       for g, z in zip(grays, znoise)])
        pg = net.forward(xg)[:, 0]
        part = ring_partition((size, size))
        losses = [anisotropy_loss(pg[i], part) for i in range(ba)]
        dpg = np.stack([anisotropy_loss_backward(pg[i], part)
                        for i in range(ba)])
        net.backward(dpg[:, None] * (cfg.w_a / ba))
        l_as = float(np.mean(losses))

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
    p = net.forward(np.stack((c, z))[None])[0, 0]
    floor_vals, ceil_vals, p_ceil = _cast_two_point(p, level_count)
    return np.where(p_ceil >= 0.5, ceil_vals, floor_vals), p
