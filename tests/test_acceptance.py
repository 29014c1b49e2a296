"""Acceptance gate: nine end-to-end checks over the whole library.

Each test prints exactly one `CRITERION k PASS|FAIL` line (and registers the
verdict with the conftest terminal summary), then asserts, so a red
criterion is visible both inline and in the session tail.

Summary of the checks:
  1  policy-gradient estimators are unbiased against exhaustive enumeration
  2  toggle deltas equal from-scratch reward recomputation
  3  network and anisotropy-loss backward passes match finite differences
  4  spectral definitions: Parseval, ring normalization, white-noise
     calibration, DBS isotropy below the white-noise reference
  5  quality ordering DBS > error diffusion > ordered dither (HVS PSNR) on
     a natural crop; at gray 0.5 the checkerboard tie, a DBS fixed point
  6  training smoke run: saturated, tone-true, better than white noise
  7  contrast-weighted SSIM ignores flat regions exactly
  8  multitone: L=2 reduces to the binary rules; L=3 estimator unbiased
  9  every CLI command is byte-deterministic under a fixed seed
"""

import functools
import hashlib
import time
from pathlib import Path

import numpy as np

import conftest
import helpers
import oracles
from htlab import cli, rl
from htlab.classic import (dbs_search, floyd_steinberg, ordered_dither,
                           white_noise_threshold)
from htlab.hvs import HvsConfig
from htlab.imagecore import Rng, constant_image, save_pgm
from htlab.metrics import MetricConfig, cssim, delta_map, hvs_mse, psnr, ssim
from htlab.metrics import RewardContext as build_reward
from htlab.multitone import infer_multitone
from htlab.nn import Conv2d, PolicyNetwork, Workspace
from htlab.rl import (TrainConfig, coma_signal, infer_halftone, le_signal,
                      reinforce_signal, sample_actions, train_loop)
from htlab.spectral import (anisotropy_db, anisotropy_loss,
                            anisotropy_loss_backward, periodogram, rapsd,
                            ring_partition)
from oracles import exact_gradient_oracle

GAUSS3 = HvsConfig(model="gaussian", size=3, sigma=1.0)


def criterion(number):
    """Print the verdict line whatever happens, then re-raise failures."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            failure = None
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                failure = exc
            conftest.record_criterion(number, failure is None)
            print(f"CRITERION {number} {'FAIL' if failure else 'PASS'}")
            if failure is not None:
                raise failure
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# criterion 1: estimator unbiasedness

def _expected_signal(estimator, p, c, cfg):
    """Policy-weighted average of the injected signal over every joint
    action map: the quantity whose negation must equal dE[R]/dp."""
    total = np.zeros_like(p)
    for m in oracles.enumerate_bit_maps(p.shape):
        ctx = build_reward(m, c, cfg)
        if estimator == "local_expectation":
            sig = le_signal(ctx, p, 2)
        elif estimator == "coma":
            sig = coma_signal(ctx, p)
        else:
            sig = reinforce_signal(ctx, p, 0.0)
        weight = float(np.prod(np.where(m == 1.0, p, 1.0 - p)))
        total += weight * sig
    return total


def _instance_grid(base_seed):
    cases = []
    k = 0
    for shape in ((1, 1), (2, 2), (2, 3)):
        for w_s in (0.0, 0.06):
            for _ in range(4):
                rng = Rng(base_seed + k)
                k += 1
                n = shape[0] * shape[1]
                p = 0.1 + 0.8 * rng.uniforms(n).reshape(shape)
                c = rng.uniforms(n).reshape(shape)
                cases.append((p, c, MetricConfig(w_s=w_s, hvs=GAUSS3)))
    return cases


@criterion(1)
def test_criterion_1_estimator_unbiasedness():
    started = time.time()
    cases = _instance_grid(1000)
    assert len(cases) >= 20
    worst = 0.0
    for p, c, cfg in cases:
        want = -exact_gradient_oracle(p, c, cfg)
        for estimator in ("reinforce", "coma", "local_expectation"):
            got = _expected_signal(estimator, p, c, cfg)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-9, f"worst estimator bias {worst:.3e} exceeds 1e-9"
    assert time.time() - started < 60.0


# ---------------------------------------------------------------------------
# criterion 2: toggle-delta exactness

@criterion(2)
def test_criterion_2_toggle_delta_exactness():
    started = time.time()
    cfg = MetricConfig()
    worst = 0.0
    for instance in range(10):
        rng = Rng(2000 + instance)
        c = rng.uniforms(256).reshape(16, 16)
        h = (rng.uniforms(256).reshape(16, 16) < 0.5).astype(np.float64)
        ctx = build_reward(h, c, cfg)
        fast = delta_map(ctx, 1.0 - h)
        for a in range(256):
            flipped = h.copy()
            flipped.flat[a] = 1.0 - flipped.flat[a]
            slow = build_reward(flipped, c, cfg).reward - ctx.reward
            worst = max(worst, abs(fast.flat[a] - slow))
    assert worst <= 1e-12, f"worst toggle-delta error {worst:.3e}"
    assert time.time() - started < 60.0


# ---------------------------------------------------------------------------
# criterion 3: gradient checks

def _param_loss(forward, param, values, x, g):
    keep = param.value.copy()
    param.value[...] = values
    out = float(np.sum(forward(x) * g))
    param.value[...] = keep
    return out


@criterion(3)
def test_criterion_3_gradient_checks():
    started = time.time()

    rng = Rng(3000)
    conv = Conv2d(2, 3, Workspace())
    conv.weight.value[...] = rng.gaussians(conv.weight.value.size) \
        .reshape(conv.weight.value.shape) * 0.5
    conv.bias.value[...] = rng.gaussians(3) * 0.1
    x = rng.uniforms(2 * 5 * 5).reshape(1, 2, 5, 5)
    g = rng.gaussians(3 * 5 * 5).reshape(1, 3, 5, 5)

    def conv_forward(v):
        # a layer reads and returns padded channels-last buffers
        return helpers.crop(conv.forward(helpers.pad(v)))

    conv_forward(x)
    dx = helpers.crop(conv.backward(helpers.pad(g)))
    for param in (conv.weight, conv.bias):
        fd = oracles.fd_gradient(
            lambda v: _param_loss(conv_forward, param, v, x, g), param.value)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(param.grad - fd)) / scale < 1e-4
    fd_x = oracles.fd_gradient(lambda v: float(np.sum(conv_forward(v) * g)),
                               x)
    assert np.max(np.abs(dx - fd_x)) / max(np.max(np.abs(fd_x)), 1e-10) < 1e-4

    net = PolicyNetwork(channels=4, blocks=2)
    net.init_params(Rng(3001), std=0.3)
    xn = Rng(3002).uniforms(2 * 6 * 6).reshape(1, 2, 6, 6)
    gn = Rng(3003).gaussians(6 * 6).reshape(1, 1, 6, 6)
    net.forward(xn)
    net.zero_grad()
    dxn = net.backward(gn)
    for param in net.params():
        fd = oracles.fd_gradient(
            lambda v: _param_loss(net.forward, param, v, xn, gn),
            param.value)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(param.grad - fd)) / scale < 1e-4
    fd_xn = oracles.fd_gradient(
        lambda v: float(np.sum(net.forward(v) * gn)), xn)
    assert np.max(np.abs(dxn - fd_xn)) \
        / max(np.max(np.abs(fd_xn)), 1e-10) < 1e-4

    xa = 0.2 + 0.6 * Rng(3004).uniforms(36).reshape(6, 6)
    part = ring_partition((6, 6))
    grad = anisotropy_loss_backward(xa, part)
    fd_a = oracles.fd_gradient(lambda v: anisotropy_loss(v, part), xa)
    assert np.max(np.abs(grad - fd_a)) \
        / max(np.max(np.abs(fd_a)), 1e-10) < 1e-5

    assert time.time() - started < 120.0


# ---------------------------------------------------------------------------
# criterion 4: spectral definitions

@criterion(4)
def test_criterion_4_spectral_definitions():
    # Parseval: the periodogram integrates to the signal energy
    x = Rng(4000).uniforms(256).reshape(16, 16)
    lhs = float(np.sum(periodogram(x)))
    rhs = float(np.sum(x * x))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    # two-member ring with powers {0.5, 0}: anisotropy exactly 2
    p_hat = np.zeros((2, 4))
    p_hat[0, 2] = 0.5
    assert rapsd(p_hat).anisotropy[1] == 2.0

    # white-noise calibration: 64 seeds at gray 0.5, per-ring linear
    # averaging, then the mean anisotropy in dB must sit within +-2 dB of 0
    c = constant_image(0.5, 64, 64)
    part = ring_partition((64, 64))
    ring_sum = np.zeros(part.radii.size)
    ring_n = np.zeros_like(ring_sum)
    for seed in range(64):
        curve = rapsd(periodogram(white_noise_threshold(c, Rng(seed))), part)
        finite = np.isfinite(curve.anisotropy)
        ring_sum[finite] += curve.anisotropy[finite]
        ring_n[finite] += 1.0
    ring_mean = ring_sum / np.maximum(ring_n, 1.0)
    ring_mean[ring_n == 0.0] = np.nan
    white_db = float(np.nanmean([anisotropy_db(a) for a in ring_mean]))
    assert abs(white_db) <= 2.0, f"white-noise anisotropy {white_db:.3f} dB"

    # DBS isotropy: the anisotropy of the 10-realization averaged
    # periodogram must sit strictly below the white-noise reference level
    white_ref = float(np.nanmean(ring_mean))
    for gray in (0.25, 0.5, 0.75):
        cg = constant_image(gray, 64, 64)
        p_mean = np.zeros((64, 64))
        for seed in range(10):
            h, _ = dbs_search(cg, rng=Rng(seed))
            p_mean += periodogram(h)
        p_mean /= 10.0
        dbs_anis = float(np.nanmean(rapsd(p_mean, part).anisotropy))
        assert dbs_anis < white_ref, (
            f"gray {gray}: DBS mean anisotropy {dbs_anis:.4f} "
            f"(={anisotropy_db(dbs_anis):.2f} dB) not below white-noise "
            f"reference {white_ref:.4f} ({anisotropy_db(white_ref):.2f} dB)")


# ---------------------------------------------------------------------------
# criterion 5: DBS quality ordering

@criterion(5)
def test_criterion_5_dbs_quality_ordering():
    started = time.time()
    score_cfg = MetricConfig(hvs=HvsConfig(model="gaussian", size=11,
                                           sigma=2.0))

    def score(h, c):
        return psnr(hvs_mse(h, c, score_cfg, region="valid"))

    def trace_monotone(trace):
        errors = [row[1] for row in trace]
        return all(b <= a for a, b in zip(errors, errors[1:]))

    failures = []

    # natural crop: the strict ordering the source paper's claims imply
    c = helpers.natural_crop(64, seed=0)
    p_bayer = score(ordered_dither(c, order=8), c)
    p_fs = score(floyd_steinberg(c), c)
    h_dbs, trace = dbs_search(c, rng=Rng(7), hvs_cfg=score_cfg.hvs)
    p_dbs = score(h_dbs, c)
    if not trace_monotone(trace):
        failures.append("natural: DBS error trace not non-increasing")
    if not (p_dbs > p_fs > p_bayer):
        failures.append(
            f"natural: PSNR ordering violated "
            f"(DBS {p_dbs:.2f}, error diffusion {p_fs:.2f}, "
            f"ordered dither {p_bayer:.2f} dB)")

    # gray 0.5: error diffusion and ordered dither both render the Nyquist
    # checkerboard, which no DBS move improves, so the three cannot be
    # strictly ordered there; check that tie instead
    c = constant_image(0.5, 64, 64)
    yy, xx = np.mgrid[0:64, 0:64]
    checker = ((yy + xx) % 2 == 0).astype(np.float64)
    h_bayer = ordered_dither(c, order=8)
    h_fs = floyd_steinberg(c)
    if not np.array_equal(h_bayer, checker):
        failures.append("gray-0.5: ordered dither is not the checkerboard")
    if not np.array_equal(h_fs, checker):
        failures.append("gray-0.5: error diffusion is not the checkerboard")
    p_bayer, p_fs = score(h_bayer, c), score(h_fs, c)
    if p_fs != p_bayer:
        failures.append(
            f"gray-0.5: checkerboard PSNRs differ (error diffusion "
            f"{p_fs:.2f}, ordered dither {p_bayer:.2f} dB)")
    h_fixed, trace = dbs_search(c, hvs_cfg=score_cfg.hvs,
                                seed_halftone=checker)
    if not (np.array_equal(h_fixed, checker) and len(trace) == 1):
        failures.append(
            f"gray-0.5: DBS seeded with the checkerboard left it "
            f"({len(trace)} trace rows)")
    h_dbs, trace = dbs_search(c, rng=Rng(7), hvs_cfg=score_cfg.hvs)
    p_seed = score(white_noise_threshold(c, Rng(7)), c)
    p_dbs = score(h_dbs, c)
    if not trace_monotone(trace):
        failures.append("gray-0.5: DBS error trace not non-increasing")
    if not p_dbs > p_seed:
        failures.append(
            f"gray-0.5: DBS {p_dbs:.2f} dB not above its white-noise "
            f"seed {p_seed:.2f} dB")
    assert not failures, "; ".join(failures)
    assert time.time() - started < 120.0


# ---------------------------------------------------------------------------
# criterion 6: training smoke test

@criterion(6)
def test_criterion_6_training_smoke():
    started = time.time()

    def tilted_ramp(seed):
        r = Rng(seed)
        gx = r.uniform() * 2.0 - 1.0
        gy = r.uniform() * 2.0 - 1.0
        lo = 0.1 + 0.3 * r.uniform()
        hi = 0.6 + 0.3 * r.uniform()
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        t = gx * xx + gy * yy
        t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
        return lo + (hi - lo) * t

    dataset = (
        [constant_image(g, 64, 64) for g in
         (0.15, 0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.85)]
        + [tilted_ramp(s) for s in range(6)]
        + [helpers.natural_crop(64, seed=s) for s in range(6)]
    )
    assert len(dataset) == 20

    cfg = TrainConfig(iterations=3000, batch_size=8, crop_size=32,
                      channels=8, blocks=2, w_s=0.06, w_a=0.002,
                      estimator="local_expectation", seed=0,
                      lr_start=1.2e-2, lr_end=2e-4,
                      hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5)
    net, _, _ = train_loop(cfg, dataset)

    c = constant_image(0.5, 64, 64)
    h, p = infer_halftone(net, c, Rng(123))
    mcfg = cfg.metric_config()
    mse_net = hvs_mse(h, c, mcfg, region="valid")
    mse_white = hvs_mse(white_noise_threshold(c, Rng(7)), c, mcfg,
                        region="valid")
    saturated = float(np.mean(np.minimum(p, 1.0 - p) <= 0.05))
    tone = float(np.mean(h))

    failures = []
    if not mse_net <= 0.5 * mse_white:
        failures.append(
            f"(a) HVS MSE {mse_net:.6f} not at most half the white-noise "
            f"baseline {mse_white:.6f}")
    if not saturated >= 0.9:
        failures.append(
            f"(b) only {saturated:.1%} of probabilities within 0.05 of "
            f"binary")
    if not abs(tone - 0.5) < 0.05:
        failures.append(f"(c) mean tone {tone:.4f} off by >= 0.05")
    assert not failures, (
        f"MSE ratio {mse_net / mse_white:.4f}, saturated {saturated:.1%}, "
        f"tone {tone:.4f}; failed: " + "; ".join(failures))
    assert time.time() - started < 1800.0


# ---------------------------------------------------------------------------
# criterion 7: contrast-weighted SSIM on flat regions

@criterion(7)
def test_criterion_7_flat_region_structural_score():
    c = constant_image(2.0 / 255.0, 64, 64)
    h = ordered_dither(c, order=8)
    assert 0.0 < float(h.mean()) < 1.0      # a non-trivial halftone
    ssim_scalar, _ = ssim(h, c)
    cssim_scalar, _ = cssim(h, c)
    assert cssim_scalar == 1.0
    assert ssim_scalar < 1.0


# ---------------------------------------------------------------------------
# criterion 8: multitone reduction

@criterion(8)
def test_criterion_8_multitone_reduction():
    # L=2 sampling is byte-identical to Bernoulli draws u < v, and leaves
    # the generator in the identical state
    v = helpers.random_contone(Rng(8000), 8, 8)
    rng_a, rng_b = Rng(8001), Rng(8001)
    m_multi = sample_actions(v, rng_a, level_count=2)
    m_binary = (rng_b.uniforms(v.size).reshape(v.shape) < v).astype(
        np.float64)
    assert m_multi.tobytes() == m_binary.tobytes()
    assert rng_a.state_words() == rng_b.state_words()

    # L=2 inference is byte-identical to thresholding the policy at 0.5
    net = PolicyNetwork(channels=2, blocks=0)
    net.init_params(Rng(8002), std=0.5)
    c = helpers.natural_crop(16, seed=3)
    m_inferred, p_inferred = infer_multitone(net, c, 2, Rng(8003))
    h_inferred, _ = infer_halftone(net, c, Rng(8003))
    assert m_inferred.tobytes() == h_inferred.tobytes()
    assert m_inferred.tobytes() == (p_inferred >= 0.5).astype(
        np.float64).tobytes()

    # L=3 local-expectation unbiasedness on the criterion-1 instance grid
    worst = 0.0
    for p, c, cfg in _instance_grid(8100):
        floor_vals, ceil_vals, p_ceil = rl._cast_two_point(p, 3)
        total = np.zeros_like(p)
        for sel in oracles.enumerate_bit_maps(p.shape):
            m = np.where(sel == 1.0, ceil_vals, floor_vals)
            weight = float(np.prod(np.where(sel == 1.0, p_ceil,
                                            1.0 - p_ceil)))
            total += weight * le_signal(build_reward(m, c, cfg), p, 3)
        want = -exact_gradient_oracle(p, c, cfg, level_count=3)
        worst = max(worst, float(np.max(np.abs(total - want))))
    assert worst <= 1e-9, f"worst three-level estimator bias {worst:.3e}"


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism

def _run_and_hash(argv, outputs):
    assert cli.main(argv) == 0, f"command failed: {argv}"
    digests = {}
    for path in outputs:
        digests[str(path)] = hashlib.sha256(
            Path(path).read_bytes()).hexdigest()
    return digests


@criterion(9)
def test_criterion_9_cli_determinism(tmp_path):
    src = tmp_path / "in.pgm"
    save_pgm(helpers.natural_crop(24, seed=2), str(src))
    data = tmp_path / "data"
    data.mkdir()
    for k in (1, 2):
        save_pgm(helpers.natural_crop(16, seed=k), str(data / f"im{k}.pgm"))

    run = tmp_path / "run"
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        f"dataset_dir = {data}\n"
        f"out_dir = {run}\n"
        "iterations = 4\nbatch_size = 2\ncrop_size = 8\n"
        "channels = 2\nblocks = 0\nw_s = 0.06\nw_a = 0.001\n"
        "estimator = local_expectation\nseed = 3\nlog_every = 1\n"
        "checkpoint_every = 2\nhvs_model = gaussian\nhvs_size = 5\n"
        "hvs_sigma = 1.5\n")

    halftone_out = tmp_path / "h.pbm"
    halftone_trace = tmp_path / "h_trace.csv"
    eval_out = tmp_path / "eval.csv"
    spectra_out = tmp_path / "spectra.csv"
    kernel_out = tmp_path / "kernel.csv"

    jobs = [
        (["halftone", "--input", str(src), "--output", str(halftone_out),
          "--method", "dbs", "--seed", "5", "--max-sweeps", "4",
          "--trace", str(halftone_trace)],
         [halftone_out, halftone_trace]),
        (["train", "--config", str(train_cfg)],
         [run / "model.htnn", run / "log.csv", run / "ckpt_000002.htnn"]),
        (["eval", "--contone-dir", str(data), "--method", "bayer",
          "--output", str(eval_out)],
         [eval_out]),
        (["spectra", "--gray", "0.5", "--method", "white", "--size", "16",
          "--realizations", "3", "--seed", "9", "--output",
          str(spectra_out)],
         [spectra_out]),
        (["dump-kernel", "--model", "gaussian", "--size", "5",
          "--sigma", "1.5", "--output", str(kernel_out)],
         [kernel_out]),
    ]
    for argv, outputs in jobs:
        first = _run_and_hash(argv, outputs)
        second = _run_and_hash(argv, outputs)
        assert first == second, f"{argv[0]} outputs changed across reruns"
