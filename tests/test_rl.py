"""Policy-gradient estimators and the training loop.

The core claim is unbiasedness: for each estimator, the policy-weighted
average of the injected signal over every joint action map must equal minus
the exhaustive-enumeration gradient of the expected reward. The 1x1
identity-filter instance additionally has a closed form (R = -(h-c)^2) that
is checked symbolically.
"""

import math

import numpy as np
import pytest

import helpers
import oracles
from htlab import nn, rl
from htlab.hvs import HvsConfig, build_kernel, convolve_same
from htlab.imagecore import Rng
from htlab.metrics import MetricConfig, delta_map
from htlab.metrics import reward as build_reward
from htlab.nn import cosine_lr
from htlab.rl import (ESTIMATORS, TrainConfig, coma_signal, infer_halftone,
                      le_signal, make_sample, reinforce_signal,
                      sample_actions, train_loop)
from oracles import exact_gradient_oracle

SMALL = MetricConfig(ssim_window=3,
                     hvs=HvsConfig(model="gaussian", size=3, sigma=1.0))
IDENTITY = MetricConfig(w_s=0.0, ssim_window=3,
                        hvs=HvsConfig(model="gaussian", size=1, sigma=1.0))


def policy_weight(p, m):
    return float(np.prod(np.where(m == 1.0, p, 1.0 - p)))


def signal(estimator, ctx, p):
    """The estimator's dL/dp for the action map ctx.h under policy p."""
    if estimator == "local_expectation":
        return le_signal(ctx, p, 2)
    if estimator == "coma":
        return coma_signal(ctx, p)
    return reinforce_signal(ctx, p, 0.0)


def expected_signal(estimator, p, c, cfg):
    total = np.zeros_like(p)
    for m in oracles.enumerate_bit_maps(p.shape):
        sig = signal(estimator, build_reward(m, c, cfg), p)
        total += policy_weight(p, m) * sig
    return total


class TestSampling:
    def test_determinism(self):
        p = helpers.random_contone(Rng(1), 6, 6)
        a = sample_actions(p, Rng(5))
        b = sample_actions(p, Rng(5))
        assert np.array_equal(a, b)
        assert set(np.unique(a)).issubset({0.0, 1.0})

    def test_extremes(self):
        assert sample_actions(np.ones((4, 4)), Rng(0)).all()
        assert not sample_actions(np.zeros((4, 4)), Rng(0)).any()

    def test_matches_manual_draws(self):
        p = helpers.random_contone(Rng(2), 3, 5)
        rng = Rng(7)
        manual = (Rng(7).uniforms(15).reshape(3, 5) < p).astype(np.float64)
        assert np.array_equal(sample_actions(p, rng), manual)


class TestClosedForm1x1:
    """Identity filter, w_s = 0: R(h) = -(h - c)^2, so dE[R]/dp =
    R(1) - R(0) = 2c - 1 and the LE signal is the constant 1 - 2c."""

    C = 0.3

    def _arrays(self):
        return (np.array([[0.55]]), np.array([[self.C]]))

    def test_oracle_matches_closed_form(self):
        p, c = self._arrays()
        grad = exact_gradient_oracle(p, c, IDENTITY)
        assert grad[0, 0] == pytest.approx(2 * self.C - 1.0, abs=1e-15)

    def test_le_signal_is_constant(self):
        p, c = self._arrays()
        for m in (np.array([[0.0]]), np.array([[1.0]])):
            sig = le_signal(build_reward(m, c, IDENTITY), p, 2)
            assert sig[0, 0] == pytest.approx(1.0 - 2 * self.C, abs=1e-13)

    def test_all_estimators_unbiased(self):
        p, c = self._arrays()
        want = -exact_gradient_oracle(p, c, IDENTITY)
        for estimator in ("local_expectation", "coma", "reinforce"):
            got = expected_signal(estimator, p, c, IDENTITY)
            assert got[0, 0] == pytest.approx(want[0, 0], abs=1e-12)


class TestUnbiasedness:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("estimator",
                             ["local_expectation", "coma", "reinforce"])
    def test_expected_signal_equals_minus_oracle(self, shape, estimator):
        rng = Rng(31)
        p = 0.1 + 0.8 * helpers.random_contone(rng, *shape)
        c = helpers.random_contone(rng, *shape)
        want = -exact_gradient_oracle(p, c, SMALL)
        got = expected_signal(estimator, p, c, SMALL)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_oracle_matches_finite_differences(self):
        rng = Rng(37)
        p = 0.2 + 0.6 * helpers.random_contone(rng, 1, 3)
        c = helpers.random_contone(rng, 1, 3)

        rewards = {}
        for m in oracles.enumerate_bit_maps((1, 3)):
            rewards[m.tobytes()] = build_reward(m, c, SMALL).reward

        def expected_reward(q):
            total = 0.0
            for m in oracles.enumerate_bit_maps((1, 3)):
                total += policy_weight(q, m) * rewards[m.tobytes()]
            return total

        fd = oracles.fd_gradient(expected_reward, p, eps=1e-6)
        grad = exact_gradient_oracle(p, c, SMALL)
        assert np.max(np.abs(grad - fd)) < 1e-6

    def test_oracle_pixel_guard(self):
        with pytest.raises(ValueError):
            exact_gradient_oracle(np.full((5, 5), 0.5), np.full((5, 5), 0.5),
                                  SMALL)


class TestSamplesAndCounts:
    def _sample(self):
        rng = Rng(41)
        c = helpers.random_contone(rng, 4, 4)
        p = 0.1 + 0.8 * helpers.random_contone(rng, 4, 4)
        return make_sample(p, c, Rng(3), SMALL), p

    def test_make_sample_determinism_and_support(self):
        rng = Rng(43)
        c = helpers.random_contone(rng, 4, 4)
        p = 0.1 + 0.8 * helpers.random_contone(rng, 4, 4)
        ctx1 = make_sample(p, c, Rng(3), SMALL)
        ctx2 = make_sample(p, c, Rng(3), SMALL)
        assert np.array_equal(ctx1.h, ctx2.h)
        assert np.array_equal(ctx1.h, sample_actions(p, Rng(3)))
        assert set(np.unique(ctx1.h)).issubset({0.0, 1.0})
        assert ctx1.reward == build_reward(ctx1.h, c, SMALL).reward
        floor_vals, ceil_vals, p_ceil = rl._cast_two_point(p, 2)
        assert np.array_equal(floor_vals, np.zeros((4, 4)))
        assert np.array_equal(ceil_vals, np.ones((4, 4)))
        assert np.array_equal(p_ceil, p)

    def test_eval_counts_per_estimator(self):
        n = 16
        ctx, p = self._sample()
        assert ctx.eval_count == 1            # context build
        le_signal(ctx, p, 2)
        assert ctx.eval_count == 1 + n        # one delta per pixel

        ctx, p = self._sample()
        coma_signal(ctx, p)
        assert ctx.eval_count == 1 + n

        ctx, p = self._sample()
        reinforce_signal(ctx, p, 0.0)
        assert ctx.eval_count == 1            # scalar reward only

    def test_coma_and_reinforce_reject_multitone(self):
        rng = Rng(47)
        c = helpers.random_contone(rng, 3, 3)
        v = helpers.random_contone(rng, 3, 3)
        ctx = make_sample(v, c, Rng(1), SMALL, level_count=4)
        with pytest.raises(ValueError):
            coma_signal(ctx, v)
        with pytest.raises(ValueError):
            reinforce_signal(ctx, v, 0.0)

    def test_unknown_estimator_rejected_by_the_signal_dispatch(self):
        ctx, p = self._sample()
        with pytest.raises(ValueError, match="unknown estimator"):
            rl._signal(ctx, p, TrainConfig(estimator="qlearning"))


class TestBatchStack:
    """A (B, H, W) stack is scored image by image: every result equals, bit
    for bit, the stack of the per-image results."""

    def test_stack_equals_per_image_results(self):
        rng = Rng(53)
        b, hgt, wid = 3, 6, 7
        c = np.stack([helpers.random_contone(rng, hgt, wid)
                      for _ in range(b)])
        p = 0.1 + 0.8 * np.stack([helpers.random_contone(rng, hgt, wid)
                                  for _ in range(b)])
        h = sample_actions(p, Rng(5))
        other = np.stack([helpers.random_contone(rng, hgt, wid)
                          for _ in range(b)])
        # 6 x 7 images with windows wider than the image: every pixel of
        # the stack must still sum its taps in the single-image order
        gauss5 = HvsConfig(model="gaussian", size=5, sigma=1.5)
        for kernel in (build_kernel(gauss5), build_kernel(HvsConfig())):
            assert convolve_same(c, kernel).tobytes() == np.stack(
                [convolve_same(ci, kernel) for ci in c]).tobytes()

        for cfg in (SMALL, MetricConfig(w_s=0.0, hvs=gauss5), MetricConfig()):
            whole = build_reward(h, c, cfg)
            parts = [build_reward(hi, ci, cfg) for hi, ci in zip(h, c)]
            assert whole.eval_count == b
            for name in ("mse", "cssim_scalar", "reward"):
                assert getattr(whole, name).tobytes() == np.array(
                    [getattr(part, name) for part in parts]).tobytes()
            assert delta_map(whole, other).tobytes() == np.stack(
                [delta_map(part, oi) for part, oi in
                 zip(parts, other)]).tobytes()

            for estimator in ("local_expectation", "coma", "reinforce"):
                got = signal(estimator, build_reward(h, c, cfg), p)
                want = np.stack([signal(estimator, build_reward(hi, ci, cfg),
                                        pi) for hi, ci, pi in zip(h, c, p)])
                assert got.tobytes() == want.tobytes(), estimator

        v = np.stack([helpers.random_contone(rng, hgt, wid)
                      for _ in range(b)])
        m = sample_actions(v, Rng(7), 4)
        got = le_signal(build_reward(m, c, SMALL), v, 4)
        want = np.stack([le_signal(build_reward(mi, ci, SMALL), vi, 4)
                         for mi, ci, vi in zip(m, c, v)])
        assert got.tobytes() == want.tobytes()


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()
        assert set(ESTIMATORS) == {"reinforce", "reinforce_meanbaseline",
                                   "coma", "local_expectation"}

    @pytest.mark.parametrize("kwargs", [
        {"estimator": "qlearning"},
        {"levels": 1},
        {"levels": 4, "estimator": "coma"},
        {"batch_size": 0},
        {"crop_size": 0},
        {"iterations": 0},
        {"channels": 0},
        {"blocks": -1},
        {"log_every": 0},
        {"checkpoint_every": -1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    def test_multitone_le_is_allowed(self):
        TrainConfig(levels=4, estimator="local_expectation").validate()

    def test_metric_config_mapping(self):
        cfg = TrainConfig(w_s=0.1, hvs_model="gaussian", hvs_size=7,
                          hvs_sigma=1.3)
        mcfg = cfg.metric_config()
        assert mcfg.w_s == 0.1
        assert mcfg.hvs == HvsConfig(model="gaussian", size=7, scale=2000.0,
                                     sigma=1.3)


SMOKE = TrainConfig(iterations=150, batch_size=4, crop_size=16, channels=4,
                    blocks=1, w_a=0.0, estimator="local_expectation", seed=0,
                    hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5,
                    lr_start=1e-3, lr_end=1e-4)


class TestTraining:
    def test_reward_improves_and_diagnostics_are_consistent(self):
        dataset = [helpers.natural_crop(size=24, seed=3)]
        rows = []
        train_loop(SMOKE, dataset,
                   on_iteration=lambda t, diag, *_: rows.append(diag))
        assert len(rows) == SMOKE.iterations
        rewards = [r["reward"] for r in rows]
        assert np.mean(rewards[-30:]) > np.mean(rewards[:30])
        assert rows[0]["lr"] == cosine_lr(0, SMOKE.iterations,
                                          SMOKE.lr_start, SMOKE.lr_end)
        assert all(math.isnan(r["l_as"]) for r in rows)   # w_a = 0
        assert all(0.0 <= r["bin_gap"] <= 0.5 for r in rows)

    def test_run_is_seed_deterministic(self):
        cfg = TrainConfig(iterations=4, batch_size=2, crop_size=8,
                          channels=2, blocks=0, w_a=0.001, seed=9,
                          hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5)
        dataset = [helpers.natural_crop(size=12, seed=1)]
        net1, _, rng1 = train_loop(cfg, dataset)
        net2, _, rng2 = train_loop(cfg, dataset)
        for pa, pb in zip(net1.params(), net2.params()):
            assert np.array_equal(pa.value, pb.value)
        assert rng1.state_words() == rng2.state_words()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_loop(SMOKE, [])

    def test_infer_halftone(self):
        dataset = [helpers.natural_crop(size=12, seed=5)]
        cfg = TrainConfig(iterations=2, batch_size=2, crop_size=8,
                          channels=2, blocks=0, w_a=0.0, seed=1,
                          hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5)
        net, _, _ = train_loop(cfg, dataset)
        c = helpers.natural_crop(size=10, seed=7)
        h1, p1 = infer_halftone(net, c, Rng(11))
        h2, p2 = infer_halftone(net, c, Rng(11))
        assert np.array_equal(h1, h2)
        assert np.array_equal(p1, p2)
        assert np.array_equal(h1, (p1 >= 0.5).astype(np.float64))
        assert h1.shape == c.shape


class TestAnisotropyBatchDraw:
    """The B noise maps of the anisotropy batch are one gaussians(B * size^2)
    draw; a resumed run must give the bytes of an unsplit one for an even
    and an odd map size."""

    DATA = [helpers.natural_crop(size=12, seed=2),
            helpers.natural_crop(size=12, seed=6)]

    @pytest.mark.parametrize("size", [4, 5])
    def test_resume_is_byte_identical(self, size, tmp_path):
        cfg = TrainConfig(iterations=4, batch_size=3, crop_size=size,
                          channels=2, blocks=1, w_a=0.002, seed=5,
                          hvs_model="gaussian", hvs_size=3, hvs_sigma=1.0)
        path = str(tmp_path / "mid.htnn")

        def save_mid(t, diag, net, adam, rng):
            if t == 1:
                nn.save_checkpoint(path, net, adam, iteration=2,
                                   rng_state=rng.state_words())

        whole, _, rng_a = train_loop(cfg, self.DATA, on_iteration=save_mid)
        resumed, _, rng_b = train_loop(cfg, self.DATA, resume_path=path)
        assert rng_a.state_words() == rng_b.state_words()
        for pa, pb in zip(whole.params(), resumed.params()):
            assert pa.value.tobytes() == pb.value.tobytes()
