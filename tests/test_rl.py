"""Policy-gradient estimators and the training loop.

The core claim is unbiasedness: for each estimator, the policy-weighted
average of the injected signal over every joint action map must equal minus
the exhaustive-enumeration gradient of the expected reward. The 1x1
identity-filter instance additionally has a closed form (R = -(h-c)^2) that
is checked symbolically.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from htlab import nn, rl
from htlab.hvs import HvsConfig, build_kernel, convolve_same
from htlab.imagecore import Rng, constant_image
from htlab.metrics import MetricConfig, delta_map
from htlab.metrics import RewardContext as build_reward
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


BINARY = TrainConfig()


def signal(estimator, ctx, p):
    """The estimator's dL/dp for the action map ctx.h under policy p."""
    return ESTIMATORS[estimator](ctx, p, BINARY)


def expected_signal(estimator, p, c, cfg):
    """The policy-weighted signal over every joint action map of one image
    or of a whole (B, H, W) stack."""
    total = np.zeros_like(p)
    for m in oracles.enumerate_bit_maps(p.shape):
        sig = signal(estimator, build_reward(m, c, cfg), p)
        total += policy_weight(p, m) * sig
    return total


def minus_gradient(p, c, cfg):
    """-dE[R]/dp of each image by enumeration; the images of a stack are
    independent, so each one's reward moves only with its own p."""
    images = (-1,) + p.shape[-2:]
    return -np.stack([exact_gradient_oracle(pi, ci, cfg) for pi, ci in zip(
        p.reshape(images), c.reshape(images))]).reshape(p.shape)


def per_image_signal(estimator, parts, p):
    """A stack's signal as its images give it alone, except that an image's
    mean baseline is the mean reward of the stack's other images."""
    if estimator != "reinforce_meanbaseline":
        return np.stack([signal(estimator, part, pi)
                         for part, pi in zip(parts, p)])
    r = np.array([part.reward for part in parts])
    others = (r.sum() - r) / (r.size - 1)
    return np.stack([reinforce_signal(part, pi, baseline)
                     for part, pi, baseline in zip(parts, p, others)])


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

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_every_estimator_unbiased(self, estimator):
        # a 2-image stack, so that the mean baseline has an image to read
        p = np.array([[[0.55]], [[0.8]]])
        c = np.full_like(p, self.C)
        got = expected_signal(estimator, p, c, IDENTITY)
        assert np.max(np.abs(got - (1.0 - 2 * self.C))) < 1e-12


class TestUnbiasedness:
    # (2, 2, 2) is a stack of two images, where the mean baseline of one
    # is the other's reward
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_expected_signal_equals_minus_oracle(self, shape, estimator):
        rng = Rng(31)
        p = 0.1 + 0.8 * rng.uniforms(math.prod(shape)).reshape(shape)
        c = rng.uniforms(math.prod(shape)).reshape(shape)
        want = minus_gradient(p, c, SMALL)
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

    # the context build, plus one delta per pixel for the estimators that
    # read the flip difference
    EVALS = {"local_expectation": 1 + 16, "coma": 1 + 16, "reinforce": 1,
             "reinforce_meanbaseline": 1}

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_eval_counts_per_estimator(self, estimator):
        ctx, p = self._sample()
        assert ctx.eval_count == 1
        signal(estimator, ctx, p)
        assert ctx.eval_count == self.EVALS[estimator]

    def test_coma_and_reinforce_reject_multitone(self):
        rng = Rng(47)
        c = helpers.random_contone(rng, 3, 3)
        v = helpers.random_contone(rng, 3, 3)
        ctx = make_sample(v, c, Rng(1), SMALL, level_count=4)
        with pytest.raises(ValueError):
            coma_signal(ctx, v)
        with pytest.raises(ValueError):
            reinforce_signal(ctx, v, 0.0)


class TestComaOdds:
    """coma_signal is the counterfactual-baseline formula solved into the
    odds; per sample it must equal the formula written out
    (oracles.coma_signal_counterfactual) to rounding, with p exactly 0 and
    1 included, and equal local expectation's signal times the odds
    wherever the cast does not collapse."""

    def test_matches_the_counterfactual_baseline(self):
        rng = Rng(59)
        c = np.stack([helpers.random_contone(rng, 16, 16) for _ in range(4)])
        p = np.stack([helpers.random_contone(rng, 16, 16) for _ in range(4)])
        p[0, :4], p[0, 4:8] = 0.0, 1.0
        # actions from p itself, and from 0.5, which also puts pixels where
        # p is 0 or 1 on the action p never takes
        for h_policy in (p, np.full_like(p, 0.5)):
            for seed in range(3):
                h = sample_actions(h_policy, Rng(seed))
                got = coma_signal(build_reward(h, c, SMALL), p)
                want = oracles.coma_signal_counterfactual(
                    build_reward(h, c, SMALL), p)
                bound = 1e-12 * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound

                inside = (p > 0.0) & (p < 1.0)
                q = p[inside]
                odds = np.where(h[inside] == 1.0, (1.0 - q) / q, q / (1.0 - q))
                le = le_signal(build_reward(h, c, SMALL), p, 2)
                assert np.allclose(got[inside], le[inside] * odds,
                                   rtol=1e-9, atol=0.0)
                # on the support, p at 0 or 1 collapses local expectation's
                # cast to 0 there; coma's clipped odds do not
                if h_policy is p:
                    assert not np.any(le[~inside])
                assert np.all(got[~inside] != 0.0)


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

            for estimator in ESTIMATORS:
                got = signal(estimator, build_reward(h, c, cfg), p)
                want = per_image_signal(
                    estimator, [build_reward(hi, ci, cfg)
                                for hi, ci in zip(h, c)], p)
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
        # kernels that are not finite: sigma^2 underflows to 0, and S = inf
        {"hvs_model": "gaussian", "hvs_sigma": 1e-200},
        {"hvs_scale": float("inf")},
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

    def test_mean_baseline_trains_a_batch_of_one(self):
        # a lone image's leave-one-out baseline is 0: its steps are plain
        # REINFORCE's, byte for byte, and they move the parameters
        cfg = TrainConfig(iterations=5, batch_size=1, crop_size=8,
                          channels=2, blocks=0, w_a=0.0, seed=3,
                          estimator="reinforce_meanbaseline",
                          hvs_model="gaussian", hvs_size=5, hvs_sigma=1.5)
        dataset = [helpers.natural_crop(size=12, seed=1)]
        start = nn.PolicyNetwork(channels=2, blocks=0)
        start.init_params(Rng(cfg.seed))
        net, _, _ = train_loop(cfg, dataset)
        plain, _, _ = train_loop(replace(cfg, estimator="reinforce"), dataset)
        assert any(np.any(a.value != b.value)
                   for a, b in zip(start.params(), net.params()))
        for a, b in zip(net.params(), plain.params()):
            assert a.value.tobytes() == b.value.tobytes()

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


class TestStepDraws:
    """train_step takes a step's draws in one request; the inputs, the
    action map, the anisotropy batch and the Rng state after the step must
    be those of one Rng call per draw (oracles.train_step_draws_per_call),
    byte for byte."""

    DATA = [helpers.natural_crop(size=40, seed=3),
            helpers.natural_crop(size=36, seed=4), constant_image(0.3, 33, 35)]

    CASES = ([(size, 2, estimator, w_a) for size in (32, 7)
              for estimator in ESTIMATORS for w_a in (0.0, 0.002)]
             + [(size, 3, "local_expectation", w_a) for size in (32, 7)
                for w_a in (0.0, 0.002)])

    @pytest.mark.parametrize("size,levels,estimator,w_a", CASES)
    def test_one_request_gives_the_per_call_bytes(self, size, levels,
                                                  estimator, w_a,
                                                  monkeypatch):
        cfg = TrainConfig(iterations=3, batch_size=3, crop_size=size,
                          channels=2, blocks=1, w_a=w_a, seed=9,
                          estimator=estimator, levels=levels,
                          hvs_model="gaussian", hvs_size=3, hvs_sigma=1.0)
        net = nn.PolicyNetwork(channels=2, blocks=1)
        net.init_params(Rng(11), std=0.3)
        inputs, samples = [], []
        forward = net.forward

        def recording_forward(x, train=True):
            inputs.append(x.copy())
            return forward(x, train)

        def recording_sample(p, c, rng, mcfg, level_count):
            ctx = make_sample(p, c, rng, mcfg, level_count)
            samples.append((p.copy(), ctx.h.copy()))
            return ctx

        monkeypatch.setattr(net, "forward", recording_forward)
        monkeypatch.setattr(rl, "make_sample", recording_sample)
        rng = Rng(13)
        rl.train_step(net, nn.Adam(net.params()), self.DATA, cfg, rng, 0)
        want_rng = Rng(13)
        x, actions, xg = oracles.train_step_draws_per_call(
            self.DATA, cfg, want_rng, samples[0][0])
        assert inputs[0].tobytes() == x.tobytes()
        assert samples[0][1].tobytes() == actions.tobytes()
        assert len(inputs) == (1 if xg is None else 2)
        if xg is not None:
            assert inputs[1].tobytes() == xg.tobytes()
        assert rng.state_words() == want_rng.state_words()
