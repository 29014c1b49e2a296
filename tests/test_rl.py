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
from htlab import rl
from htlab.hvs import HvsConfig
from htlab.imagecore import Rng
from htlab.metrics import MetricConfig
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


def forced_sample(p, c, m, cfg, level_count=2):
    """EpisodeSample with the action map fixed instead of drawn."""
    p = np.asarray(p, dtype=np.float64)
    floor_vals, ceil_vals, p_ceil = rl._cast_two_point(p, level_count)
    ctx = build_reward(np.asarray(m, dtype=np.float64), c, cfg)
    return rl.EpisodeSample(c=c, z=np.zeros_like(p), p=p,
                            m=np.asarray(m, dtype=np.float64),
                            floor_vals=floor_vals, ceil_vals=ceil_vals,
                            p_ceil=p_ceil, level_count=level_count, ctx=ctx)


def policy_weight(p, m):
    return float(np.prod(np.where(m == 1.0, p, 1.0 - p)))


def expected_signal(estimator, p, c, cfg):
    total = np.zeros_like(p)
    for m in oracles.enumerate_bit_maps(p.shape):
        s = forced_sample(p, c, m, cfg)
        if estimator == "local_expectation":
            sig = le_signal(s)
        elif estimator == "coma":
            sig = coma_signal(s)
        else:
            sig = reinforce_signal(s)
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
            sig = le_signal(forced_sample(p, c, m, IDENTITY))
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
    def _sample(self, estimator_ready=True):
        rng = Rng(41)
        c = helpers.random_contone(rng, 4, 4)
        p = 0.1 + 0.8 * helpers.random_contone(rng, 4, 4)
        z = np.zeros((4, 4))
        return make_sample(p, c, z, Rng(3), SMALL)

    def test_make_sample_determinism_and_support(self):
        rng = Rng(43)
        c = helpers.random_contone(rng, 4, 4)
        p = 0.1 + 0.8 * helpers.random_contone(rng, 4, 4)
        s1 = make_sample(p, c, np.zeros((4, 4)), Rng(3), SMALL)
        s2 = make_sample(p, c, np.zeros((4, 4)), Rng(3), SMALL)
        assert np.array_equal(s1.m, s2.m)
        assert set(np.unique(s1.m)).issubset({0.0, 1.0})
        assert np.array_equal(s1.floor_vals, np.zeros((4, 4)))
        assert np.array_equal(s1.ceil_vals, np.ones((4, 4)))
        assert np.array_equal(s1.p_ceil, p)

    def test_eval_counts_per_estimator(self):
        n = 16
        s = self._sample()
        assert s.ctx.eval_count == 1          # context build
        le_signal(s)
        assert s.ctx.eval_count == 1 + n      # one delta per pixel

        s = self._sample()
        coma_signal(s)
        assert s.ctx.eval_count == 1 + n

        s = self._sample()
        reinforce_signal(s)
        assert s.ctx.eval_count == 1          # scalar reward only

    def test_coma_and_reinforce_reject_multitone(self):
        rng = Rng(47)
        c = helpers.random_contone(rng, 3, 3)
        v = helpers.random_contone(rng, 3, 3)
        s = make_sample(v, c, np.zeros((3, 3)), Rng(1), SMALL, level_count=4)
        with pytest.raises(ValueError):
            coma_signal(s)
        with pytest.raises(ValueError):
            reinforce_signal(s)


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
