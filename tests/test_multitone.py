"""Multitone lattice casting, sampling, and inference.

The load-bearing facts: casting preserves the mean exactly (the sampled
level is an unbiased estimate of the continuous value), L = 2 reproduces
the binary rules bit for bit (Bernoulli draws u < v, threshold v >= 0.5),
and the local-expectation estimator stays unbiased on the two-point support
of a 3-level policy. Casting and sampling live in `imagecore`, rounding in
`rl`; all take a level count, and these tests drive them through it.
"""

import numpy as np
import pytest

import helpers
import oracles
from htlab import rl
from htlab.hvs import HvsConfig
from htlab.imagecore import Rng, lattice_cast, sample_actions
from htlab.metrics import MetricConfig
from htlab.metrics import RewardContext as build_reward
from htlab.multitone import infer_multitone
from htlab.nn import PolicyNetwork
from htlab.rl import infer_halftone, le_signal
from oracles import exact_gradient_oracle

SMALL = MetricConfig(ssim_window=3,
                     hvs=HvsConfig(model="gaussian", size=3, sigma=1.0))


class FixedPolicy:
    """Stands in for the network: forward returns the given value map, so
    inference rounds exactly these values."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def forward(self, x, train=True):
        return self.v[None, None]


def rounded(v, count):
    """Inference's lattice rounding applied to the value map v."""
    v = np.asarray(v, dtype=np.float64)
    m, _ = infer_multitone(FixedPolicy(v), np.zeros_like(v), count, Rng(0))
    return m


@pytest.mark.parametrize("level_count", [1, 0])
def test_a_lattice_needs_two_levels(level_count):
    v = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="at least 2 levels"):
        lattice_cast(v, level_count)
    with pytest.raises(ValueError, match="at least 2 levels"):
        sample_actions(v, Rng(0), level_count)
    with pytest.raises(ValueError, match="at least 2 levels"):
        infer_multitone(FixedPolicy(v), v, level_count, Rng(0))


class TestCast:
    def test_expectation_preserved(self):
        v = helpers.random_contone(Rng(3), 8, 8)
        floor_vals, ceil_vals, p_ceil = lattice_cast(v, 5)
        mean = floor_vals * (1.0 - p_ceil) + ceil_vals * p_ceil
        assert np.max(np.abs(mean - v)) < 1e-12
        assert np.all(ceil_vals - floor_vals <= 0.25 + 1e-15)

    def test_on_lattice_collapse(self):
        floor_vals, ceil_vals, p_ceil = lattice_cast(
            np.array([[0.5, 1.0, 0.0]]), 3)
        assert floor_vals.tolist() == [[0.5, 1.0, 0.0]]
        assert ceil_vals.tolist() == [[0.5, 1.0, 0.0]]
        assert p_ceil.tolist() == [[0.0, 0.0, 0.0]]

    def test_binary_reduction_is_bitwise(self):
        v = helpers.random_contone(Rng(5), 6, 6)
        floor_vals, ceil_vals, p_ceil = lattice_cast(v, 2)
        assert np.array_equal(floor_vals, np.zeros((6, 6)))
        assert np.array_equal(ceil_vals, np.ones((6, 6)))
        assert np.array_equal(p_ceil, v)

    def test_out_of_range_rejected(self):
        for bad in (1.2, -0.1, np.nan):       # NaN is in no range
            with pytest.raises(ValueError, match="outside"):
                lattice_cast(np.array([[bad, 0.5]]), 3)
            with pytest.raises(ValueError, match="outside"):
                sample_actions(np.array([[bad, 0.5]]), Rng(0))

    def test_empty_map_casts_to_empty(self):
        assert sample_actions(np.zeros((0, 3)), Rng(0)).shape == (0, 3)


class TestSampling:
    def test_binary_sampling_matches_binary_path_bitwise(self):
        v = helpers.random_contone(Rng(7), 8, 8)
        r1, r2 = Rng(9), Rng(9)
        a = sample_actions(v, r1, level_count=2)
        b = (r2.uniforms(v.size).reshape(v.shape) < v).astype(np.float64)
        assert np.array_equal(a, b)
        assert r1.state_words() == r2.state_words()

    def test_samples_live_on_adjacent_levels(self):
        v = helpers.random_contone(Rng(11), 10, 10)
        m = sample_actions(v, Rng(13), 4)
        floor_vals, ceil_vals, _ = lattice_cast(v, 4)
        assert np.all((m == floor_vals) | (m == ceil_vals))

    def test_mean_converges_to_value(self):
        v = np.full((100, 200), 0.37)
        m = sample_actions(v, Rng(17), 5)
        assert abs(m.mean() - 0.37) < 0.005

    def test_on_lattice_is_deterministic(self):
        v = np.full((4, 4), 0.5)
        m = sample_actions(v, Rng(19), 3)
        assert np.array_equal(m, v)


class TestUnbiasedness:
    def test_le_signal_unbiased_on_three_levels(self):
        rng = Rng(23)
        # strictly off-lattice values so every pixel has two support points
        v = 0.05 + 0.4 * helpers.random_contone(rng, 2, 2)
        c = helpers.random_contone(rng, 2, 2)
        floor_vals, ceil_vals, p_ceil = lattice_cast(v, 3)

        total = np.zeros_like(v)
        for sel in oracles.enumerate_bit_maps((2, 2)):
            m = np.where(sel == 1.0, ceil_vals, floor_vals)
            weight = float(np.prod(np.where(sel == 1.0, p_ceil,
                                            1.0 - p_ceil)))
            total += weight * le_signal(build_reward(m, c, SMALL), v, 3)
        want = -exact_gradient_oracle(v, c, SMALL, level_count=3)
        assert np.max(np.abs(total - want)) < 1e-9


class TestQuantize:
    def test_literals(self):
        got = rounded(np.array([[0.37, 0.125, 0.9, 1.0]]), 5)
        # 0.125 sits exactly half way between 0 and 0.25: rounds up
        assert got.tolist() == [[0.25, 0.25, 1.0, 1.0]]

    def test_binary_is_threshold_rule(self):
        v = np.array([[0.49, 0.5, 0.51, 0.0]])
        got = rounded(v, 2)
        assert got.tolist() == [[0.0, 1.0, 1.0, 0.0]]
        assert np.array_equal(got, (v >= 0.5).astype(np.float64))

    def test_idempotent_on_lattice(self):
        v = helpers.random_contone(Rng(29), 5, 5)
        q = rounded(v, 4)
        assert np.array_equal(rounded(q, 4), q)

    def test_just_below_a_tie_rounds_down(self):
        # v * (L-1) + 0.5 rounds up to the tie here, so a rule built on it
        # sends these values to the upper level
        below_half = np.nextafter(0.5, 0.0)
        assert rounded(np.array([[below_half]]), 2).tolist() == [[0.0]]
        assert rounded(np.array([[np.nextafter(0.25, 0.0)]]),
                       3).tolist() == [[0.0]]


class TestInference:
    def _net(self):
        net = PolicyNetwork(channels=2, blocks=0)
        net.init_params(Rng(31), std=0.5)
        return net

    def test_output_on_lattice_and_deterministic(self):
        net = self._net()
        c = helpers.natural_crop(size=10, seed=3)
        m1, v1 = infer_multitone(net, c, 4, Rng(5))
        m2, v2 = infer_multitone(net, c, 4, Rng(5))
        assert np.array_equal(m1, m2)
        assert np.array_equal(v1, v2)
        assert np.all(np.isin(m1, np.arange(4) / 3))
        assert np.all(np.abs(m1 - v1) <= 1.0 / 6.0)
        assert np.array_equal(m1, rounded(v1, 4))

    def test_binary_inference_matches_halftone_path(self):
        net = self._net()
        c = helpers.natural_crop(size=8, seed=9)
        m, v = infer_multitone(net, c, 2, Rng(7))
        h, p = infer_halftone(net, c, Rng(7))
        assert np.array_equal(m, h)
        assert np.array_equal(v, p)
        assert np.array_equal(h, (p >= 0.5).astype(np.float64))


def test_make_multitone_sample_routes_through_shared_path():
    rng = Rng(37)
    c = helpers.random_contone(rng, 4, 4)
    v = helpers.random_contone(rng, 4, 4)
    ctx = rl.make_sample(v, c, Rng(41), SMALL, level_count=3)
    assert np.array_equal(ctx.h, sample_actions(v, Rng(41), 3))
    assert ctx.reward == build_reward(ctx.h, c, SMALL).reward
