"""Reward metrics: HVS-weighted error, SSIM/CSSIM, the full-region
training reward and its pixel-edit delta map.

The delta tests are the load-bearing ones: delta_map, for binary toggles and
for non-binary targets alike, must agree with rebuilding the reward from
scratch for every pixel, and a target equal to the halftone must give
exactly zero.
"""

import math

import numpy as np
import pytest

import helpers
import oracles
from htlab import metrics
from htlab.classic import ordered_dither
from htlab.hvs import (HvsConfig, build_gaussian_kernel, build_kernel,
                       correlate_separable, gaussian_factor)
from htlab.imagecore import Rng, constant_image
from htlab.metrics import (MetricConfig, _delta_cssim_map, cssim, delta_map,
                           hvs_mse, psnr, region_mask, reward, ssim)

# Small configuration so brute-force oracles stay fast. Gaussian HVS kernel
# (sigma chosen off the window sigma so the two never alias) and a 5-tap
# SSIM window.
SMALL = MetricConfig(ssim_window=5,
                     hvs=HvsConfig(model="gaussian", size=5, sigma=1.2))

# 1x1 HVS kernel: filtering is the identity, so the error term is plain MSE.
IDENTITY_HVS = MetricConfig(ssim_window=3,
                            hvs=HvsConfig(model="gaussian", size=1, sigma=1.0))


def small_cfg(w_s):
    return MetricConfig(w_s=w_s, ssim_window=SMALL.ssim_window, hvs=SMALL.hvs)


def contrast_map(c, cfg):
    """The contone contrast map sigma_c the reward blends CSSIM with."""
    return reward(c, c, cfg).sigma_c


def recomputed_deltas(h, c, cfg, other):
    """R(h with pixel a set to other[a]) - R(h), one rebuild per pixel."""
    base = reward(h, c, cfg).reward
    out = np.empty_like(h)
    for a in range(h.size):
        edited = h.copy()
        edited.flat[a] = other.flat[a]
        out.flat[a] = reward(edited, c, cfg).reward - base
    return out


def checkerboard(height, width):
    yy, xx = np.indices((height, width))
    return ((yy + xx) % 2).astype(np.float64)


def valid_mask_brute(shape, kernel_size, window_size):
    """Region mask built independently of the package."""
    margin = max(kernel_size // 2, window_size // 2)
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * margin and shape[1] > 2 * margin:
        mask[margin:shape[0] - margin, margin:shape[1] - margin] = True
    return mask


class TestRegionMask:
    def test_full_is_all_ones(self):
        mask = region_mask((6, 9), SMALL, "full")
        assert mask.shape == (6, 9)
        assert mask.all()

    def test_valid_margin_is_max_of_kernel_and_window_halves(self):
        # kernel 5 -> half 2, window 7 -> half 3, margin 3
        cfg = MetricConfig(ssim_window=7,
                           hvs=HvsConfig(model="gaussian", size=5, sigma=1.0))
        mask = region_mask((10, 12), cfg, "valid")
        expected = np.zeros((10, 12), dtype=bool)
        expected[3:7, 3:9] = True
        assert np.array_equal(mask, expected)
        assert mask.sum() == 24

    def test_valid_empty_when_image_too_small(self):
        mask = region_mask((3, 3), MetricConfig(), "valid")
        assert not mask.any()

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            region_mask((8, 8), SMALL, "interior")


class TestHvsMse:
    def test_identity_kernel_checkerboard_exact(self):
        # with a 1x1 kernel every pixel error is +-0.5, squared 0.25; all
        # quantities are dyadic so the mean is exact
        h = checkerboard(8, 8)
        c = constant_image(0.5, 8, 8)
        assert hvs_mse(h, c, IDENTITY_HVS, region="full") == 0.25

    def test_matches_brute_oracle_both_regions(self):
        rng = Rng(11)
        c = helpers.random_contone(rng, 10, 12)
        h = helpers.random_halftone(rng, 10, 12)
        k = build_kernel(SMALL.hvs)
        e = (oracles.conv2d_same_brute(h, k)
             - oracles.conv2d_same_brute(c, k))
        for region in ("full", "valid"):
            mask = (np.ones((10, 12), dtype=bool) if region == "full"
                    else valid_mask_brute((10, 12), 5, SMALL.ssim_window))
            want = float(np.mean((e * e)[mask]))
            got = hvs_mse(h, c, SMALL, region=region)
            assert got == pytest.approx(want, abs=1e-13)

    def test_empty_region_is_nan(self):
        h = checkerboard(3, 3)
        c = constant_image(0.5, 3, 3)
        assert math.isnan(hvs_mse(h, c, MetricConfig(), region="valid"))


class TestPsnr:
    def test_literals(self):
        assert psnr(0.0) == math.inf
        assert psnr(1.0) == 0.0
        # -10 log10(1/4) = 20 log10(2)
        assert psnr(0.25) == 6.020599913279624

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psnr(-1e-12)

    def test_nan_propagates(self):
        assert math.isnan(psnr(math.nan))


class TestSsim:
    def test_self_similarity_is_one(self):
        x = helpers.natural_crop(size=24, seed=3)
        scalar, maps = ssim(x, x, SMALL, region="valid")
        assert scalar == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(maps - 1.0)) < 1e-10

    def test_symmetry(self):
        rng = Rng(7)
        x = helpers.random_contone(rng, 9, 9)
        y = helpers.random_halftone(rng, 9, 9)
        sxy, _ = ssim(x, y, SMALL, region="full")
        syx, _ = ssim(y, x, SMALL, region="full")
        assert sxy == syx

    def test_map_matches_brute_oracle(self):
        rng = Rng(23)
        x = helpers.random_contone(rng, 8, 8)
        y = helpers.random_halftone(rng, 8, 8)
        w = build_gaussian_kernel(SMALL.ssim_window, SMALL.ssim_sigma)
        want = oracles.ssim_map_brute(x, y, w, SMALL.c1, SMALL.c2)
        _, s_map = ssim(x, y, SMALL, region="full")
        assert np.max(np.abs(s_map - want)) < 1e-12

    def test_scalar_is_region_mean_of_map(self):
        x = helpers.natural_crop(size=16, seed=1)
        y = checkerboard(16, 16)
        scalar, s_map = ssim(x, y, SMALL, region="valid")
        mask = region_mask((16, 16), SMALL, "valid")
        assert scalar == pytest.approx(float(s_map[mask].mean()),
                                       abs=1e-15)

    def test_empty_region_scalar_is_nan(self):
        x = constant_image(0.4, 3, 3)
        scalar, _ = ssim(x, x, MetricConfig(), region="valid")
        assert math.isnan(scalar)


class TestContrastMap:
    def test_bounds(self):
        sc = contrast_map(helpers.natural_crop(size=20, seed=5), SMALL)
        assert np.all(sc >= 0.0)
        assert np.all(sc <= 1.0)

    def test_flat_interior_is_zero(self):
        # interior windows of a constant image have (numerically) no
        # variance; the border sees zero padding and is excluded
        sc = contrast_map(constant_image(0.3, 24, 24), MetricConfig())
        inner = sc[5:-5, 5:-5]
        assert np.max(inner) < 1e-7

    def test_checkerboard_interior_saturates(self):
        sc = contrast_map(checkerboard(20, 20), MetricConfig())
        assert np.min(sc[5:-5, 5:-5]) > 0.99

    def test_matches_brute_oracle(self):
        rng = Rng(31)
        c = helpers.random_contone(rng, 8, 9)
        w = build_gaussian_kernel(SMALL.ssim_window, SMALL.ssim_sigma)
        want = oracles.contrast_map_brute(c, w, SMALL.contrast_gain)
        assert np.max(np.abs(contrast_map(c, SMALL) - want)) < 1e-12


class TestCssim:
    def test_flat_contone_gates_structure_to_one(self):
        # near-black constant contone: local contrast is exactly zero on the
        # interior, so CSSIM ignores structure entirely and equals 1.0
        # bitwise even though SSIM against the halftone is well below 1
        c = constant_image(2.0 / 255.0, 40, 40)
        h = helpers.random_halftone(Rng(2), 40, 40)
        cs_scalar, _ = cssim(h, c, MetricConfig(), region="valid")
        s_scalar, _ = ssim(h, c, MetricConfig(), region="valid")
        assert cs_scalar == 1.0
        assert s_scalar < 1.0

    def test_blend_formula_against_components(self):
        c = helpers.natural_crop(size=16, seed=9)
        h = helpers.random_halftone(Rng(4), 16, 16)
        _, s_map = ssim(h, c, SMALL, region="full")
        sc = contrast_map(c, SMALL)
        want = sc * s_map + (1.0 - sc)
        _, cs_map = cssim(h, c, SMALL, region="full")
        assert np.array_equal(cs_map, want)

    def test_empty_region_scalar_is_nan(self):
        scalar, _ = cssim(checkerboard(3, 3), constant_image(0.5, 3, 3),
                          MetricConfig(), region="valid")
        assert math.isnan(scalar)


class TestRewardContext:
    def test_scalar_decomposition(self):
        c = helpers.natural_crop(size=14, seed=6)
        h = helpers.random_halftone(Rng(6), 14, 14)
        ctx = reward(h, c, SMALL)
        assert ctx.mse == hvs_mse(h, c, SMALL, region="full")
        assert ctx.cssim_scalar == cssim(h, c, SMALL, region="full")[0]
        assert ctx.reward == -ctx.mse + SMALL.w_s * ctx.cssim_scalar

    def test_reward_matches_brute_oracle(self):
        rng = Rng(41)
        c = helpers.random_contone(rng, 9, 9)
        h = helpers.random_halftone(rng, 9, 9)
        k = build_kernel(SMALL.hvs)
        w = build_gaussian_kernel(SMALL.ssim_window, SMALL.ssim_sigma)
        for w_s in (0.0, 0.06):
            cfg = small_cfg(w_s)
            want = oracles.reward_brute(h, c, k, w, w_s, cfg.c1, cfg.c2,
                                        cfg.contrast_gain,
                                        np.ones((9, 9), dtype=bool))
            assert reward(h, c, cfg).reward == pytest.approx(want, abs=1e-13)

    def test_full_region_scalar_is_mean_of_reward_map(self):
        c = helpers.natural_crop(size=12, seed=2)
        h = helpers.random_halftone(Rng(8), 12, 12)
        ctx = reward(h, c, SMALL)
        reward_map = -ctx.e ** 2 + SMALL.w_s * ctx.cssim_map
        assert ctx.reward == pytest.approx(float(reward_map.mean()),
                                           abs=1e-13)

    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(13, 11), (3, 9, 8)])
    def test_window_sums_equal_the_five_correlation_form(self, levels,
                                                         shape):
        # every window sum is one separable correlation; a binary halftone
        # reuses mu_h for E[h^2], a multitone one keeps the fifth
        # correlation, and both give the bytes of all five. A uniform
        # contone has no flat window, so its variance is the plain
        # one-pass form
        rng = Rng(71)
        h = np.floor(rng.uniforms(math.prod(shape)).reshape(shape)
                     * levels) / (levels - 1)
        c = rng.uniforms(h.size).reshape(shape)
        cfg = MetricConfig()
        g = gaussian_factor(cfg.ssim_window, cfg.ssim_sigma)
        mu_h, shh, shc, contone, _ = metrics._window_stats(h, c, cfg)
        mu_c = correlate_separable(c, g)
        var = np.maximum(correlate_separable(c * c, g) - mu_c * mu_c, 0.0)
        want_contone = (mu_c, mu_c * mu_c, var, np.sqrt(var))
        assert mu_h.tobytes() == correlate_separable(h, g).tobytes()
        assert shh.tobytes() == correlate_separable(h * h, g).tobytes()
        assert shc.tobytes() == correlate_separable(h * c, g).tobytes()
        for got, want in zip(contone, want_contone):
            assert got.tobytes() == want.tobytes()
        assert (shh is mu_h) == (levels == 2)

    @pytest.mark.parametrize("size", [32, 40, 64])
    def test_flat_windows_have_zero_contrast_and_cssim_one(self, size):
        # the window of a flat valid-region pixel holds one value, so its
        # variance is exactly 0 whatever order the sums were taken in
        cfg = MetricConfig()
        mask = region_mask((size, size), cfg, "valid")
        for gray in (0.0, 2.0 / 255.0, 0.1, 0.35, 0.5, 0.7, 0.9, 1.0):
            c = constant_image(gray, size, size)
            h = ordered_dither(c, 8)
            sigma_c = metrics._window_stats(h, c, cfg)[4]
            assert np.all(sigma_c[mask] == 0.0), gray
            assert cssim(h, c, cfg)[0] == 1.0, gray

    def test_flat_mask_sees_the_zero_padding(self):
        # within half a window of the border the padding is part of the
        # window, so a flat nonzero contone has contrast there
        c = constant_image(0.35, 32, 32)
        flat = metrics._flat_windows(c, 11)
        want = np.zeros((32, 32), dtype=bool)
        want[5:-5, 5:-5] = True
        assert np.array_equal(flat, want)
        assert np.all(metrics._flat_windows(np.zeros((3, 7, 4)), 11))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reward(np.zeros((4, 5)), np.zeros((5, 4)), SMALL)

    def test_defined_below_the_valid_region_size(self):
        # a 3x3 image has no valid-region pixel for the default windows, but
        # the full-region reward is defined everywhere
        h = checkerboard(3, 3)
        c = constant_image(0.5, 3, 3)
        assert math.isfinite(reward(h, c, MetricConfig()).reward)


class TestPixelDeltas:
    def _instance(self, w_s, seed=13, size=9):
        rng = Rng(seed)
        c = helpers.random_contone(rng, size, size)
        h = helpers.random_halftone(rng, size, size)
        return h, c, reward(h, c, small_cfg(w_s))

    @pytest.mark.parametrize("w_s", [0.0, 0.06])
    def test_toggle_delta_matches_recompute_every_pixel(self, w_s):
        h, c, ctx = self._instance(w_s)
        want = recomputed_deltas(h, c, ctx.cfg, 1.0 - h)
        assert np.max(np.abs(delta_map(ctx, 1.0 - h) - want)) <= 1e-12

    @pytest.mark.parametrize("w_s", [0.0, 0.06])
    def test_non_binary_targets_match_recompute(self, w_s):
        h, c, ctx = self._instance(w_s, seed=17)
        other = 1.0 - h
        for a, val in ((0, 0.37), (40, 0.91), (80, 0.0)):
            other.flat[a] = val
        want = recomputed_deltas(h, c, ctx.cfg, other)
        assert np.max(np.abs(delta_map(ctx, other) - want)) <= 1e-12

    @pytest.mark.parametrize("w_s", [0.0, 0.06])
    def test_target_equal_to_halftone_is_exactly_zero(self, w_s):
        h, _, ctx = self._instance(w_s, seed=29)
        assert np.all(delta_map(ctx, h) == 0.0)


class TestDeltaMap:
    @pytest.mark.parametrize("w_s", [0.0, 0.06])
    def test_matches_recompute_on_a_lattice_halftone(self, w_s):
        # three-level halftone and off-lattice targets, as the multitone
        # estimator queries them
        rng = Rng(37)
        c = helpers.random_contone(rng, 7, 8)
        h = np.floor(3.0 * helpers.random_contone(rng, 7, 8)) / 2.0
        other = helpers.random_contone(rng, 7, 8)
        cfg = small_cfg(w_s)
        dm = delta_map(reward(h, c, cfg), other)
        assert dm.shape == h.shape
        want = recomputed_deltas(h, c, cfg, other)
        assert np.max(np.abs(dm - want)) <= 1e-12

    def test_w_s_zero_path(self):
        # with w_s = 0 the delta is exactly the change of the full-region
        # HVS MSE, scored by hvs_mse
        cfg = small_cfg(0.0)
        rng = Rng(43)
        c = helpers.random_contone(rng, 6, 6)
        h = helpers.random_halftone(rng, 6, 6)
        dm = delta_map(reward(h, c, cfg), 1.0 - h)
        base = hvs_mse(h, c, cfg, region="full")
        for a in range(h.size):
            h2 = h.copy()
            h2.flat[a] = 1.0 - h2.flat[a]
            want = base - hvs_mse(h2, c, cfg, region="full")
            assert dm.flat[a] == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        ctx = reward(checkerboard(6, 6), constant_image(0.5, 6, 6), SMALL)
        with pytest.raises(ValueError):
            delta_map(ctx, np.zeros((6, 5)))


class TestDeltaCssimLoop:
    """The offset loop forms its per-pixel factors once per call (or once
    per offset) and must give the bytes of the loop that formed them
    inside every offset (oracles.delta_cssim_map_per_offset)."""

    @staticmethod
    def _pair(kind, rng, shape):
        """A halftone and the values its pixels are asked to take."""
        u = rng.uniforms(math.prod(shape)).reshape(shape)
        if kind == "binary":
            h = (u < 0.5).astype(np.float64)
            return h, 1.0 - h
        # three levels, asked for the other level of each pixel's cast
        # pair (as the multitone estimator asks) or for arbitrary values
        h = np.floor(3.0 * u) / 2.0
        if kind == "lattice":
            return h, np.where(h == 1.0, 0.5, h + 0.5)
        return h, rng.uniforms(h.size).reshape(shape)

    @pytest.mark.parametrize("kind", ["binary", "lattice", "off-lattice"])
    @pytest.mark.parametrize("shape", [(8, 32, 32), (23, 19), (7, 8),
                                       (1, 1)])
    def test_bytes_equal_the_per_offset_loop(self, kind, shape):
        # (7, 8) and (1, 1) are smaller than the 11x11 window, so whole
        # rows and columns of offsets fall outside the image
        rng = Rng(53)
        h, other = self._pair(kind, rng, shape)
        c = rng.uniforms(h.size).reshape(shape)
        ctx = reward(h, c, MetricConfig())
        delta = other - ctx.h
        got = _delta_cssim_map(ctx, delta)
        want = oracles.delta_cssim_map_per_offset(ctx, delta)
        assert got.tobytes() == want.tobytes()


class TestEvalCount:
    def test_bookkeeping(self):
        rng = Rng(47)
        c = helpers.random_contone(rng, 6, 6)
        h = helpers.random_halftone(rng, 6, 6)
        ctx = reward(h, c, SMALL)
        assert ctx.eval_count == 1                # building the context
        delta_map(ctx, 1.0 - h)
        assert ctx.eval_count == 1 + h.size       # one per pixel
        delta_map(ctx, h)
        assert ctx.eval_count == 1 + 2 * h.size   # a no-op target counts too
