import math

import numpy as np
import pytest

from htlab import classic, metrics, spectral
from htlab.hvs import (HvsConfig, build_gaussian_kernel, build_kernel,
                       build_nasanen_kernel, convolve_same, dump_kernel_csv,
                       nasanen_frequency_response)
from htlab.imagecore import Rng

from oracles import conv2d_same_brute

# frozen from the closed form a*L^b*exp(-f/(c*ln L + d)) with a=131.6,
# b=0.3188, c=0.525, d=3.91, L=11
NASANEN_AT_0 = 282.65187927205363
NASANEN_AT_10 = 40.83610282519077


class TestGaussianKernel:
    def test_matches_closed_form_3x3(self):
        got = build_gaussian_kernel(3, 1.5)
        want = np.array([[math.exp(-(dy * dy + dx * dx) / (2.0 * 1.5 ** 2))
                          for dx in (-1, 0, 1)] for dy in (-1, 0, 1)])
        want /= want.sum()
        assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("size", [1, 3, 5, 7, 11])
    def test_normalized_symmetric_positive(self, size):
        k = build_gaussian_kernel(size, 2.0)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.array_equal(k, k[::-1, :])
        assert np.array_equal(k, k[:, ::-1])
        assert np.array_equal(k, k.T)
        assert k.min() > 0.0

    def test_size_one_is_identity(self):
        assert np.array_equal(build_gaussian_kernel(1, 2.0), [[1.0]])

    def test_monotone_from_center(self):
        k = build_gaussian_kernel(7, 1.5)
        center = k[3, 3]
        assert center == k.max()
        assert k[3, 3] > k[3, 4] > k[3, 5] > k[3, 6]

    def test_size_bound_matches_nasanen_grid(self):
        assert build_gaussian_kernel(127, 2.0).shape == (127, 127)
        for build in (build_gaussian_kernel, build_nasanen_kernel):
            with pytest.raises(ValueError, match="kernel"):
                build(129, 2.0)


class TestNasanenKernel:
    def test_frequency_response_literals(self):
        assert abs(nasanen_frequency_response(0.0) - NASANEN_AT_0) < 1e-10
        assert abs(nasanen_frequency_response(10.0) - NASANEN_AT_10) < 1e-10

    def test_response_is_monotone_decreasing(self):
        f = np.linspace(0.0, 60.0, 200)
        r = nasanen_frequency_response(f)
        assert np.all(np.diff(r) < 0.0)

    def test_kernel_shape_sum_symmetry(self):
        k = build_nasanen_kernel(11, 2000.0)
        assert k.shape == (11, 11)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.allclose(k, k[::-1, :], atol=1e-15, rtol=0.0)
        assert np.allclose(k, k[:, ::-1], atol=1e-15, rtol=0.0)
        assert np.allclose(k, k.T, atol=1e-15, rtol=0.0)
        assert k[5, 5] == k.max()

    def test_larger_scale_spreads_the_kernel(self):
        # more pixels per degree pushes the cutoff lower in cycles/pixel,
        # so the spatial kernel must widen
        def m2(weights):
            n = weights.shape[0]
            off = np.arange(n) - n // 2
            yy, xx = np.meshgrid(off, off, indexing="ij")
            return float(np.sum(weights * (yy * yy + xx * xx)))

        assert m2(build_nasanen_kernel(11, 4000.0)) > \
            m2(build_nasanen_kernel(11, 2000.0))

    def test_build_kernel_dispatch(self):
        nas = build_kernel(HvsConfig())
        assert np.array_equal(nas, build_nasanen_kernel(11, 2000.0))
        gau = build_kernel(HvsConfig(model="gaussian", size=5, sigma=1.25))
        assert np.array_equal(gau, build_gaussian_kernel(5, 1.25))
        with pytest.raises(ValueError):
            build_kernel(HvsConfig(model="boxcar"))
        with pytest.raises(ValueError):
            build_kernel(HvsConfig(size=10))


class TestCachedArrays:
    """Each kernel, SSIM window, edge table and ring partition is built once
    per configuration and shared by every caller, so none may be written."""

    def test_one_array_per_config(self):
        for cfg in (HvsConfig(), HvsConfig(model="gaussian", size=5)):
            assert build_kernel(cfg) is build_kernel(cfg)
        mcfg = metrics.MetricConfig()
        ctx = metrics.reward(np.zeros((12, 12)), np.zeros((12, 12)), mcfg)
        assert ctx.kernel is build_kernel(mcfg.hvs)
        assert ctx.w is build_gaussian_kernel(mcfg.ssim_window,
                                              mcfg.ssim_sigma)

    def test_writes_raise(self):
        mcfg = metrics.MetricConfig()
        part = spectral.ring_partition((6, 6))
        shared = [build_kernel(HvsConfig()),
                  build_kernel(HvsConfig(model="gaussian")),
                  build_gaussian_kernel(mcfg.ssim_window, mcfg.ssim_sigma),
                  classic._edge_class(HvsConfig(), (1, 5, 0, 5))[0],
                  part.ring_index, part.radii, part.counts]
        for arr in shared:
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1
            assert np.array_equal(arr, before)


class TestConvolveSame:
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_matches_brute_oracle_asymmetric_kernel(self, ksize):
        rng = Rng(14)
        img = rng.uniforms(63).reshape(7, 9)
        weights = rng.uniforms(ksize * ksize).reshape(ksize, ksize) - 0.3
        out = convolve_same(img, weights)
        assert np.max(np.abs(out - conv2d_same_brute(img, weights))) < 1e-13

    def test_kernel_flip_convention(self):
        # true convolution: an off-center impulse in the kernel shifts the
        # image the opposite way
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0            # kernel offset (-1, 0)
        out = convolve_same(img, weights)
        want = np.zeros((5, 5))
        want[1, 2] = 1.0               # impulse moves up by one row
        assert np.array_equal(out, want)

    def test_valid_mask(self):
        # pixels whose whole 5x5 window lies inside the image see no padding
        img = np.ones((6, 8))
        weights = np.full((5, 5), 1.0 / 25.0)
        out = convolve_same(img, weights)
        assert np.max(np.abs(out[2:4, 2:6] - 1.0)) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (3,), (1, 3, 3)])
    def test_rejects_even_or_non_square_kernels(self, shape):
        with pytest.raises(ValueError, match="odd and square"):
            convolve_same(np.ones((6, 6)), np.ones(shape))


class TestKernelCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        kernel = build_nasanen_kernel(11, 2000.0)
        path = tmp_path / "k.csv"
        dump_kernel_csv(kernel, path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert back.shape == (11, 11)
        assert np.array_equal(back, kernel)
