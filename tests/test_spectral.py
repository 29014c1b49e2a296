"""Periodogram, radial ring statistics, anisotropy, and the differentiable
ring-variance penalty.

The ring partition literals are worked out by hand from the signed
frequency lattice; the crafted two-member-ring case gives an anisotropy of
exactly 2 in dyadic arithmetic, pinning the normalization (divide by n-1,
by the squared ring mean).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from htlab.imagecore import Rng, constant_image
from htlab.spectral import (anisotropy_db, anisotropy_loss,
                            anisotropy_loss_backward, periodogram, rapsd,
                            ring_partition)


class TestPeriodogram:
    def test_matches_direct_dft(self):
        rng = Rng(3)
        x = helpers.random_contone(rng, 5, 6)
        f = oracles.dft2_brute(x)
        want = (np.abs(f) ** 2) / x.size
        assert np.max(np.abs(periodogram(x) - want)) < 1e-10

    def test_parseval(self):
        rng = Rng(5)
        x = helpers.random_contone(rng, 8, 8)
        assert np.sum(periodogram(x)) == pytest.approx(np.sum(x * x),
                                                       rel=1e-10)

    def test_origin_impulse_is_flat(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        p = periodogram(x)
        assert np.all(p == 1.0 / 64.0)

    def test_shifted_impulse_is_flat(self):
        x = np.zeros((8, 8))
        x[3, 5] = 1.0
        p = periodogram(x)
        assert np.max(np.abs(p - 1.0 / 64.0)) < 1e-15

    def test_constant_concentrates_at_dc(self):
        p = periodogram(constant_image(0.3, 8, 8))
        assert p[0, 0] == pytest.approx(64 * 0.09, rel=1e-12)
        off = p.copy()
        off[0, 0] = 0.0
        assert np.max(off) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            periodogram(np.zeros(8))
        with pytest.raises(ValueError):
            periodogram(np.zeros((0, 4)))


class TestRingPartition:
    def test_4x4_literals(self):
        # signed freqs for n=4 are {0, 1, -2, -1}; rounding rho groups the
        # 15 non-DC bins as 8 at radius 1 (rho 1 and sqrt2), 6 at radius 2
        # (rho 2 and sqrt5), 1 at radius 3 (the (-2,-2) corner, rho sqrt8)
        part = ring_partition((4, 4))
        assert part.radii.tolist() == [1, 2, 3]
        assert part.counts.tolist() == [8, 6, 1]
        assert part.bins[0, 0] == 0
        assert part.bins[2, 2] == 3     # the corner bin, alone

    def test_2x2_literals(self):
        part = ring_partition((2, 2))
        assert part.radii.tolist() == [1]
        assert part.counts.tolist() == [3]

    def test_2x4_literals(self):
        # rho values 1, 1, sqrt2, sqrt2, 1 round to ring 1; 2 and sqrt5
        # round to ring 2
        part = ring_partition((2, 4))
        assert part.radii.tolist() == [1, 2]
        assert part.counts.tolist() == [5, 2]

    def test_ring_count(self):
        assert len(ring_partition((4, 4)).radii) == 3

    def test_cached_partition_is_read_only(self):
        part = ring_partition((4, 4))
        assert ring_partition((4, 4)) is part
        for arr in (part.bins, part.radii, part.counts):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ring_partition((0, 4))

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (37, 37), (64, 48),
        (255, 256), (1000, 3), (256, 256)])
    def test_equals_the_unique_form(self, shape):
        part = ring_partition(shape)
        got = (part.bins, part.radii, part.counts)
        for a, b in zip(got, oracles.ring_partition_unique(shape)):
            assert a.dtype == b.dtype
            assert a.shape == b.shape
            assert np.array_equal(a, b)


class TestRapsd:
    def test_crafted_two_member_ring_anisotropy_is_two(self):
        # ring 2 of a 2x4 lattice has exactly the bins (0,-2) and (-1,-2);
        # powers {0.5, 0} give mean 1/4, deviations +-1/4, so
        # A = (2 * (1/4)^2) / ((1/4)^2 * (2-1)) = 2, exactly, in dyadic floats
        p_hat = np.zeros((2, 4))
        p_hat[0, 2] = 0.5
        curve = rapsd(p_hat)
        assert curve.power.tolist() == [0.0, 0.25]
        assert curve.anisotropy[1] == 2.0
        assert math.isnan(curve.anisotropy[0])   # zero-power ring

    def test_ring_means_match_direct_grouping(self):
        rng = Rng(9)
        p_hat = helpers.random_contone(rng, 6, 6)
        part = ring_partition((6, 6))
        curve = rapsd(p_hat, part)
        for i in range(len(part.radii)):
            members = p_hat[part.bins == i + 1]
            assert curve.counts[i] == len(members)
            assert curve.power[i] == pytest.approx(members.mean(), rel=1e-13)
            if len(members) > 1:
                want = (np.sum((members - members.mean()) ** 2)
                        / (members.mean() ** 2 * (len(members) - 1)))
                assert curve.anisotropy[i] == pytest.approx(want, rel=1e-12)

    def test_singleton_ring_is_nan(self):
        rng = Rng(13)
        curve = rapsd(helpers.random_contone(rng, 4, 4))
        assert curve.counts[2] == 1
        assert math.isnan(curve.anisotropy[2])

    def test_dc_power_reported_but_unbinned(self):
        p_hat = np.zeros((4, 4))
        p_hat[0, 0] = 7.5
        curve = rapsd(p_hat)
        assert curve.dc_power == 7.5
        assert np.all(curve.power == 0.0)

    def test_no_ring_lattice_gives_only_dc(self):
        curve = rapsd(periodogram(np.full((1, 1), 0.6)))
        assert curve.dc_power == pytest.approx(0.36, rel=1e-15)
        for arr in (curve.radii, curve.power, curve.anisotropy,
                    curve.counts):
            assert arr.shape == (0,)

    def test_partition_shape_mismatch(self):
        with pytest.raises(ValueError):
            rapsd(np.zeros((4, 4)), ring_partition((2, 2)))


    def test_traced_peak_over_a_periodogram(self):
        # the DFT (2x the image's bytes), P and the deviations; no index
        # array of the image's size is built
        x = helpers.random_halftone(Rng(3), 1024, 1024)
        ring_partition(x.shape)
        tracemalloc.start()
        try:
            rapsd(periodogram(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * x.nbytes

    def test_traced_peak_of_rapsd_alone(self):
        # the ring means gathered to the image's size, squared in place
        p_hat = periodogram(helpers.random_halftone(Rng(3), 1024, 1024))
        ring_partition(p_hat.shape)
        tracemalloc.start()
        try:
            rapsd(p_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * p_hat.nbytes


class TestAnisotropyDb:
    def test_values(self):
        out = anisotropy_db([1.0, 100.0, 0.0, -3.0, math.nan])
        assert out[0] == 0.0
        assert out[1] == 20.0
        assert math.isnan(out[2])
        assert math.isnan(out[3])
        assert math.isnan(out[4])


class TestAnisotropyLoss:
    def test_reconstructs_from_ring_deviations(self):
        rng = Rng(17)
        x = helpers.random_halftone(rng, 6, 6)
        part = ring_partition((6, 6))
        p_hat = periodogram(x)
        curve = rapsd(p_hat, part)
        want = 0.0
        for i in range(len(part.radii)):
            if part.counts[i] > 1:
                members = p_hat[part.bins == i + 1]
                want += float(np.sum((members - curve.power[i]) ** 2))
        assert anisotropy_loss(x, part) == pytest.approx(want, rel=1e-12)

    def test_flat_spectrum_gives_zero(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        assert anisotropy_loss(x) == 0.0

    def test_dc_shift_invariance(self):
        rng = Rng(19)
        x = helpers.random_halftone(rng, 8, 8)
        base = anisotropy_loss(x)
        shifted = anisotropy_loss(x + 0.25)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_backward_matches_finite_differences(self):
        rng = Rng(23)
        x = helpers.random_contone(rng, 6, 6)
        part = ring_partition((6, 6))
        grad = anisotropy_loss_backward(x, part)
        fd = oracles.fd_gradient(lambda v: anisotropy_loss(v, part), x,
                                 eps=1e-6)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_no_ring_lattice_has_zero_loss_and_gradient(self):
        # a 1x1 image has only its DC bin, which deviates from nothing
        x = np.full((1, 1), 0.7)
        assert anisotropy_loss(x) == 0.0
        grad = anisotropy_loss_backward(x)
        assert grad.shape == (1, 1)
        assert grad[0, 0] == 0.0

    def test_backward_is_real_and_shaped(self):
        rng = Rng(29)
        x = helpers.random_halftone(rng, 4, 6)
        g = anisotropy_loss_backward(x)
        assert g.shape == (4, 6)
        assert g.dtype == np.float64


class TestStacks:
    """A (B, H, W) stack gives each image the bytes it gets alone."""

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (31, 33)])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_loss_and_gradient(self, batch, shape):
        rng = Rng(batch * 100 + shape[1])
        x = np.stack([helpers.random_contone(rng, *shape)
                      for _ in range(batch)])
        part = ring_partition(shape)
        losses = anisotropy_loss(x, part)
        grads = anisotropy_loss_backward(x, part)
        assert losses.shape == (batch,)
        assert grads.shape == x.shape
        for i in range(batch):
            assert losses[i] == anisotropy_loss(x[i], part)
            assert grads[i].tobytes() == \
                anisotropy_loss_backward(x[i], part).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (31, 33)])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_rapsd_after_periodogram(self, batch, shape):
        rng = Rng(batch * 100 + shape[0])
        x = np.stack([helpers.random_halftone(rng, *shape)
                      for _ in range(batch)])
        stacked = rapsd(periodogram(x))
        assert stacked.power.shape == (batch, len(stacked.radii))
        for i in range(batch):
            alone = rapsd(periodogram(x[i]))
            assert stacked.radii.tobytes() == alone.radii.tobytes()
            assert stacked.counts.tobytes() == alone.counts.tobytes()
            assert stacked.power[i].tobytes() == alone.power.tobytes()
            assert stacked.anisotropy[i].tobytes() == \
                alone.anisotropy.tobytes()
            assert stacked.dc_power[i] == alone.dc_power


@settings(max_examples=25, deadline=None)
@given(height=st.integers(1, 12), width=st.integers(1, 12))
def test_partition_properties(height, width):
    """Every non-DC bin lands in exactly one ring, radii are increasing
    positive integers, and counts account for all bins but DC."""
    part = ring_partition((height, width))
    assert part.bins[0, 0] == 0
    assert int(part.counts.sum()) == height * width - 1
    assert np.all(np.diff(part.radii) > 0)
    if len(part.radii):
        assert part.radii[0] >= 1
        assert part.bins.max() == len(part.radii)
    assert np.all((part.bins >= 1).sum(axis=None)
                  == height * width - 1)
