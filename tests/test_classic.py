"""Classic halftoners: Bayer ordered dither, Floyd-Steinberg, white-noise
thresholding, and direct binary search.

The small Floyd-Steinberg traces are worked out by hand; every quantity in
them is dyadic (halves times sixteenths), so the expected outputs are exact.
The 3x3 DBS case is checked against exhaustive enumeration of all 512
binary images. The search itself is checked against the window-sum oracle
(oracles.dbs_brute), which re-sums every candidate over its kernel window,
and its autocorrelation tables against an explicit in-image sum.
"""

import numpy as np
import pytest

import helpers
import oracles
from htlab import classic
from htlab.classic import (bayer_matrix, dbs_search, edge_autocorrelation,
                           floyd_steinberg, ordered_dither,
                           white_noise_threshold)
from htlab.hvs import HvsConfig, build_kernel
from htlab.imagecore import Rng, constant_image
from htlab.metrics import MetricConfig, hvs_mse


class TestBayer:
    def test_matrix_literals(self):
        assert bayer_matrix(1).tolist() == [[0]]
        assert bayer_matrix(2).tolist() == [[0, 2], [3, 1]]
        assert bayer_matrix(4).tolist() == [[0, 8, 2, 10],
                                            [12, 4, 14, 6],
                                            [3, 11, 1, 9],
                                            [15, 7, 13, 5]]

    def test_matrix_is_a_permutation(self):
        m = bayer_matrix(8)
        assert sorted(m.ravel().tolist()) == list(range(64))

    @pytest.mark.parametrize("order", [0, 3, 6, -2])
    def test_order_must_be_power_of_two(self, order):
        with pytest.raises(ValueError):
            bayer_matrix(order)

    def test_mid_gray_is_a_checkerboard(self):
        # thresholds below 0.5 sit exactly on one color class of the finest
        # 2x2 subdivision, so 0.5 gray turns on the (y+x) even pixels
        h = ordered_dither(constant_image(0.5, 16, 16), order=8)
        yy, xx = np.indices((16, 16))
        assert np.array_equal(h, ((yy + xx) % 2 == 0).astype(np.float64))

    def test_tile_periodicity(self):
        h = ordered_dither(constant_image(0.4, 12, 20), order=4)
        assert np.array_equal(h[:4, :4], h[4:8, 8:12])
        assert np.array_equal(h[:, :4], h[:, 4:8])

    def test_tile_mean_is_exact_for_lattice_grays(self):
        # gray k/64 exceeds exactly the k smallest thresholds of an
        # order-8 tile
        h = ordered_dither(constant_image(13.0 / 64.0, 8, 8), order=8)
        assert h.sum() == 13

    def test_extremes(self):
        assert not ordered_dither(constant_image(0.0, 9, 9)).any()
        assert ordered_dither(constant_image(1.0, 9, 9)).all()


class TestFloydSteinberg:
    def test_row_trace_at_half(self):
        # 0.5 -> 1 (err -1/2), 0.5 - 7/32 = 0.28125 -> 0,
        # 0.28125 + carried error -> 1, then -> 0; all dyadic, exact
        h = floyd_steinberg(constant_image(0.5, 4, 1))
        assert h.tolist() == [[1.0, 0.0, 1.0, 0.0]]

    def test_serpentine_2x2_trace_at_half(self):
        h = floyd_steinberg(constant_image(0.5, 2, 2), serpentine=True)
        assert h.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_extremes_exact(self):
        assert not floyd_steinberg(constant_image(0.0, 6, 7)).any()
        assert floyd_steinberg(constant_image(1.0, 6, 7)).all()

    def test_output_is_binary(self):
        h = floyd_steinberg(helpers.natural_crop(size=24, seed=4))
        assert set(np.unique(h)).issubset({0.0, 1.0})

    def test_tone_preservation(self):
        c = helpers.natural_crop(size=32, seed=8)
        for serpentine in (False, True):
            h = floyd_steinberg(c, serpentine=serpentine)
            assert abs(h.mean() - c.mean()) < 0.02

    def test_serpentine_differs_from_raster(self):
        c = helpers.natural_crop(size=16, seed=2)
        assert not np.array_equal(floyd_steinberg(c),
                                  floyd_steinberg(c, serpentine=True))

    @pytest.mark.parametrize("serpentine", [False, True])
    @pytest.mark.parametrize("name", ["1x1", "1x9", "9x1", "7x13", "ties",
                                      "dyadic", "scene256"])
    def test_matches_per_pixel_oracle(self, name, serpentine):
        # the row form adds each pixel's shares in the per-pixel order, so
        # every accumulator rounds alike and the bytes agree, including
        # values at exactly 0.5 and errors on the 1/16 lattice
        rng = Rng(29)
        c = {"1x1": lambda: np.full((1, 1), 0.5),
             "1x9": lambda: helpers.random_contone(rng, 1, 9),
             "9x1": lambda: helpers.random_contone(rng, 9, 1),
             "7x13": lambda: helpers.random_contone(rng, 7, 13),
             "ties": lambda: constant_image(0.5, 11, 6),
             "dyadic": lambda: np.floor(
                 helpers.random_contone(rng, 12, 15) * 17.0) / 16.0,
             "scene256": lambda: helpers.natural_crop(size=256, seed=6)}[name]()
        got = floyd_steinberg(c, serpentine=serpentine)
        want = oracles.floyd_steinberg_per_pixel(c, serpentine=serpentine)
        assert got.tobytes() == want.tobytes()

    # 2x3 contones whose pixel (1, 1) lies within a rounding of the 0.5
    # threshold, found by bisecting c[1, 1] to the oracle's flip point:
    # adding the three shares from row 0 in any other order flips it
    ORDER_TIES = [
        (False, [[0.014271189684610608, 0.6284619478662907,
                  0.7930236580980341],
                 [0.5130035828222085, 0.4856115237194855,
                  0.22642348269714407]]),
        (False, [[0.33268145921132486, 0.39827555967937056,
                  0.2029117522135162],
                 [0.05070405527227051, 0.59089115670778,
                  0.9154643971239083]]),
        (False, [[0.3695363106022067, 0.0037342420520759534,
                  0.8300477298017456],
                 [0.15446108106143985, 0.3118442888327201,
                  0.8803321539808286]]),
        (True, [[0.038985841033045365, 0.5903878678348518,
                 0.16601115304721703],
                [0.6778737085673094, 0.4969549966881437,
                 0.3105701970531949]]),
        (True, [[0.33866008338021847, 0.31800319786228226,
                 0.11271699172286997],
                [0.626611819328121, 0.08048791887539704,
                 0.3137214720022439]]),
        (True, [[0.8628092349187347, 0.7971269128461297,
                 0.12913794147432478],
                [0.7668591567381553, 0.5070276462237747,
                 0.19728256983174652]]),
    ]

    @pytest.mark.parametrize("serpentine, rows", ORDER_TIES)
    def test_share_order_decides_threshold_ties(self, serpentine, rows):
        c = np.array(rows)
        got = floyd_steinberg(c, serpentine=serpentine)
        want = oracles.floyd_steinberg_per_pixel(c, serpentine=serpentine)
        assert got.tobytes() == want.tobytes()


class TestWhiteNoise:
    def test_mean_tone(self):
        h = white_noise_threshold(constant_image(0.7, 100, 100), Rng(5))
        assert abs(h.mean() - 0.7) < 0.03

    def test_extremes(self):
        assert not white_noise_threshold(constant_image(0.0, 20, 20),
                                         Rng(1)).any()
        assert white_noise_threshold(constant_image(1.0, 20, 20),
                                     Rng(1)).all()

    def test_seed_determinism(self):
        c = helpers.natural_crop(size=16, seed=6)
        a = white_noise_threshold(c, Rng(9))
        b = white_noise_threshold(c, Rng(9))
        d = white_noise_threshold(c, Rng(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, d)


SMALL_HVS = HvsConfig(model="gaussian", size=3, sigma=1.0)


def sse_brute(h, c):
    k = build_kernel(SMALL_HVS)
    e = oracles.conv2d_same_brute(h, k) - oracles.conv2d_same_brute(c, k)
    return float(np.sum(e * e))


GAUSS5 = HvsConfig(model="gaussian", size=5, sigma=1.5)


def assert_matches_oracle(c, cfg, seed, max_sweeps=20):
    """dbs_search, scoring from its maintained correlation map and edge
    tables, picks the same moves as re-summing every candidate's window:
    the same halftone byte for byte, the same trace rows to 1e-12."""
    h, trace = dbs_search(c, hvs_cfg=cfg, seed_halftone=seed,
                          max_sweeps=max_sweeps)
    want_h, want_trace = oracles.dbs_brute(c, seed, build_kernel(cfg),
                                           max_sweeps=max_sweeps)
    assert h.tobytes() == want_h.tobytes()
    assert [row[0] for row in trace] == [row[0] for row in want_trace]
    for got, want in zip(trace, want_trace):
        assert abs(got[1] - want[1]) <= 1e-12
    return trace


class TestDbs:
    def _contone(self):
        return np.array([[0.2, 0.7, 0.4],
                         [0.8, 0.5, 0.1],
                         [0.3, 0.6, 0.9]])

    def test_near_optimal_on_exhaustive_3x3(self):
        c = self._contone()
        best = min(sse_brute(h, c) for h in oracles.enumerate_bit_maps((3, 3)))
        h, trace = dbs_search(c, rng=Rng(0), hvs_cfg=SMALL_HVS)
        final = sse_brute(h, c)
        # greedy local search: no optimality guarantee, but from this seed it
        # lands on the exhaustive optimum
        assert final <= 1.5 * best + 1e-12

    def test_result_is_toggle_and_swap_stable(self):
        c = self._contone()
        h, _ = dbs_search(c, rng=Rng(3), hvs_cfg=SMALL_HVS)
        base = sse_brute(h, c)
        for a in range(9):
            h2 = h.copy()
            h2.flat[a] = 1.0 - h2.flat[a]
            assert sse_brute(h2, c) >= base - 1e-9
        for y in range(3):
            for x in range(3):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yb, xb = y + dy, x + dx
                        if (dy, dx) == (0, 0) or not (0 <= yb < 3
                                                      and 0 <= xb < 3):
                            continue
                        if h[y, x] == h[yb, xb]:
                            continue
                        h2 = h.copy()
                        h2[y, x], h2[yb, xb] = h2[yb, xb], h2[y, x]
                        assert sse_brute(h2, c) >= base - 1e-9

    def test_trace_monotone_and_consistent(self):
        c = helpers.natural_crop(size=16, seed=7)
        cfg = HvsConfig(model="gaussian", size=5, sigma=1.5)
        seed = white_noise_threshold(c, Rng(11))
        h, trace = dbs_search(c, hvs_cfg=cfg, seed_halftone=seed)
        sweeps = [row[0] for row in trace]
        errors = [row[1] for row in trace]
        assert sweeps == list(range(len(trace)))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        mcfg = MetricConfig(hvs=cfg)
        assert errors[0] == pytest.approx(
            hvs_mse(seed, c, mcfg, region="full"), abs=1e-12)
        assert errors[-1] == pytest.approx(
            hvs_mse(h, c, mcfg, region="full"), abs=1e-12)

    def test_improves_over_seed(self):
        c = helpers.natural_crop(size=16, seed=12)
        _, trace = dbs_search(c, rng=Rng(13),
                              hvs_cfg=HvsConfig(model="gaussian", size=5,
                                                sigma=1.5))
        assert trace[-1][1] < trace[0][1]

    def test_seed_determinism(self):
        c = helpers.natural_crop(size=12, seed=1)
        h1, t1 = dbs_search(c, rng=Rng(21), hvs_cfg=SMALL_HVS)
        h2, t2 = dbs_search(c, rng=Rng(21), hvs_cfg=SMALL_HVS)
        assert np.array_equal(h1, h2)
        assert t1 == t2

    def test_requires_rng_or_seed(self):
        with pytest.raises(ValueError):
            dbs_search(self._contone(), hvs_cfg=SMALL_HVS)

    def test_seed_shape_mismatch(self):
        with pytest.raises(ValueError):
            dbs_search(self._contone(), seed_halftone=np.zeros((2, 3)),
                       hvs_cfg=SMALL_HVS)

    def test_non_binary_seed_rejected(self):
        # the toggle score assumes binary pixels: a seed of 0.3 would be
        # scored without its d^2 term and come back non-binary
        with pytest.raises(ValueError):
            dbs_search(constant_image(0.4, 12, 12),
                       seed_halftone=np.full((12, 12), 0.3),
                       hvs_cfg=SMALL_HVS, max_sweeps=3)

    def test_output_is_binary(self):
        c = helpers.natural_crop(size=12, seed=9)
        h, _ = dbs_search(c, rng=Rng(4), hvs_cfg=SMALL_HVS)
        assert set(np.unique(h)).issubset({0.0, 1.0})


    @pytest.mark.parametrize("seed", [0, 3, 5, 8])
    def test_3x3_small_kernel(self, seed):
        c = self._contone()
        assert_matches_oracle(c, SMALL_HVS,
                              white_noise_threshold(c, Rng(seed)))

    def test_8x8_nasanen_every_pixel_a_border_class(self):
        c = helpers.natural_crop(size=8, seed=5)
        trace = assert_matches_oracle(c, HvsConfig(),
                                      white_noise_threshold(c, Rng(17)))
        assert len(trace) > 2

    def test_16x20_natural_crop_gaussian(self):
        c = helpers.natural_crop(size=20, seed=3)[:16, :]
        trace = assert_matches_oracle(c, GAUSS5,
                                      white_noise_threshold(c, Rng(19)))
        assert len(trace) > 2

    @pytest.mark.parametrize("max_sweeps", [0, 1, 2])
    def test_24_gray_seeded_with_sweep_cap(self, max_sweeps):
        c = constant_image(0.3, 24, 24)
        trace = assert_matches_oracle(c, HvsConfig(),
                                      white_noise_threshold(c, Rng(23)),
                                      max_sweeps=max_sweeps)
        assert len(trace) == 1 + max_sweeps

    def test_white_noise_seed_is_the_rng_draw(self):
        c = helpers.natural_crop(size=10, seed=4)
        assert np.array_equal(
            dbs_search(c, rng=Rng(6), hvs_cfg=SMALL_HVS)[0],
            dbs_search(c, hvs_cfg=SMALL_HVS,
                       seed_halftone=white_noise_threshold(c, Rng(6)))[0])

    def test_exact_tie_keeps_the_earlier_candidate(self):
        # a 1x1 kernel and dyadic tones make every delta exact. At (0, 0)
        # the toggle (-0.5) ties with the swaps to its gray-0.5 E and S
        # neighbours, whose own toggles are worth exactly 0, so the strict
        # comparison keeps the toggle; E then swaps with SE (-0.5), and S,
        # worth 0 either way, stays black
        c = np.array([[0.25, 0.5], [0.5, 0.25]])
        seed = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = HvsConfig(model="gaussian", size=1, sigma=1.0)
        trace = assert_matches_oracle(c, cfg, seed)
        h, _ = dbs_search(c, hvs_cfg=cfg, seed_halftone=seed)
        assert h.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert trace == [(0, 0.40625), (1, 0.15625)]

    @pytest.mark.parametrize("cfg, hgt, wid", [
        (GAUSS5, 7, 9),              # interior, every edge and corner class
        (HvsConfig(), 3, 4),         # image smaller than the 11-tap kernel
        (SMALL_HVS, 1, 3),
    ])
    def test_edge_tables_match_in_image_sums(self, cfg, hgt, wid):
        k = build_kernel(cfg)
        half = k.shape[0] // 2
        for y in range(hgt):
            for x in range(wid):
                got = edge_autocorrelation(
                    k, min(y, half), min(hgt - 1 - y, half), min(x, half),
                    min(wid - 1 - x, half))
                want = oracles.in_image_autocorrelation_brute(k, y, x, hgt,
                                                              wid)
                assert np.max(np.abs(got - want)) <= 1e-15, (y, x)


ONE_TAP = HvsConfig(model="gaussian", size=1, sigma=1.0)


class TestDbsLayout:
    """The padded maps, the cached edge tables and the clean-pixel skip,
    each held to the window-sum oracle byte for byte."""

    @pytest.mark.parametrize("cfg", [HvsConfig(), GAUSS5, SMALL_HVS])
    @pytest.mark.parametrize("hgt, wid", [(1, 13), (13, 1)])
    def test_one_row_and_one_column(self, cfg, hgt, wid):
        c = helpers.natural_crop(size=13, seed=2)[:hgt, :wid]
        assert_matches_oracle(c, cfg, white_noise_threshold(c, Rng(31)))

    @pytest.mark.parametrize("hgt, wid", [(1, 1), (2, 3), (4, 6), (7, 3),
                                          (10, 10)])
    def test_image_smaller_than_the_kernel(self, hgt, wid):
        c = helpers.natural_crop(size=10, seed=8)[:hgt, :wid]
        assert_matches_oracle(c, HvsConfig(),
                              white_noise_threshold(c, Rng(37)))

    def test_one_tap_kernel(self):
        c = helpers.natural_crop(size=9, seed=4)[:, :7]
        trace = assert_matches_oracle(c, ONE_TAP,
                                      white_noise_threshold(c, Rng(41)))
        assert len(trace) > 1

    def test_swap_partners_on_last_row_and_column(self):
        # a 1x1 kernel and dyadic tones make every delta exact. Each
        # mid-gray white pixel is worth 0 to toggle, and its one black
        # neighbour on white contone is worth -1: (0, 2) swaps E into the
        # last column, (1, 0) S into the last row and (1, 2) SE into the
        # corner. Every other pixel already equals its contone.
        c = np.array([[0.0, 1.0, 0.5, 1.0],
                      [0.5, 1.0, 0.5, 0.0],
                      [1.0, 0.0, 1.0, 1.0]])
        seed = np.array([[0.0, 1.0, 1.0, 0.0],
                         [1.0, 1.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0]])
        trace = assert_matches_oracle(c, ONE_TAP, seed)
        h, _ = dbs_search(c, hvs_cfg=ONE_TAP, seed_halftone=seed)
        assert h.tolist() == [[0.0, 1.0, 0.0, 1.0],
                              [0.0, 1.0, 0.0, 0.0],
                              [1.0, 0.0, 1.0, 1.0]]
        assert trace == [(0, 0.3125), (1, 0.0625)]

    def test_clean_pixel_dirtied_again_in_the_same_sweep(self):
        # a 1x1 kernel and dyadic tones make every delta exact. In sweep 1,
        # pixel 0 (toggle worth 0, its one neighbour equal) is clean; then
        # pixel 1 swaps with pixel 2 (0.5 - 1), which leaves pixel 1 black
        # with a toggle worth -0.5. Sweep 2 must score pixel 0 again, and
        # it swaps with pixel 1.
        c = np.array([[0.5, 0.75, 1.0, 0.0]])
        seed = np.array([[1.0, 1.0, 0.0, 0.0]])
        trace = assert_matches_oracle(c, ONE_TAP, seed)
        h, _ = dbs_search(c, hvs_cfg=ONE_TAP, seed_halftone=seed)
        assert h.tolist() == [[0.0, 1.0, 1.0, 0.0]]
        assert trace == [(0, 0.328125), (1, 0.203125), (2, 0.078125)]

    def test_interleaved_configs_give_the_bytes_of_fresh_calls(self):
        # two kernels of one size meet the same edge classes, so a table
        # cached under the other config would be found and used
        narrow = HvsConfig(model="gaussian", size=5, sigma=0.8)
        c = helpers.natural_crop(size=12, seed=5)
        seed = white_noise_threshold(c, Rng(43))
        classic._edge_class.cache_clear()
        fresh = {}
        for cfg in (narrow, GAUSS5, narrow, GAUSS5):
            trace = assert_matches_oracle(c, cfg, seed)
            assert trace == fresh.setdefault(cfg, trace)
        assert fresh[narrow] != fresh[GAUSS5]

    def test_cached_tables_are_read_only(self):
        # an 8x8 image and a 5-tap kernel meet 5 row and 5 column classes:
        # reach (0, 2), (1, 2), (2, 2), (2, 1) and (2, 0)
        c = helpers.natural_crop(size=8, seed=6)
        classic._edge_class.cache_clear()
        dbs_search(c, rng=Rng(47), hvs_cfg=GAUSS5)
        assert classic._edge_class.cache_info().misses == 25
        reaches = [(0, 2), (1, 2), (2, 2), (2, 1), (2, 0)]
        for rows in reaches:
            for cols in reaches:
                t, _ = classic._edge_class(GAUSS5, rows + cols)
                assert not t.flags.writeable
                with pytest.raises(ValueError):
                    t[0, 0] = 1.0
        assert classic._edge_class.cache_info().misses == 25
