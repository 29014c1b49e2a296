import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlab.imagecore import (NetpbmError, Rng, constant_image, derive_seed,
                             gaussian_noise_map, load_pbm, load_pgm,
                             random_crop, save_pbm, save_pgm, splitmix64,
                             validate_contone, validate_halftone)


# frozen reference vectors: first three splitmix64 outputs from state 0,
# matching the published values 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
# 0x06C45D188009454F
SPLITMIX_FROM_0 = (16294208416658607535, 7960286522194355700,
                   487617019471545679)

# xoshiro256++ from state (1,2,3,4). The first two are hand-derivable:
# out1 = rotl(1+4, 23) + 1 = 5*2^23 + 1 = 41943041; after the update the
# state is (7, 0, 262146, 3*2^46) so out2 = rotl(7 + 3*2^46, 23) + 7
#      = (7*2^23 | 3*2^5) + 7 = 58720359.
XOSHIRO_FROM_1234 = (41943041, 58720359, 3588806011781223,
                     3591011842654386, 9228616714210784205,
                     9973669472204895162)


class TestRng:
    def test_splitmix64_reference_vectors(self):
        s = 0
        outs = []
        for _ in range(3):
            s, z = splitmix64(s)
            outs.append(z)
        assert tuple(outs) == SPLITMIX_FROM_0

    def test_xoshiro_reference_vectors(self):
        r = Rng(0)
        r.set_state_words((1, 2, 3, 4))
        assert tuple(r.next_uint64() for _ in range(6)) == XOSHIRO_FROM_1234

    def test_seeding_uses_splitmix(self):
        r = Rng(42)
        s, expect = 42, []
        for _ in range(4):
            s, z = splitmix64(s)
            expect.append(z)
        assert list(r.state_words()) == expect

    def test_determinism_and_seed_sensitivity(self):
        a = [Rng(7).uniform() for _ in range(5)]
        b = [Rng(7).uniform() for _ in range(5)]
        c = [Rng(8).uniform() for _ in range(5)]
        assert a == b
        assert a != c

    def test_uniform_is_53_bit_mantissa(self):
        r1, r2 = Rng(3), Rng(3)
        for _ in range(100):
            assert r1.uniform() == (r2.next_uint64() >> 11) * 2.0 ** -53

    def test_uniforms_matches_scalar_stream(self):
        r1, r2 = Rng(5), Rng(5)
        vec = r1.uniforms(37)
        assert vec.shape == (37,)
        assert list(vec) == [r2.uniform() for _ in range(37)]
        assert r1.state_words() == r2.state_words()

    def test_uniform_range(self):
        r = Rng(11)
        u = r.uniforms(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gaussians_are_box_muller_pairs(self):
        r1, r2 = Rng(9), Rng(9)
        z = r1.gaussians(6)
        u = r2.uniforms(6)
        for k in range(3):
            rad = math.sqrt(-2.0 * math.log(1.0 - u[2 * k]))
            ang = 2.0 * math.pi * u[2 * k + 1]
            assert z[2 * k] == rad * math.cos(ang)
            assert z[2 * k + 1] == rad * math.sin(ang)

    def test_gaussians_odd_count_consumes_whole_pair(self):
        r1, r2 = Rng(13), Rng(13)
        r1.gaussians(5)
        r2.uniforms(6)
        assert r1.state_words() == r2.state_words()

    def test_gaussian_moments(self):
        z = Rng(17).gaussians(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.02

    def test_randint_bounds_and_error(self):
        r = Rng(1)
        draws = [r.randint(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6
        with pytest.raises(ValueError):
            r.randint(0)

    def test_state_words_roundtrip(self):
        r = Rng(33)
        r.uniforms(17)
        words = r.state_words()
        tail = r.uniforms(9)
        r2 = Rng(0)
        r2.set_state_words(words)
        assert r2.uniforms(9).tolist() == tail.tolist()
        with pytest.raises(ValueError):
            r2.set_state_words((1, 2, 3))

    def test_derive_seed(self):
        assert derive_seed(0, 0) == SPLITMIX_FROM_0[0]
        assert derive_seed(0, 2) == SPLITMIX_FROM_0[2]
        assert derive_seed(5, 0) != derive_seed(5, 1)
        with pytest.raises(ValueError):
            derive_seed(5, -1)


class TestValidation:
    def test_contone_accepts_and_rejects(self):
        img = validate_contone([[0.0, 0.5], [1.0, 0.25]])
        assert img.dtype == np.float64
        for bad in ([[0.0, 1.5]], [[-0.1]], [[np.nan]], [0.5, 0.5]):
            with pytest.raises(ValueError):
                validate_contone(bad)

    def test_halftone_accepts_and_rejects(self):
        validate_halftone([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            validate_halftone([[0.0, 0.5]])

    def test_constant_image(self):
        img = constant_image(0.25, 3, 2)
        assert img.shape == (2, 3)
        assert np.all(img == 0.25)
        with pytest.raises(ValueError):
            constant_image(1.5, 2, 2)

    def test_noise_map_shape_and_order(self):
        r1, r2 = Rng(2), Rng(2)
        m = gaussian_noise_map(r1, 4, 3)
        assert m.shape == (3, 4)
        assert m.ravel().tolist() == r2.gaussians(12).tolist()

    def test_random_crop(self):
        rng = Rng(6)
        img = np.arange(56.0).reshape(7, 8) / 56.0
        crop = random_crop(rng, img, 3)
        assert crop.shape == (3, 3)
        found = any(np.array_equal(crop, img[y:y + 3, x:x + 3])
                    for y in range(5) for x in range(6))
        assert found
        full_height = random_crop(rng, img, 7)
        assert full_height.shape == (7, 7)
        with pytest.raises(ValueError):
            random_crop(rng, img, 9)

    def test_random_crop_draw_order_y_then_x(self):
        r1, r2 = Rng(31), Rng(31)
        img = np.arange(120.0).reshape(10, 12) / 120.0
        crop = random_crop(r1, img, 4)
        y = r2.randint(10 - 4 + 1)
        x = r2.randint(12 - 4 + 1)
        assert np.array_equal(crop, img[y:y + 4, x:x + 4])
        assert r1.state_words() == r2.state_words()


class TestNetpbm:
    def test_pgm_roundtrip_8bit(self, tmp_path):
        rng = Rng(4)
        img = rng.uniforms(35).reshape(5, 7)
        path = tmp_path / "a.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert np.array_equal(back, np.rint(img * 255.0) / 255.0)

    def test_pgm_roundtrip_16bit(self, tmp_path):
        rng = Rng(41)
        img = rng.uniforms(24).reshape(4, 6)
        path = tmp_path / "b.pgm"
        save_pgm(img, path, maxval=65535)
        back = load_pgm(path)
        assert np.array_equal(back, np.rint(img * 65535.0) / 65535.0)

    def test_pgm_p2_ascii_with_comments(self, tmp_path):
        text = "P2 # magic\n# a comment line\n3 2\n4\n0 1 2\n3 4 0\n"
        path = tmp_path / "c.pgm"
        path.write_bytes(text.encode("ascii"))
        img = load_pgm(path)
        assert np.array_equal(img, np.array([[0, 1, 2], [3, 4, 0]]) / 4.0)

    def test_pgm_errors_name_byte_offsets(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 2 2 255 \x00\x01\x02")     # one byte short
        with pytest.raises(NetpbmError) as err:
            load_pgm(path)
        assert "byte" in str(err.value)
        path.write_bytes(b"P7 2 2 255 \x00\x01\x02\x03")
        with pytest.raises(NetpbmError):
            load_pgm(path)
        path.write_bytes(b"P2 1 1 0 0")
        with pytest.raises(NetpbmError):
            load_pgm(path)
        path.write_bytes(b"P2 1 1 4 9")                   # sample > maxval
        with pytest.raises(NetpbmError):
            load_pgm(path)

    def test_pbm_roundtrip(self, tmp_path):
        rng = Rng(8)
        h = (rng.uniforms(110).reshape(10, 11) < 0.5).astype(np.float64)
        path = tmp_path / "d.pbm"
        save_pbm(h, path)
        assert np.array_equal(load_pbm(path), h)

    def test_pbm_bit_packing_literal(self, tmp_path):
        # white tone (1.0) is paper, encoded as bit 0; black is bit 1.
        # Row 1,0,1,0 -> bits 0101 + four pad zeros -> byte 0x50.
        path = tmp_path / "e.pbm"
        save_pbm(np.array([[1.0, 0.0, 1.0, 0.0]]), path)
        raw = path.read_bytes()
        header, _, rest = raw.partition(b"\n")
        assert header == b"P4"
        dims, _, bits = rest.partition(b"\n")
        assert dims == b"4 1"
        assert bits == b"\x50"

    def test_save_pgm_quantizes_to_lattice(self, tmp_path):
        path = tmp_path / "f.pgm"
        save_pgm(np.array([[0.0, 1.0 / 3.0, 1.0]]), path, maxval=3)
        img = load_pgm(path)
        assert np.array_equal(img, np.array([[0.0, 1.0 / 3.0, 1.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_pbm_roundtrip_property(tmp_path_factory, height, width, seed):
    rng = Rng(seed)
    h = (rng.uniforms(height * width).reshape(height, width)
         < 0.5).astype(np.float64)
    path = tmp_path_factory.mktemp("pbm") / "x.pbm"
    save_pbm(h, path)
    assert np.array_equal(load_pbm(path), h)
