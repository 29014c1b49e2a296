import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from htlab.imagecore import (_LANE_MIN_WORDS, NetpbmError, Rng, _jump,
                             _jump_table, constant_image, derive_seed,
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


def _uniforms_of(words):
    return (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53


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
        # single draws step Python ints, vector draws record words in
        # arrays; both are the word-by-word stream
        r1, r2 = Rng(5), Rng(5)
        words, state = oracles.xoshiro256pp_words(r1.state_words(), 300)
        vec = r1.uniforms(300)
        assert vec.shape == (300,)
        singles = [r2.uniform() for _ in range(300)]
        assert list(vec) == singles == _uniforms_of(words).tolist()
        assert r1.state_words() == r2.state_words() == state

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

    def test_derive_seed_matches_iterative_splitmix(self):
        for seed in (0, 5, 2 ** 63 + 11, 2 ** 64 - 1, 2 ** 64 + 3, 3 ** 50):
            for index in (0, 1, 2, 7, 64, 1023):
                assert derive_seed(seed, index) == \
                    oracles.derive_seed_iterative(seed, index)

    def test_stream_and_state_match_per_word_oracle(self):
        # every draw kind, interleaved, against xoshiro256++ scrambled one
        # word at a time; a state handed to set_state_words resumes it
        r = Rng(2024)
        state = r.state_words()
        got, want = [], []

        def oracle(n):
            nonlocal state
            words, state = oracles.xoshiro256pp_words(state, n)
            return words

        def uniforms(n):
            return [(w >> 11) * 2.0 ** -53 for w in oracle(n)]

        got.append(r.uniform())
        want += uniforms(1)
        for n in (0, 1, 7, 10):
            got += r.uniforms(n).tolist()
            want += uniforms(n)
        got += r.gaussians(5).tolist()
        u = uniforms(6)
        for k in range(5):
            u1, u2 = u[k - k % 2], u[k - k % 2 + 1]
            trig = math.cos if k % 2 == 0 else math.sin
            want.append(math.sqrt(-2.0 * math.log(1.0 - u1))
                        * trig(2.0 * math.pi * u2))
        got.append(r.next_uint64())
        want += oracle(1)
        got.append(r.randint(1000))
        want.append(int(uniforms(1)[0] * 1000))
        assert r.state_words() == state
        resumed = Rng(0)
        resumed.set_state_words(state)
        got += resumed.uniforms(33).tolist()
        want += uniforms(33)
        assert got == want
        assert resumed.state_words() == state


class TestLaneDraws:
    """Requests of _LANE_MIN_WORDS words or more run as lanes of the
    stream; their words and the state after them are the one-generator
    stream's."""

    @pytest.mark.parametrize("n", [
        _LANE_MIN_WORDS - 1, _LANE_MIN_WORDS, _LANE_MIN_WORDS + 1,
        # lanes of 16 words: the last lane draws 8
        5000, 65536, 65536 + 3])
    def test_words_and_state_match_the_oracle(self, n):
        r = Rng(2025)
        state = r.state_words()
        for _ in range(2):
            words, state = oracles.xoshiro256pp_words(state, n)
            assert r.uniforms(n).tobytes() == _uniforms_of(words).tobytes()
            assert r.state_words() == state
        resumed = Rng(0)
        resumed.set_state_words(state)
        words, state = oracles.xoshiro256pp_words(state, n)
        assert resumed._words(n).tolist() == words
        assert resumed.state_words() == state

    def test_odd_gaussians_consume_whole_pairs(self):
        n = 2 * _LANE_MIN_WORDS + 1
        r, twin = Rng(77), Rng(77)
        words, state = oracles.xoshiro256pp_words(r.state_words(), n + 1)
        z = r.gaussians(n)
        assert r.state_words() == state
        assert twin.uniforms(n + 1).tobytes() == _uniforms_of(words).tobytes()
        assert z.shape == (n,)
        assert z.tobytes() == Rng(77).gaussians(n + 1)[:n].tobytes()

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 16])
    def test_a_table_power_is_that_many_steps(self, k):
        state = Rng(k).state_words()
        lanes = np.array(state, dtype=np.uint64)[:, None]
        got = _jump(_jump_table(k), lanes)
        _, want = oracles.xoshiro256pp_words(state, 2 ** k)
        assert tuple(int(w) for w in got[:, 0]) == want

    def test_jump_tables_are_read_only(self):
        for k in (0, 3):
            table = _jump_table(k)
            assert table is _jump_table(k)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1


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


# Netpbm-shaped inputs: a magic number, then either a plausible header
# (small dimensions, a maxval) or header tokens that are valid, out of range,
# huge or junk, each followed by a separator or a comment, then a binary or
# an ASCII payload; arbitrary bytes cover the rest
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#c\n", b""])
_TOKENS = st.one_of(
    st.integers(-2, 70000).map(lambda v: str(v).encode()),
    st.sampled_from([b"0", b"1", b"255", b"65535", b"65536",
                     b"99999999999999999999", b"9" * 5000, b"+3", b"1_0",
                     b"0x10", b"\xff"]),
    st.binary(max_size=4))
_SAMPLES = st.lists(st.integers(-1, 300), max_size=20).map(
    lambda vs: b" ".join(str(v).encode() for v in vs))


@st.composite
def netpbm_bytes(draw):
    magic = draw(st.sampled_from([b"P2", b"P4", b"P5", b"P1", b""]))
    if draw(st.booleans()):
        head = [str(draw(st.integers(1, 4))).encode() for _ in range(2)]
        if magic != b"P4":
            head.append(draw(st.sampled_from([b"1", b"255", b"256",
                                              b"65535"])))
    else:
        head = draw(st.lists(_TOKENS, max_size=4))
    out = b""
    for token in [magic] + head:
        out += token + draw(_SEPARATORS)
    return out + draw(st.one_of(st.binary(max_size=48), _SAMPLES))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "x"


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(netpbm_bytes(), st.binary(max_size=64)))
def test_netpbm_loaders_raise_only_netpbm_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for load in (load_pgm, load_pbm):
        try:
            img = load(fuzz_path)
        except NetpbmError:
            continue
        assert img.ndim == 2 and img.dtype == np.float64
        assert np.all((img >= 0.0) & (img <= 1.0))
