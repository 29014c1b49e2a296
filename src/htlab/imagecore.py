"""Image containers, deterministic RNG and Netpbm I/O.

Images are plain 2-D float64 numpy arrays. Contone and multitone images hold
tones in [0, 1]; halftones hold {0.0, 1.0} with 1 = white. All randomness in
the package flows through Rng below so that a seed pins every downstream byte.
"""

import functools
from array import array

import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV53 = 2.0 ** -53


def _mix64(z):
    """splitmix64's output function of a 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def splitmix64(state):
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + _GAMMA) & _M64
    return state, _mix64(state)


def derive_seed(seed, index):
    """Child seed for worker/realization `index`: the output of splitmix64
    step index + 1 from seed. The state after k steps is seed + k * gamma
    mod 2**64, so the jump costs O(1) whatever the index."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return _mix64(((seed & _M64) + (index + 1) * _GAMMA) & _M64)


# Requests of at least this many words are drawn as lanes (Rng._lane_words);
# below it the one-generator loop is faster. Measured crossover, see README.
_LANE_MIN_WORDS = 1536
# bit offsets of the 16 nibbles of a state word, low nibble first
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
_NIBBLES = np.arange(64)


def _steps(s0, s1, s2, s3, w0, w3):
    """Run len(w0) xoshiro256++ state updates from (s0, s1, s2, s3),
    recording s0 and s3 before the i-th at w0[i] and w3[i]; returns the
    state after them.

    This is the one definition of the update. It steps one generator on
    Python ints, and many lanes at once on uint64 arrays (w0[i] is then a
    row with one word per lane), whose arithmetic wraps modulo 2**64 as
    the masks do for ints. It updates array arguments in place."""
    for i in range(len(w0)):
        w0[i] = s0
        w3[i] = s3
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
    return s0, s1, s2, s3


def _scramble(w0, w3):
    """The ++ output rotl(s0 + s3, 23) + s0 of recorded uint64 words,
    computed in w3's memory."""
    x = np.add(w0, w3, out=w3)
    high = x >> np.uint64(41)
    x <<= np.uint64(23)
    x |= high
    x += w0
    return x


def _jump(table, lanes):
    """A GF(2) matrix applied to each lane: table is (4, 256), its column
    b the image of the state with only bit b set (bit b is bit b % 64 of
    word b // 64), and lanes is (4, l), one state per column. Returns the
    (4, l) images.

    The product XORs the table columns of each lane's set bits, 4 bits at
    a time: part[v, q] is the XOR of the columns of the bits set in v
    among bits 4q..4q+3, so each lane takes one part row per nibble of its
    state and XORs 64 of them. Lanes go 64 at a time, so that the gather
    is 128 KiB whatever their number: a larger one, once freed, stays
    resident in glibc's heap and shows in the process's peak RSS."""
    cols = table.T.reshape(64, 4, 4)
    part = np.empty((16, 64, 4), dtype=np.uint64)
    part[0] = 0
    for t in range(4):
        np.bitwise_xor(part[:1 << t], cols[:, t], out=part[1 << t:2 << t])
    part = part.reshape(-1, 4)
    out = np.empty(lanes.shape, dtype=np.uint64)
    for start in range(0, lanes.shape[1], 64):
        chunk = lanes[:, start:start + 64]
        nibble = (chunk.T[:, :, None] >> _NIBBLE_SHIFTS) & np.uint64(15)
        rows = nibble.reshape(-1, 64).astype(np.intp) * 64 + _NIBBLES
        acc = part.take(rows, axis=0)
        half = 32
        while half:
            acc[:, :half] ^= acc[:, half:2 * half]
            half //= 2
        out[:, start:start + 64] = acc[:, 0].T
    return out


@functools.lru_cache(maxsize=64)
def _jump_table(k):
    """The xoshiro256++ state update to the power 2**k, read-only, in
    _jump's (4, 256) form: T from one step of the 256 one-bit states, each
    further power the square of the one before."""
    if k == 0:
        bit = np.arange(256)
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        records = np.empty((1, 256), dtype=np.uint64)
        table = np.array(_steps(*basis, records, records))
    else:
        half = _jump_table(k - 1)
        table = _jump(half, half)
    table.flags.writeable = False
    return table


class Rng:
    """xoshiro256++ generator seeded through splitmix64.

    The integer stream is bit-exact for a given seed regardless of platform;
    uniform doubles are (x >> 11) * 2**-53 in [0, 1). Gaussians come from
    Box-Muller in consumed pairs, never cached across calls.
    """

    def __init__(self, seed):
        s = int(seed) & _M64
        state = []
        for _ in range(4):
            s, z = splitmix64(s)
            state.append(z)
        self._s = tuple(state)

    def _words(self, n):
        """The next n raw 64-bit outputs as a uint64 array.

        The state loop records s0 and s3 of each step; the ++ scrambler
        then runs once over the recorded words."""
        if n >= _LANE_MIN_WORDS:
            return self._lane_words(n)
        w0 = array("Q", bytes(8 * n))
        w3 = array("Q", bytes(8 * n))
        self._s = _steps(*self._s, w0, w3)
        return _scramble(np.frombuffer(w0, dtype=np.uint64),
                         np.frombuffer(w3, dtype=np.uint64))

    def _lane_words(self, n):
        """_words for large n: lanes of the same stream stepped together.

        Lane j draws words j*m to j*m + m - 1 of the request, m = 2**p
        about sqrt(n) / 4, so there are about 4 sqrt(n) lanes. Lane j
        starts at the state j*m steps on, found by doubling: the first
        2**t lanes, jumped by T**(m * 2**t), start the next 2**t. The last
        lane may draw fewer than m words, and the state after the request
        is that lane's once it has drawn them."""
        p = max(int(n).bit_length() // 2 - 2, 0)
        m = 1 << p
        count = -(-n // m)
        lanes = np.empty((4, count), dtype=np.uint64)
        lanes[:, 0] = self._s
        have = 1
        while have < count:
            more = min(have, count - have)
            lanes[:, have:have + more] = _jump(
                _jump_table(p + have.bit_length() - 1), lanes[:, :more])
            have += more
        # lane-major records: row j holds lane j's words in stream order
        w0 = np.empty((count, m), dtype=np.uint64)
        w3 = np.empty((count, m), dtype=np.uint64)
        last = n - (count - 1) * m
        state = _steps(*lanes, w0.T[:last], w3.T[:last])
        self._s = tuple(int(word[-1]) for word in state)
        if last < m:
            _steps(*(word[:-1] for word in state), w0.T[last:, :-1],
                   w3.T[last:, :-1])
        return _scramble(w0.reshape(-1)[:n], w3.reshape(-1)[:n])

    def next_uint64(self):
        s0, s3 = [0], [0]
        self._s = _steps(*self._s, s0, s3)
        x = (s0[0] + s3[0]) & _M64
        return ((((x << 23) | (x >> 41)) & _M64) + s0[0]) & _M64

    def uniform(self):
        """One double in [0, 1)."""
        return (self.next_uint64() >> 11) * _INV53

    def uniforms(self, n):
        """n doubles in [0, 1) as a 1-D array."""
        return (self._words(n) >> 11) * _INV53

    def gaussians(self, n):
        """n standard normals. Pairs are consumed whole: odd n burns one draw."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        u1 = 1.0 - u[0::2]          # in (0, 1], keeps log finite
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def randint(self, n):
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform() * n)

    def state_words(self):
        return tuple(self._s)

    def set_state_words(self, words):
        if len(words) != 4:
            raise ValueError("xoshiro256++ state is four 64-bit words")
        self._s = tuple(int(w) & _M64 for w in words)


# ---------------------------------------------------------------------------
# image helpers

def validate_contone(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("contone image must be 2-D")
    if img.size == 0:
        raise ValueError("contone image must be non-empty")
    if not np.all(np.isfinite(img)) or img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("contone values must lie in [0, 1]")
    return img


def validate_halftone(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("halftone image must be a non-empty 2-D array")
    if not np.all((img == 0.0) | (img == 1.0)):
        raise ValueError("halftone values must be exactly 0 or 1")
    return img


def constant_image(gray, width, height):
    """Constant contone image; gray must lie in [0, 1]."""
    if not 0.0 <= gray <= 1.0:
        raise ValueError("gray level outside [0, 1]")
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    return np.full((height, width), float(gray), dtype=np.float64)


def gaussian_noise_map(rng, width, height):
    """Standard-normal noise map, row-major draw order."""
    if width <= 0 or height <= 0:
        raise ValueError("noise map dimensions must be positive")
    return rng.gaussians(width * height).reshape(height, width)


def random_crop(rng, img, size):
    """Axis-aligned square crop at a uniformly sampled offset (y then x)."""
    h, w = img.shape
    if size <= 0:
        raise ValueError("crop size must be positive")
    if size > h or size > w:
        raise ValueError("crop larger than image")
    y = rng.randint(h - size + 1)
    x = rng.randint(w - size + 1)
    return img[y:y + size, x:x + size].copy()


# ---------------------------------------------------------------------------
# Netpbm I/O
#
# PGM P2/P5 load (maxval <= 65535, two-byte big-endian samples past 255),
# PGM P5 save, PBM P4 save/load. In PBM a 1 bit is black ink, i.e. tone 0.

class NetpbmError(ValueError):
    """Malformed Netpbm input; message names the offending byte offset."""


class _TokenReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _skip_separators(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            b = data[self.pos]
            if b in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def token(self, what):
        self._skip_separators()
        if self.pos >= len(self.data):
            raise NetpbmError(
                f"unexpected end of file at byte {self.pos} while reading {what}")
        start = self.pos
        n = len(self.data)
        while self.pos < n and self.data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        return self.data[start:self.pos], start

    def int_token(self, what):
        tok, start = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise NetpbmError(
                f"expected integer for {what} at byte {start}, got {tok!r}") from None


def _read_header(reader, magic):
    got, start = reader.token("magic number")
    if got != magic:
        raise NetpbmError(f"bad magic at byte {start}: expected {magic!r}, got {got!r}")
    width = reader.int_token("width")
    height = reader.int_token("height")
    if width <= 0 or height <= 0:
        raise NetpbmError(f"non-positive dimensions {width}x{height} in header")
    return width, height


def load_pgm(path):
    """Load a P2 or P5 PGM as a contone image in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise NetpbmError(f"bad magic at byte 0: {data[:2]!r} is not P2/P5")
    ascii_form = data[:2] == b"P2"
    reader = _TokenReader(data)
    width, height = _read_header(reader, b"P2" if ascii_form else b"P5")
    maxval = reader.int_token("maxval")
    if not 0 < maxval <= 65535:
        raise NetpbmError(f"maxval {maxval} outside [1, 65535]")
    n = width * height
    if ascii_form:
        # every sample takes a digit and a separator: bound n by the bytes
        # left before allocating
        if n > (len(data) - reader.pos + 1) // 2:
            raise NetpbmError(
                f"{width}x{height} samples cannot fit in the "
                f"{len(data) - reader.pos} bytes after byte {reader.pos}")
        vals = np.empty(n, dtype=np.float64)
        for i in range(n):
            v = reader.int_token(f"sample {i}")
            if v < 0 or v > maxval:
                raise NetpbmError(f"sample {i} out of range near byte {reader.pos}")
            vals[i] = v
    else:
        # single whitespace byte separates maxval from the payload
        if reader.pos >= len(data):
            raise NetpbmError(f"unexpected end of file at byte {reader.pos}")
        reader.pos += 1
        wide = maxval > 255
        need = n * (2 if wide else 1)
        payload = data[reader.pos:reader.pos + need]
        if len(payload) < need:
            raise NetpbmError(
                f"truncated payload at byte {reader.pos + len(payload)}: "
                f"expected {need} bytes, found {len(payload)}")
        raw = np.frombuffer(payload, dtype=">u2" if wide else np.uint8)
        if raw.max(initial=0) > maxval:
            raise NetpbmError("sample exceeds declared maxval")
        vals = raw.astype(np.float64)
    return (vals / float(maxval)).reshape(height, width)


def save_pgm(img, path, maxval=255):
    """Save tones in [0, 1] as binary P5, rounding to the maxval lattice."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if not 0 < maxval <= 65535:
        raise ValueError("maxval outside [1, 65535]")
    q = np.rint(img * maxval)
    if q.min() < 0 or q.max() > maxval:
        raise ValueError("tones outside [0, 1]")
    height, width = img.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    payload = q.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def save_pbm(halftone, path):
    """Save a binary halftone as packed P4. Tone 1 (white) packs as bit 0."""
    h = validate_halftone(halftone)
    height, width = h.shape
    bits = (1 - h).astype(np.uint8)         # ink bit: 1 = black
    packed = np.packbits(bits, axis=1)       # MSB-first, rows padded to bytes
    header = f"P4\n{width} {height}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + packed.tobytes())


def load_pbm(path):
    """Load a packed P4 bitmap back into a {0, 1} halftone (1 = white)."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _TokenReader(data)
    width, height = _read_header(reader, b"P4")
    if reader.pos >= len(data):
        raise NetpbmError(f"unexpected end of file at byte {reader.pos}")
    reader.pos += 1
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    payload = data[reader.pos:reader.pos + need]
    if len(payload) < need:
        raise NetpbmError(
            f"truncated payload at byte {reader.pos + len(payload)}: "
            f"expected {need} bytes, found {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(raw, axis=1)[:, :width]
    return (1.0 - bits).astype(np.float64)
