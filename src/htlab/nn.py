"""Minimal fully-convolutional network with hand-written backprop.

The policy network maps a float64 (batch, channels, height, width) input
of 2 channels (contone + noise) through an input conv, B residual blocks
(conv-ReLU-conv plus identity skip) and an output conv to a single
channel, finished by a pixel-wise sigmoid. 3x3 kernels, stride 1, zero
padding 1 everywhere, so spatial dims never change.

Inside the network an activation has one layout: a zero-padded
channels-last buffer (B, H+3, W+2, C) with the image at [:, 1:H+1, 1:W+1]
and zeros everywhere else (the padding ring). Each layer reads and returns
such buffers, so one layer's output is the next one's input as it stands;
the network converts layouts only at its two edges. Conv2d reads a buffer
as one (rows, C) matrix: each of the 9 taps is a GEMM of a contiguous run
of rows with the tap's weights, accumulated into a fresh buffer of the same
layout. The forward takes all 9 taps over one cache-sized block of rows at
a time, and the input gradient gathers back through the same shifts over
blocks of its own size (see _BACKWARD_MACS). The weight gradient contracts
the upstream gradient with each tap's (B*H*W, Cin) window. Every product
keeps the operand orientation and summation order of a per-tap tensordot,
and the bias gradient sums a C-contiguous (B, C, H, W) copy, since numpy
reduces in memory order. BLAS picks its kernel by problem size and thread
count, so the tests pin that form's bytes only where they were measured
(numpy 2.4.6, OpenBLAS 0.3.31, 1 and 2 BLAS threads, at the shapes the
README lists); elsewhere the two agree to rounding.

A training forward keeps each conv's input and p, nothing else (a block
reads its ReLU mask back from its second conv's input); a forward-only call
(train=False, as inference runs) keeps nothing, and backward must wait for
the next training forward. The tap weights, the GEMM products and the
weight-gradient scratch live in a Workspace that the layers of one
PolicyNetwork share, since none of them outlives the call that fills it; a
workspace holds one input geometry at a time.

Gradients are exact analytic transposes of the forward ops; training injects
an upstream dL/dp at the sigmoid output and backpropagates to every weight.
Checkpoints are a fixed little-endian binary: magic "HTNN", version, arch,
then float64 parameter and Adam moment blobs. read_checkpoint hands out
read-only views of the file's bytes, and gradients stay unwritten zero pages
until a backward, so loading a policy for inference holds the file and one
copy of its parameters.
"""

import math
import struct

import numpy as np

CHECKPOINT_MAGIC = b"HTNN"
CHECKPOINT_VERSION = 1
# a Conv2d.forward block is _BLOCK / max(Cin, Cout) rows (256 KiB of each
# operand) rounded down to a power of two, so that it starts where BLAS's
# row groups start; 2730 rows at 12 -> 1 moved bytes
_BLOCK = 2 ** 15
# a Conv2d.backward input-gradient block is _BACKWARD_MACS / (Cin * Cout)
# rows rounded up to a power of two, the last taking the rest: OpenBLAS
# switches kernels at 10^6 multiply-adds, and at Cin in {2, 3, 4, 12} with
# Cout >= 16 the two kernels sum in different orders
_BACKWARD_MACS = 2 ** 20
# Adam's moment decay rates and denominator floor (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Parameter:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        # np.zeros pages stay unwritten, and so not resident, until a backward
        self.grad = np.zeros(self.value.shape)


class Workspace:
    """Scratch arrays of the Conv2d layers of one network: the forward's
    tap weights and block-sized GEMM products, and the backward's
    whole-batch products and weight-gradient windows.

    No value in them outlives the forward or backward call that wrote it,
    so every layer of a network can share one set. Arrays are keyed by role
    and shape and allocated once; only those of the latest input geometry
    (B, H+3, W+2) are kept, which bounds the memory to one geometry's worth.
    """

    def __init__(self):
        self._geometry = None
        self._arrays = {}

    def get(self, geometry, role, shape):
        """The array for (role, shape); a new geometry drops the rest."""
        if geometry != self._geometry:
            self._geometry, self._arrays = geometry, {}
        arr = self._arrays.get((role, shape))
        if arr is None:
            arr = self._arrays[role, shape] = np.zeros(shape)
        return arr


def _zero_ring(buf):
    """Zero everything of a padded (B, H+3, W+2, C) buffer outside
    [:, 1:H+1, 1:W+1]; returns buf."""
    buf[:, 0] = 0.0
    buf[:, -2:] = 0.0
    buf[:, :, 0] = 0.0
    buf[:, :, -1] = 0.0
    return buf


class Conv2d:
    """3x3, stride 1, zero-pad 1, computed as flat shifts on padded
    channels-last buffers (see the module docstring).

    A buffer (B, H+3, W+2, C) is read as its (rows, C) view: padded pixel
    (y, x) of image i is row (i*(H+3) + y)*(W+2) + x. Tap (ki, kj) of the
    whole batch is the run of n = (B*(H+3) - 3)*(W+2) rows that starts
    ki*(W+2) + kj rows further on; its product with the tap's weights is
    added W+3 rows (one padded row and column) on, so that each output
    pixel lands at its own padded position. The extra bottom row keeps the
    last image's run inside the buffer. Rows of a run that fall in the
    padding are computed, never read, and zeroed in the returned buffer.
    The forward cuts the n output rows into blocks (see _BLOCK), and each
    block takes the bias, then the 9 taps' products of its own rows.
    """

    def __init__(self, c_in, c_out, workspace):
        self.c_in = c_in
        self.c_out = c_out
        self.weight = Parameter(np.zeros((c_out, c_in, 3, 3)))
        self.bias = Parameter(np.zeros(c_out))
        self._ws = workspace
        self._xb = None

    def forward(self, xb, train=True):
        """A padded (B, H+3, W+2, Cout) buffer from a padded input one;
        train=False keeps nothing for backward."""
        b, hp, wp, c = xb.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        self._xb = xb if train else None
        # "taps" is overwritten whole before each read
        taps = self._ws.get(xb.shape[:3], "taps", (3, 3, c, self.c_out))
        taps[...] = self.weight.value.transpose(2, 3, 1, 0)
        out = np.empty((b, hp, wp, self.c_out))
        self._tap_blocks(xb, out, self.bias.value, taps,
                         _BLOCK >> (max(c, self.c_out) - 1).bit_length())
        return _zero_ring(out)

    def backward(self, dout):
        """dL/dinput as a padded buffer, from a padded upstream gradient;
        accumulates the weight and bias gradients."""
        xb = self._xb
        if xb is None:
            raise RuntimeError("backward needs a training forward first")
        b, hp, wp, _ = xb.shape
        hgt, wid = hp - 3, wp - 2
        geometry = xb.shape[:3]
        inner = dout[:, 1:hgt + 1, 1:wid + 1]
        # the bias and weight gradients sum over (B, H, W) in the memory
        # order of the per-tap form: of a (B, C, H, W) array, and of one
        # (Cout, B*H*W) by (B*H*W, Cin) product per tap
        self.bias.grad += np.ascontiguousarray(
            np.moveaxis(inner, 3, 1)).sum(axis=(0, 2, 3))
        dout_t = np.moveaxis(inner, 3, 0).reshape(self.c_out, -1)
        # "window", "dw" and "dtaps" are overwritten whole before each read
        window = self._ws.get(geometry, "window", (b, hgt, wid, self.c_in))
        wrows = window.reshape(-1, self.c_in)
        dw = self._ws.get(geometry, "dw", (self.c_out, self.c_in))
        for ki, kj in np.ndindex(3, 3):
            window[...] = xb[:, ki:ki + hgt, kj:kj + wid]
            np.dot(dout_t, wrows, out=dw)
            self.weight.grad[:, :, ki, kj] += dw
        taps = self._ws.get(geometry, "dtaps", (3, 3, self.c_out, self.c_in))
        # input rows read the upstream rows that forward tap (2-ki, 2-kj)
        # wrote from them, ki*(W+2) + kj rows on
        taps[...] = self.weight.value.transpose(2, 3, 0, 1)[::-1, ::-1]
        rows = -(-_BACKWARD_MACS // (self.c_in * self.c_out))
        dx = np.empty(xb.shape)
        self._tap_blocks(dout, dx, 0.0, taps, 1 << (rows - 1).bit_length(),
                         backward=True)
        return _zero_ring(dx)

    def _tap_blocks(self, src, dst, init, taps, rows, backward=False):
        """Fill the n = (B*(H+3) - 3)*(W+2) rows of dst's (rows, C) view
        from W+3 rows in, block by block: a block takes init, then adds
        src's rows ki*(W+2) + kj on times taps[ki, kj], taps in row-major
        order (reversed for backward, whose last block takes the rest), the
        terms and order of one whole-batch product per tap."""
        b, hp, wp, c_src = src.shape
        n = (b * hp - 3) * wp
        rows = min(n, rows)
        starts = range(0, n - rows + 1 if backward else n, rows)
        # "product" is overwritten whole before each read
        product = self._ws.get(src.shape[:3], "product",
                               (max(rows, n - starts[-1]), dst.shape[3]))
        srows = src.reshape(-1, c_src)
        acc = dst.reshape(-1, dst.shape[3])[wp + 1:wp + 1 + n]
        order = list(np.ndindex(3, 3))[::-1 if backward else 1]
        for start in starts:
            block = acc[start:n if start == starts[-1] else start + rows]
            prod = product[:len(block)]
            block[...] = init
            for ki, kj in order:
                at = start + ki * wp + kj
                np.matmul(srows[at:at + len(block)], taps[ki, kj], out=prod)
                block += prod

    def params(self):
        return [self.weight, self.bias]


class ResidualBlock:
    """x + conv2(relu(conv1(x))); no normalization layers."""

    def __init__(self, channels, workspace):
        self.conv1 = Conv2d(channels, channels, workspace)
        self.conv2 = Conv2d(channels, channels, workspace)

    def forward(self, x, train=True):
        y = self.conv1.forward(x, train)
        np.multiply(y, y > 0, out=y)
        out = self.conv2.forward(y, train)
        out += x
        return out

    def backward(self, dout):
        dy = self.conv2.backward(dout)
        # conv2 kept relu(y), which is > 0 exactly where y > 0
        dy *= self.conv2._xb > 0
        return dout + self.conv1.backward(dy)

    def params(self):
        return self.conv1.params() + self.conv2.params()


class PolicyNetwork:
    """Input conv (2 -> C), B residual blocks, output conv (C -> 1), sigmoid."""

    # every input is the contone and its noise map
    in_channels = 2

    def __init__(self, channels=32, blocks=16):
        self.channels = channels
        self.blocks = blocks
        # one workspace for every layer: a layer's scratch never outlives
        # its call
        ws = Workspace()
        self.conv_in = Conv2d(self.in_channels, channels, ws)
        self.res = [ResidualBlock(channels, ws) for _ in range(blocks)]
        self.conv_out = Conv2d(channels, 1, ws)
        self._p = None

    def params(self):
        out = self.conv_in.params()
        for blk in self.res:
            out += blk.params()
        return out + self.conv_out.params()

    def init_params(self, rng, std=0.01):
        """Weights N(0, std^2) drawn in fixed order, biases zero."""
        for p in self.params():
            if p.value.ndim > 1:
                p.value[...] = rng.gaussians(p.value.size).reshape(
                    p.value.shape) * std
            else:
                p.value[...] = 0.0
            p.grad[...] = 0.0

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0.0

    @staticmethod
    def _pad(x):
        """A (B, C, H, W) batch as a padded channels-last buffer."""
        b, c, hgt, wid = x.shape
        buf = np.zeros((b, hgt + 3, wid + 2, c))
        buf[:, 1:hgt + 1, 1:wid + 1] = x.transpose(0, 2, 3, 1)
        return buf

    @staticmethod
    def _crop(buf):
        """The C-contiguous (B, C, H, W) image of a padded buffer: numpy
        reduces in memory order, so callers' sums depend on the layout."""
        return np.ascontiguousarray(buf[:, 1:-2, 1:-1].transpose(0, 3, 1, 2))

    def forward(self, x, train=True):
        """Probabilities in (0, 1), shape (B, 1, H, W). train=False runs
        forward only and keeps nothing for backward."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError("input must be (batch, channels, height, width)")
        # the finite check is the one report of a diverged net; exp(-logits)
        # overflowing to inf gives the exact limit p = 0
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.conv_in.forward(self._pad(x), train)
            for blk in self.res:
                y = blk.forward(y, train)
            logits = self._crop(self.conv_out.forward(y, train))
            if not np.all(np.isfinite(logits)):
                raise FloatingPointError("non-finite logits")
            p = 1.0 / (1.0 + np.exp(-logits))
        self._p = p if train else None
        return p

    def backward(self, dp):
        """Backpropagate dL/dp injected at the sigmoid output; accumulates
        parameter gradients and returns dL/dinput."""
        p = self._p
        if p is None:
            raise RuntimeError("backward needs a training forward first")
        dy = self.conv_out.backward(self._pad(dp * p * (1.0 - p)))
        for blk in reversed(self.res):
            dy = blk.backward(dy)
        return self._crop(self.conv_in.backward(dy))


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for p, m, v in zip(self.params, self.m, self.v):
                g = p.grad
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p.value -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
                # a checkpoint cannot hold a non-finite parameter or moment
                if not all(np.isfinite(a).all() for a in (p.value, m, v)):
                    raise FloatingPointError("non-finite Adam update")


def cosine_lr(t, total, lr_start=3e-4, lr_end=1e-5):
    """Cosine decay from lr_start to lr_end over `total` steps; clamps past
    the end."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if t >= total:
        return lr_end
    if t < 0:
        raise ValueError("step must be non-negative")
    return float(lr_end + 0.5 * (lr_start - lr_end) * (
        1.0 + math.cos(math.pi * t / total)))


# ---------------------------------------------------------------------------
# checkpoint format

_HEADER = struct.Struct("<4sIIIIQQ4Q")   # magic, ver, in_ch, ch, blocks,
                                         # iteration, adam step, rng state


def save_checkpoint(path, net, adam=None, iteration=0, rng_state=(0, 0, 0, 0)):
    params = net.params()
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                          net.in_channels, net.channels, net.blocks,
                          iteration, adam.t if adam else 0, *rng_state)
    with open(path, "wb") as fh:
        fh.write(header)
        for p in params:
            fh.write(p.value.astype("<f8").tobytes())
        if adam is not None:
            for buf in adam.m + adam.v:
                fh.write(buf.astype("<f8").tobytes())


class CheckpointError(ValueError):
    pass


def _param_count(ch, blocks):
    """Parameters of PolicyNetwork(ch, blocks): 3x3 weights plus a bias per
    output channel, for the input conv, two convs per residual block and
    the output conv."""
    return ((9 * PolicyNetwork.in_channels + 1) * ch
            + blocks * 2 * (9 * ch + 1) * ch + 9 * ch + 1)


def read_checkpoint(path):
    """Returns (meta dict, list of parameter arrays, adam m, adam v), each
    array a read-only view of the file's bytes.

    adam blobs are None when the file carries bare parameters.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError("file shorter than checkpoint header")
    magic, ver, in_ch, ch, blocks, iteration, adam_t, *rng_state = \
        _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if ver != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {ver}")
    if in_ch != PolicyNetwork.in_channels:
        raise CheckpointError(f"{in_ch} input channels, not the policy's "
                              f"{PolicyNetwork.in_channels}")
    if ch < 1:
        raise CheckpointError(f"empty arch: C={ch}")
    # check the blob against the arch before allocating anything for it
    n_params = _param_count(ch, blocks)
    body_bytes = len(raw) - _HEADER.size
    if body_bytes % 8:
        raise CheckpointError(f"blob of {body_bytes} bytes is not whole "
                              f"float64 values")
    if body_bytes // 8 not in (n_params, 3 * n_params):
        raise CheckpointError(
            f"blob length {body_bytes // 8} does not match arch "
            f"(C={ch}, B={blocks}): expected {n_params} or {3 * n_params}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if not np.all(np.isfinite(body)):
        raise CheckpointError("checkpoint holds non-finite values")
    probe = PolicyNetwork(channels=ch, blocks=blocks)
    shapes = [p.value.shape for p in probe.params()]
    cuts = np.cumsum([math.prod(s) for s in shapes])[:-1]
    # one row for the parameters, then one each for Adam's m and v
    blobs = [[part.reshape(s) for part, s in zip(np.split(row, cuts), shapes)]
             for row in body.reshape(-1, n_params)]
    values, m, v = blobs + [None] * (3 - len(blobs))
    meta = {"channels": ch, "blocks": blocks, "iteration": iteration,
            "adam_t": adam_t, "rng_state": tuple(rng_state)}
    return meta, values, m, v


def load_checkpoint(path, net, adam=None):
    """Restore parameters (and Adam state) into an existing net; the file
    arch must match. Returns the meta dict."""
    meta, values, m, v = read_checkpoint(path)
    if (meta["channels"], meta["blocks"]) != (net.channels, net.blocks):
        raise CheckpointError(
            f"arch mismatch: file C={meta['channels']} B={meta['blocks']} "
            f"vs net C={net.channels} B={net.blocks}")
    for p, val in zip(net.params(), values):
        p.value[...] = val
    if adam is not None:
        if m is None:
            raise CheckpointError("checkpoint carries no optimizer state")
        adam.t = meta["adam_t"]
        for buf, val in zip(adam.m, m):
            buf[...] = val
        for buf, val in zip(adam.v, v):
            buf[...] = val
    return meta


def network_from_checkpoint(path):
    """Build a fresh net with the arch recorded in the file."""
    meta, values, _, _ = read_checkpoint(path)
    net = PolicyNetwork(channels=meta["channels"], blocks=meta["blocks"])
    for p, val in zip(net.params(), values):
        p.value[...] = val
    return net, meta
