"""Minimal fully-convolutional network with hand-written backprop.

Float64 tensors are (batch, channels, height, width) numpy arrays. The policy
network maps a 2-channel input (contone + noise) through an input conv, B
residual blocks (conv-ReLU-conv plus identity skip) and an output conv to a
single channel, finished by a pixel-wise sigmoid. 3x3 kernels, stride 1,
zero padding 1 everywhere, so spatial dims never change.

Conv2d works in a flat-shift layout. It pads a batch once into a
channels-last buffer (B, H+3, W+2, C) and reads it as one (rows, C) matrix.
Each of the 9 taps is then one GEMM of a contiguous block of rows with the
tap's weight slice, accumulated into an output buffer of the same layout,
and the padding columns are cropped at the end. The input gradient
scatters back through the same blocks; the weight gradient contracts the
upstream gradient with each tap's (B*H*W, Cin) window. Every product keeps
the operand orientation and summation order of a per-tap tensordot, and the
tests hold the results byte-identical to that form. Forward and backward
return C-contiguous (B, C, H, W) arrays: numpy reduces in memory order, so
the layout of an array fixes the bytes of the sums taken over it
downstream.

A warm training step allocates no scratch. Each Conv2d keeps its padded
input (backward needs it) and rewrites only its interior; every other
buffer (the output accumulator, the per-tap GEMM product, the padded
upstream gradient, the input-gradient accumulator and the weight-gradient
window and product) lives in a Workspace that the layers of one
PolicyNetwork share, since none of them outlives the call that fills it.
A forward-only call (train=False, as inference runs) keeps nothing for
backward: its padded inputs are workspace scratch too, and backward must
wait for the next training forward. A workspace holds one input geometry
at a time. Arrays handed to callers are always fresh copies, never views
of scratch. A standalone Conv2d owns its workspace.

Gradients are exact analytic transposes of the forward ops; training injects
an upstream dL/dp at the sigmoid output and backpropagates to every weight.
Checkpoints are a fixed little-endian binary: magic "HTNN", version, arch,
then float64 parameter and Adam moment blobs.
"""

import math
import struct

import numpy as np

CHECKPOINT_MAGIC = b"HTNN"
CHECKPOINT_VERSION = 1


class Parameter:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class Workspace:
    """Scratch arrays of the Conv2d layers of one network.

    No value in them outlives the forward or backward call that wrote it,
    so every layer of a network can share one set. Arrays are keyed by role
    and shape and allocated zero-filled once; only those of the latest
    input geometry (B, H, W) are kept, which bounds the memory to one
    geometry's worth.
    """

    def __init__(self):
        self._geometry = None
        self._arrays = {}

    def get(self, geometry, role, shape):
        """The array for (role, shape), zero-filled when first allocated;
        switching geometry drops every array of the previous one."""
        if geometry != self._geometry:
            self._geometry, self._arrays = geometry, {}
        arr = self._arrays.get((role, shape))
        if arr is None:
            arr = self._arrays[role, shape] = np.zeros(shape)
        return arr


class Conv2d:
    """3x3, stride 1, zero-pad 1, computed as flat shifts: each tap is one
    GEMM of a contiguous row block of the padded channels-last input with
    that tap's (Cin, Cout) weight slice.

    A batch (B, H, W) lives in a buffer (B, H+3, W+2, C) read as its
    (rows, C) view: padded pixel (y, x) of image i is row
    (i*(H+3) + y)*(W+2) + x, and output pixel (y, x) sits at the row of
    padded pixel (y, x), so tap (ki, kj) of the whole batch is the block of
    n = (B*(H+3) - 3)*(W+2) rows that starts ki*(W+2) + kj rows further on.
    The extra bottom row keeps the last image's block inside the buffer.
    Rows of a block that fall in padding columns or between images are
    computed and never read.

    A training forward pads into the layer's own buffer, kept for
    backward; every other buffer comes from the workspace (see the module
    docstring). Forward and backward return fresh C-contiguous
    (B, C, H, W) arrays.
    """

    def __init__(self, c_in, c_out, workspace=None):
        self.c_in = c_in
        self.c_out = c_out
        self.weight = Parameter(np.zeros((c_out, c_in, 3, 3)))
        self.bias = Parameter(np.zeros(c_out))
        self._ws = Workspace() if workspace is None else workspace
        self._xb = None

    def forward(self, x, train=True):
        b, c, hgt, wid = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c}")
        padded = (b, hgt + 3, wid + 2)
        n = (b * (hgt + 3) - 3) * (wid + 2)
        geometry = (b, hgt, wid)
        # padded inputs are only ever written in their interior, so their
        # padding stays zero
        if not train:
            self._xb = None
            xb = self._ws.get(geometry, "xb", padded + (c,))
        else:
            if self._xb is None or self._xb.shape != padded + (c,):
                self._xb = np.zeros(padded + (c,))
            xb = self._xb
        xb[:, 1:hgt + 1, 1:wid + 1] = x.transpose(0, 2, 3, 1)
        xrows = xb.reshape(-1, c)
        # "acc" is set (here rows :n, the only rows read) at the start of
        # every call; "product" is overwritten whole by each np.dot
        out = self._ws.get(geometry, "acc", padded + (self.c_out,))
        orows = out.reshape(-1, self.c_out)
        product = self._ws.get(geometry, "product", (n, self.c_out))
        orows[:n] = self.bias.value
        w = self.weight.value
        for ki in range(3):
            for kj in range(3):
                at = ki * (wid + 2) + kj
                np.dot(xrows[at:at + n], w[:, :, ki, kj].T, out=product)
                orows[:n] += product
        # copy() always copies: a view of scratch that happens to be
        # contiguous (B = H = 1) must not reach the caller
        return out[:, :hgt, :wid].transpose(0, 3, 1, 2).copy()

    def backward(self, dout):
        xb = self._xb
        if xb is None:
            raise RuntimeError("backward needs a training forward first")
        padded = xb.shape[:3]
        b, hgt, wid = padded[0], padded[1] - 3, padded[2] - 2
        n = (b * (hgt + 3) - 3) * (wid + 2)
        geometry = (b, hgt, wid)
        self.bias.grad += dout.sum(axis=(0, 2, 3))
        w = self.weight.value
        # dW contracts over (B, H, W) in that order, as one (Cout, B*H*W)
        # by (B*H*W, Cin) product per tap, so padding rows never enter its
        # sums
        dout_t = dout.transpose(1, 0, 2, 3).reshape(self.c_out, -1)
        # "dpad" is only ever written in its interior, so its padding stays
        # zero; "acc" is zeroed here; "window", "dw" and "product" are
        # overwritten whole before each read
        dpad = self._ws.get(geometry, "dpad", padded + (self.c_out,))
        drows = dpad.reshape(-1, self.c_out)
        dpad[:, :hgt, :wid] = dout.transpose(0, 2, 3, 1)
        dxb = self._ws.get(geometry, "acc", padded + (self.c_in,))
        dxb[...] = 0.0
        dxrows = dxb.reshape(-1, self.c_in)
        window = self._ws.get(geometry, "window", (b, hgt, wid, self.c_in))
        wrows = window.reshape(-1, self.c_in)
        dw = self._ws.get(geometry, "dw", (self.c_out, self.c_in))
        product = self._ws.get(geometry, "product", (n, self.c_in))
        for ki in range(3):
            for kj in range(3):
                window[...] = xb[:, ki:ki + hgt, kj:kj + wid]
                np.dot(dout_t, wrows, out=dw)
                self.weight.grad[:, :, ki, kj] += dw
                at = ki * (wid + 2) + kj
                np.dot(drows[:n], w[:, :, ki, kj], out=product)
                dxrows[at:at + n] += product
        return dxb[:, 1:hgt + 1, 1:wid + 1].transpose(0, 3, 1, 2).copy()

    def params(self):
        return [self.weight, self.bias]


class ResidualBlock:
    """x + conv2(relu(conv1(x))); no normalization layers."""

    def __init__(self, channels, workspace=None):
        self.conv1 = Conv2d(channels, channels, workspace)
        self.conv2 = Conv2d(channels, channels, workspace)
        self._relu_mask = None

    def forward(self, x, train=True):
        y = self.conv1.forward(x, train)
        mask = y > 0
        self._relu_mask = mask if train else None
        y = y * mask
        return x + self.conv2.forward(y, train)

    def backward(self, dout):
        dy = self.conv2.backward(dout)
        dy = dy * self._relu_mask
        return dout + self.conv1.backward(dy)

    def params(self):
        return self.conv1.params() + self.conv2.params()


class PolicyNetwork:
    """Input conv (2 -> C), B residual blocks, output conv (C -> 1), sigmoid."""

    def __init__(self, channels=32, blocks=16, in_channels=2):
        self.channels = channels
        self.blocks = blocks
        self.in_channels = in_channels
        # one workspace for every layer: a layer's scratch never outlives
        # its call
        ws = Workspace()
        self.conv_in = Conv2d(in_channels, channels, ws)
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

    def forward(self, x, train=True):
        """Probabilities in (0, 1), shape (B, 1, H, W). train=False runs
        forward only and keeps nothing for backward."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError("input must be (batch, channels, height, width)")
        # the finite check is the one report of a diverged net; exp(-logits)
        # overflowing to inf gives the exact limit p = 0
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.conv_in.forward(x, train)
            for blk in self.res:
                y = blk.forward(y, train)
            logits = self.conv_out.forward(y, train)
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
        dlogits = dp * p * (1.0 - p)
        dy = self.conv_out.backward(dlogits)
        for blk in reversed(self.res):
            dy = blk.backward(dy)
        return self.conv_in.backward(dy)


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for p, m, v in zip(self.params, self.m, self.v):
                g = p.grad
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p.value -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
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


def _param_count(in_ch, ch, blocks):
    """Parameters of PolicyNetwork(ch, blocks, in_ch): 3x3 weights plus a
    bias per output channel, for the input conv, two convs per residual
    block and the output conv."""
    return ((9 * in_ch + 1) * ch + blocks * 2 * (9 * ch + 1) * ch
            + 9 * ch + 1)


def read_checkpoint(path):
    """Returns (meta dict, list of parameter arrays, adam m, adam v).

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
    if in_ch < 1 or ch < 1:
        raise CheckpointError(f"empty arch: {in_ch} input channels, "
                              f"C={ch}")
    # check the blob against the arch before allocating anything for it
    n_params = _param_count(in_ch, ch, blocks)
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
    probe = PolicyNetwork(channels=ch, blocks=blocks, in_channels=in_ch)
    shapes = [p.value.shape for p in probe.params()]
    sizes = [int(np.prod(s)) for s in shapes]
    meta = {"in_channels": in_ch, "channels": ch, "blocks": blocks,
            "iteration": iteration, "adam_t": adam_t,
            "rng_state": tuple(rng_state)}

    def split(vec):
        out, at = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(vec[at:at + size].reshape(shape).copy())
            at += size
        return out

    values = split(body[:n_params])
    if len(body) == 3 * n_params:
        m = split(body[n_params:2 * n_params])
        v = split(body[2 * n_params:])
    else:
        m = v = None
    return meta, values, m, v


def load_checkpoint(path, net, adam=None):
    """Restore parameters (and Adam state) into an existing net; the file
    arch must match. Returns the meta dict."""
    meta, values, m, v = read_checkpoint(path)
    if (meta["in_channels"], meta["channels"], meta["blocks"]) != (
            net.in_channels, net.channels, net.blocks):
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
    net = PolicyNetwork(channels=meta["channels"], blocks=meta["blocks"],
                        in_channels=meta["in_channels"])
    for p, val in zip(net.params(), values):
        p.value[...] = val
    return net, meta
