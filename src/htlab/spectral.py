"""Blue-noise spectral statistics: periodogram, RAPSD, anisotropy, and a
differentiable ring-variance penalty.

Frequencies are the signed DFT lattice (fx in [-W/2, W/2)); bins are grouped
into unit-width rings by rounding the radial frequency. The DC bin belongs to
no ring, and rings with a single member carry no variance information, so
both are excluded from anisotropy and from the loss. Radii are sqrt of
integers and therefore never land exactly on .5, so rounding has no ties.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np


def periodogram(x):
    """P(f) = |DFT(x)|^2 / N. Parseval: sum(P) equals sum(x^2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("periodogram expects a non-empty 2-D array")
    n = x.size
    fx = np.fft.fft2(x)
    return (fx.real ** 2 + fx.imag ** 2) / n


@dataclass(frozen=True)
class RingPartition:
    shape: tuple
    ring_index: np.ndarray = field(repr=False)   # -1 marks the DC bin
    radii: np.ndarray = field(repr=False)        # integer ring radii, from 1
    counts: np.ndarray = field(repr=False)       # members per ring


def _signed_freqs(n):
    return ((np.arange(n) + n // 2) % n) - n // 2


@functools.lru_cache(maxsize=32)
def ring_partition(shape):
    """Group every non-DC bin into the ring round(rho), rho in lattice units.

    Cached per shape, so every caller shares one partition; its arrays are
    read-only.
    """
    hgt, wid = shape
    if hgt < 1 or wid < 1:
        raise ValueError("shape must be positive")
    fy = _signed_freqs(hgt)
    fx = _signed_freqs(wid)
    rho = np.sqrt(fy[:, None] ** 2.0 + fx[None, :] ** 2.0)
    ring = np.rint(rho).astype(np.int64)
    ring[0, 0] = -1
    radii = np.unique(ring[ring > 0])
    counts = np.array([(ring == r).sum() for r in radii], dtype=np.int64)
    # reindex rings densely so bincount-style reductions stay compact
    dense = np.full(ring.shape, -1, dtype=np.int64)
    for i, r in enumerate(radii):
        dense[ring == r] = i
    for arr in (dense, radii, counts):
        arr.flags.writeable = False
    return RingPartition((hgt, wid), dense, radii, counts)


@dataclass
class RapsdCurve:
    radii: np.ndarray
    power: np.ndarray        # per-ring mean periodogram
    anisotropy: np.ndarray   # NaN where undefined (n=1 ring or zero power)
    counts: np.ndarray
    dc_power: float


def _ring_sums(part, values):
    flat_ring = part.ring_index.ravel()
    keep = flat_ring >= 0
    return np.bincount(flat_ring[keep], weights=values.ravel()[keep],
                       minlength=len(part.radii))


def rapsd(p_hat, part=None):
    """Radially averaged power and per-ring anisotropy of a periodogram."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    part = part or ring_partition(p_hat.shape)
    if part.shape != p_hat.shape:
        raise ValueError("partition shape mismatch")
    power = _ring_sums(part, p_hat) / part.counts
    dev = p_hat - np.where(part.ring_index >= 0,
                           power[np.maximum(part.ring_index, 0)], 0.0)
    ssq = _ring_sums(part, dev * dev)
    anis = np.full(len(part.radii), math.nan)
    ok = (part.counts > 1) & (power > 0.0)
    anis[ok] = ssq[ok] / (power[ok] ** 2 * (part.counts[ok] - 1))
    return RapsdCurve(part.radii.copy(), power, anis, part.counts.copy(),
                      float(p_hat[0, 0]))


def anisotropy_db(anis):
    """10 log10(A); NaN and non-positive values stay NaN."""
    anis = np.asarray(anis, dtype=np.float64)
    out = np.full(anis.shape, math.nan)
    ok = np.isfinite(anis) & (anis > 0)
    out[ok] = 10.0 * np.log10(anis[ok])
    return out


def _loss_pieces(x, part):
    x = np.asarray(x, dtype=np.float64)
    part = part or ring_partition(x.shape)
    if part.shape != x.shape:
        raise ValueError("partition shape mismatch")
    n = x.size
    fx = np.fft.fft2(x)
    p_hat = (fx.real ** 2 + fx.imag ** 2) / n
    power = _ring_sums(part, p_hat) / part.counts
    included = part.counts > 1
    ring_ok = np.where(part.ring_index >= 0,
                       included[np.maximum(part.ring_index, 0)], False)
    dev = np.where(ring_ok,
                   p_hat - power[np.maximum(part.ring_index, 0)], 0.0)
    return fx, dev


def anisotropy_loss(x, part=None):
    """Sum over rings of squared deviation from the ring mean, computed on
    the periodogram of x (DC and singleton rings excluded)."""
    _, dev = _loss_pieces(x, part)
    return float(np.sum(dev * dev))


def anisotropy_loss_backward(x, part=None):
    """Analytic gradient of anisotropy_loss with respect to x.

    With G(f) = dL/dP(f) = 2 * (P(f) - ring mean) on included bins, the
    chain rule through P = |X|^2 / N collapses to 2 Re(IDFT(G * X)); the ring
    mean's own dependence cancels because deviations sum to zero per ring.
    """
    x = np.asarray(x, dtype=np.float64)
    fx, dev = _loss_pieces(x, part)
    return 4.0 * np.fft.ifft2(dev * fx).real
