"""Blue-noise spectral statistics: periodogram, RAPSD, anisotropy, and a
differentiable ring-variance penalty.

Frequencies are the signed DFT lattice (fx in [-W/2, W/2)); bins are grouped
into unit-width rings by rounding the radial frequency. Radii are sqrt of
integers and therefore never land exactly on .5, so rounding has no ties.
The DC bin belongs to no ring (a partition numbers it 0, the rings from 1);
it and the one member of a singleton ring deviate by 0 from their mean, so
neither adds to anisotropy or to the loss. Ring sums are one bincount per
image, with no index array, and rapsd squares the deviations in place: it
holds 2x its input at most.
A lattice with no ring (1x1) has only its DC bin. Every function takes one
(H, W) image or a stack of them (leading axes are a batch), and gives each
image of a stack the bytes it gets alone; the loss gives one per image.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np


def _spectrum(x):
    """DFT over the last two axes and the periodogram |DFT|^2 / N."""
    fx = np.fft.fft2(x)
    return fx, (fx.real ** 2 + fx.imag ** 2) / (x.shape[-2] * x.shape[-1])


def periodogram(x):
    """P(f) = |DFT(x)|^2 / N. Parseval: sum(P) equals sum(x^2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.size == 0:
        raise ValueError("periodogram expects a non-empty 2-D array or stack")
    return _spectrum(x)[1]


@dataclass(frozen=True)
class RingPartition:
    shape: tuple
    bins: np.ndarray = field(repr=False)         # DC is 0, rings from 1
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
    fy, fx = _signed_freqs(hgt), _signed_freqs(wid)
    radius = np.rint(np.sqrt(fy[:, None] ** 2.0 + fx[None, :] ** 2.0)) \
        .astype(np.int64)
    # members per integer radius; the radii that have any are the rings, and
    # a running count of them is each radius's dense index. Radius 0 holds
    # only DC (other bins have rho >= 1), so DC is 0 and rings index from 1
    counts = np.bincount(radius.ravel())
    radii = np.flatnonzero(counts)
    dense = np.cumsum(counts > 0) - 1
    arrays = (dense[radius], radii[1:], counts[radii[1:]])
    for arr in arrays:
        arr.flags.writeable = False
    return RingPartition((hgt, wid), *arrays)


@dataclass
class RapsdCurve:
    radii: np.ndarray
    power: np.ndarray        # per-ring mean periodogram
    anisotropy: np.ndarray   # NaN where undefined (n=1 ring or zero power)
    counts: np.ndarray
    dc_power: float          # one per image for a stack


def _ring_sums(part, values):
    """Per-ring sums of each image, DC first as bin 0: (..., R + 1). One
    bincount per image adds each bin's members in raster order."""
    bins = part.bins.ravel()
    images = values.reshape((-1,) + bins.shape)
    sums = [np.bincount(bins, weights=x, minlength=len(part.radii) + 1)
            for x in images]
    return np.reshape(sums, values.shape[:-2] + (-1,))


def _ring_stats(p_hat, part):
    """The partition, each ring's mean power (..., R) and each bin's
    deviation from its ring's mean (..., H, W). DC is its own one-member bin
    here, so its deviation is exactly 0, as on a singleton ring (x - x/1)."""
    part = part or ring_partition(p_hat.shape[-2:])
    if part.shape != p_hat.shape[-2:]:
        raise ValueError("partition shape mismatch")
    mean = _ring_sums(part, p_hat)
    mean[..., 1:] /= part.counts
    dev = np.take(mean, part.bins, axis=-1)
    return part, mean[..., 1:], np.subtract(p_hat, dev, out=dev)


def rapsd(p_hat, part=None):
    """Radially averaged power and per-ring anisotropy of a periodogram."""
    p_hat = np.asarray(p_hat, dtype=np.float64)
    part, power, dev = _ring_stats(p_hat, part)
    ssq = _ring_sums(part, np.square(dev, out=dev))[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        anis = np.where((part.counts > 1) & (power > 0.0),
                        ssq / (power ** 2 * (part.counts - 1)), math.nan)
    dc = p_hat[..., 0, 0]
    return RapsdCurve(part.radii.copy(), power, anis, part.counts.copy(),
                      float(dc) if dc.ndim == 0 else dc.copy())


def anisotropy_db(anis):
    """10 log10(A); NaN and non-positive values stay NaN."""
    anis = np.asarray(anis, dtype=np.float64)
    out = np.full(anis.shape, math.nan)
    ok = np.isfinite(anis) & (anis > 0)
    out[ok] = 10.0 * np.log10(anis[ok])
    return out


def _loss_pieces(x, part):
    fx, p_hat = _spectrum(np.asarray(x, dtype=np.float64))
    return fx, _ring_stats(p_hat, part)[2]


def anisotropy_loss(x, part=None):
    """Sum over rings of squared deviation from the ring mean, computed on
    the periodogram of x; one value per image of a stack."""
    _, dev = _loss_pieces(x, part)
    loss = np.sum(dev * dev, axis=(-2, -1))
    return float(loss) if loss.ndim == 0 else loss


def anisotropy_loss_backward(x, part=None):
    """Analytic gradient of anisotropy_loss with respect to x.

    With G(f) = dL/dP(f) = 2 * (P(f) - ring mean), 0 at DC, the chain rule
    through P = |X|^2 / N collapses to 2 Re(IDFT(G * X)); the ring mean's
    own dependence cancels because deviations sum to zero per ring.
    """
    fx, dev = _loss_pieces(x, part)
    return 4.0 * np.fft.ifft2(dev * fx).real
