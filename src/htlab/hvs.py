"""Human-visual-system low-pass filters and direct spatial convolution.

Two kernel families: a truncated Gaussian, and Nasanen's exponential
contrast-sensitivity model built in the frequency domain and inverse
transformed. Both are odd-sized, centro-symmetric and normalized to unit DC
gain, so filtering preserves mean tone. Convolution is a direct windowed sum
(no FFT path): pixel-local edits then change the output only inside the
kernel window, which the error-diffusion-free optimizers and the estimator
toggle algebra rely on. It adds the K^2 weighted shifted slices of one
zero-padded array in a fixed order and calls no BLAS, so its bytes do not
depend on the thread count or on whether an image comes alone or stacked.

A Gaussian kernel is the outer product of one 1-D factor, so a Gaussian
window is taken as two 1-D passes of K taps each (rows, then columns) by
correlate_separable, with the same fixed order, zero padding and batch
rule, at 2K multiply-adds a pixel instead of K^2. It agrees with the 2-D
sum to rounding (about 1e-15 on [0, 1] inputs). filter_image is the one
HVS filter of a configuration: the separable path for a Gaussian, the 2-D
sum for Nasanen, whose kernel is not separable (its second singular value
is 9.8 % of its first).

A kernel is a plain (K, K) float64 array and a factor a (K,) one. Each
builder caches its arrays, so every caller of one configuration shares one
array; the arrays are read-only, so copy one before editing it.
"""

import functools
from dataclasses import dataclass

import numpy as np

# Nasanen exponential model constants (literature values; configuration data,
# nothing downstream depends on them numerically).
NASANEN_CONSTANTS = {"a": 131.6, "b": 0.3188, "c": 0.525, "d": 3.91,
                     "luminance": 11.0}
# the DFT lattice a Nasanen kernel is sampled on bounds both kernel families
_NASANEN_GRID = 128


@dataclass(frozen=True)
class HvsConfig:
    """Which perceptual filter to build: 'nasanen' (scale S) or 'gaussian'."""
    model: str = "nasanen"
    size: int = 11
    scale: float = 2000.0   # S = resolution * viewing distance, nasanen only
    sigma: float = 2.0      # gaussian only


def build_kernel(cfg):
    if cfg.model == "nasanen":
        return build_nasanen_kernel(cfg.size, cfg.scale)
    if cfg.model == "gaussian":
        return build_gaussian_kernel(cfg.size, cfg.sigma)
    raise ValueError(f"unknown HVS model {cfg.model!r}")


def _unit_sum(k):
    """k scaled to sum 1, read-only; the one check of every built kernel,
    which must be finite with a positive sum."""
    total = k.sum()
    if not (np.isfinite(total) and total > 0 and np.isfinite(k).all()):
        raise ValueError("HVS kernel is not finite with a positive sum")
    k = k / total
    k.flags.writeable = False
    return k


# a sigma or scale out of range yields a kernel _unit_sum refuses, so the
# non-finite steps on the way to it need no warning
@np.errstate(divide="ignore", invalid="ignore")
def _gaussian_samples(size, sigma):
    """The unnormalized 1-D Gaussian both Gaussian builders start from."""
    if size % 2 != 1 or not 1 <= size <= _NASANEN_GRID:
        raise ValueError("kernel size must be odd, in [1, 128]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    return np.exp(-(x * x) / (2.0 * sigma * sigma))


@functools.lru_cache(maxsize=32)
def build_gaussian_kernel(size, sigma):
    """Sampled isotropic Gaussian, truncated to size x size, sum 1."""
    g1 = _gaussian_samples(size, sigma)
    return _unit_sum(np.outer(g1, g1))


@functools.lru_cache(maxsize=32)
def gaussian_factor(size, sigma):
    """The 1-D factor g of build_gaussian_kernel(size, sigma), sum 1: the
    kernel is outer(g, g) up to rounding."""
    return _unit_sum(_gaussian_samples(size, sigma))


def nasanen_frequency_response(f_cpd):
    """Exponential contrast-sensitivity falloff at f_cpd cycles/degree."""
    c = NASANEN_CONSTANTS
    lum = c["luminance"]
    gain = c["a"] * lum ** c["b"]
    return gain * np.exp(-np.asarray(f_cpd, dtype=np.float64)
                         / (c["c"] * np.log(lum) + c["d"]))


@np.errstate(invalid="ignore")
def _cpd_grid(n, scale):
    # one sample subtends 180 / (pi * S) degrees, so a digital frequency of
    # rho cycles/sample is rho * pi * S / 180 cycles/degree
    f = np.fft.fftfreq(n)
    rho = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    return rho * np.pi * scale / 180.0


@functools.lru_cache(maxsize=32)
def build_nasanen_kernel(size, scale):
    """Nasanen kernel: frequency-domain sampling, inverse DFT, truncation.

    The response is sampled on a 128^2 DFT lattice at the
    cycles/degree mapping implied by scale, inverse transformed to a spatial
    point-spread function, truncated to the central size x size window and
    renormalized to sum 1.
    """
    if size % 2 != 1 or not 1 <= size <= _NASANEN_GRID:
        raise ValueError("kernel size must be odd, in [1, 128]")
    if scale <= 0:
        raise ValueError("scale must be positive")
    resp = nasanen_frequency_response(_cpd_grid(_NASANEN_GRID, scale))
    spatial = np.fft.ifft2(resp).real
    spatial = np.fft.fftshift(spatial)
    half = size // 2
    mid = _NASANEN_GRID // 2
    return _unit_sum(spatial[mid - half:mid + half + 1,
                             mid - half:mid + half + 1].copy())


def convolve_same(img, kernel):
    """Same-size direct convolution with zero padding over the last two
    axes; leading axes are a batch. Every pixel sums its taps in row-major
    order, so a stack gives each image the bytes it gets alone. A tap is
    one contiguous slice of the flattened padded image, whose rows are
    W + K - 1 long; the sum keeps that row length and is cropped at the
    end."""
    img = np.asarray(img, dtype=np.float64)
    w = np.asarray(kernel, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 1:
        raise ValueError("kernel must be odd and square")
    k = w.shape[0]
    half = k // 2
    lead = img.shape[:-2]
    rows, cols = img.shape[-2:]
    # convolution flips the kernel; every built-in kernel is centro-symmetric
    # but keep true convolution semantics for arbitrary weights
    wf = w[::-1, ::-1]
    stride = cols + 2 * half
    pad = np.pad(img, [(0, 0)] * len(lead) + [(half, half)] * 2)
    flat = pad.reshape(lead + (pad.shape[-2] * stride,))
    # pixel (r, c) is element r*stride + c of the sum and of the slice of
    # tap (i, j), which starts i*stride + j elements into the padded image
    n = max(rows * stride - 2 * half, 0)
    out = np.zeros(lead + (rows, stride))
    acc = out.reshape(lead + (rows * stride,))[..., :n]
    tap = np.empty(lead + (n,))
    for i, j in np.ndindex(k, k):
        at = i * stride + j
        np.multiply(flat[..., at:at + n], wf[i, j], out=tap)
        acc += tap
    return np.ascontiguousarray(out[..., :cols])


def correlate_separable(img, g):
    """Same-size correlation with the kernel outer(g, g), zero padding, as
    two 1-D passes: along rows, then along columns, each adding its taps in
    index order. Leading axes are a batch, so a stack gives each image the
    bytes it gets alone. g must have odd length."""
    img = np.asarray(img, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] % 2 != 1:
        raise ValueError("factor must be 1-D with odd length")
    half = g.shape[0] // 2
    lead = img.shape[:-2]
    rows, cols = img.shape[-2:]
    pad = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(0, 0), (half, half)])
    # the column pass reads half zero rows above and below the row pass
    across = np.zeros(lead + (rows + 2 * half, cols))
    inner = across[..., half:half + rows, :]
    np.multiply(pad[..., 0:cols], g[0], out=inner)
    tap = np.empty_like(img)
    for j in range(1, g.shape[0]):
        np.multiply(pad[..., j:j + cols], g[j], out=tap)
        inner += tap
    out = across[..., 0:rows, :] * g[0]
    for i in range(1, g.shape[0]):
        np.multiply(across[..., i:i + rows, :], g[i], out=tap)
        out += tap
    return out


def filter_image(img, cfg):
    """img through the HVS filter of cfg (an HvsConfig): two 1-D passes of
    the Gaussian factor, or the 2-D sum of the Nasanen kernel."""
    if cfg.model == "gaussian":
        return correlate_separable(img, gaussian_factor(cfg.size, cfg.sigma))
    return convolve_same(img, build_kernel(cfg))


def dump_kernel_csv(kernel, path):
    np.savetxt(path, kernel, delimiter=",", fmt="%.17g")

