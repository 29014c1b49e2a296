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
"""

from dataclasses import dataclass, field

import numpy as np

# Nasanen exponential model constants (literature values; configuration data,
# nothing downstream depends on them numerically).
NASANEN_CONSTANTS = {"a": 131.6, "b": 0.3188, "c": 0.525, "d": 3.91,
                     "luminance": 11.0}


@dataclass(frozen=True)
class HvsKernel:
    """Odd square spatial kernel with unit coefficient sum."""
    size: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.size, self.size):
            raise ValueError("kernel weights must be size x size")
        if self.size % 2 != 1 or self.size < 1:
            raise ValueError("kernel size must be odd and positive")
        object.__setattr__(self, "weights", w)


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


def build_gaussian_kernel(size, sigma):
    """Sampled isotropic Gaussian, truncated to size x size, sum 1."""
    if size % 2 != 1 or not 1 <= size <= 128:   # the Nasanen grid's bound
        raise ValueError("kernel size must be odd, in [1, 128]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k = np.outer(g1, g1)
    return HvsKernel(size, k / k.sum())


def nasanen_frequency_response(f_cpd, constants=None):
    """Exponential contrast-sensitivity falloff at f_cpd cycles/degree."""
    c = constants or NASANEN_CONSTANTS
    lum = c["luminance"]
    gain = c["a"] * lum ** c["b"]
    return gain * np.exp(-np.asarray(f_cpd, dtype=np.float64)
                         / (c["c"] * np.log(lum) + c["d"]))

def _cpd_grid(n, scale):
    # one sample subtends 180 / (pi * S) degrees, so a digital frequency of
    # rho cycles/sample is rho * pi * S / 180 cycles/degree
    f = np.fft.fftfreq(n)
    rho = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    return rho * np.pi * scale / 180.0


def build_nasanen_kernel(size, scale, dense_size=128):
    """Nasanen kernel: frequency-domain sampling, inverse DFT, truncation.

    The response is sampled on a dense_size^2 DFT lattice at the
    cycles/degree mapping implied by scale, inverse transformed to a spatial
    point-spread function, truncated to the central size x size window and
    renormalized to sum 1.
    """
    if size % 2 != 1 or size < 1:
        raise ValueError("kernel size must be odd and positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if dense_size < size:
        raise ValueError("dense grid smaller than requested kernel")
    resp = nasanen_frequency_response(_cpd_grid(dense_size, scale))
    spatial = np.fft.ifft2(resp).real
    spatial = np.fft.fftshift(spatial)
    half = size // 2
    mid = dense_size // 2
    k = spatial[mid - half:mid + half + 1, mid - half:mid + half + 1].copy()
    return HvsKernel(size, k / k.sum())


def _weights(kernel):
    return kernel.weights if isinstance(kernel, HvsKernel) else np.asarray(
        kernel, dtype=np.float64)


def convolve_same(img, kernel):
    """Same-size direct convolution with zero padding over the last two
    axes; leading axes are a batch. Every pixel sums its taps in row-major
    order, so a stack gives each image the bytes it gets alone."""
    img = np.asarray(img, dtype=np.float64)
    w = _weights(kernel)
    k = w.shape[0]
    if w.ndim != 2 or w.shape[0] != w.shape[1] or k % 2 != 1:
        raise ValueError("kernel must be odd and square")
    half = k // 2
    rows, cols = img.shape[-2:]
    # convolution flips the kernel; every built-in kernel is centro-symmetric
    # but keep true convolution semantics for arbitrary weights
    wf = w[::-1, ::-1]
    pad = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(half, half)] * 2)
    out = np.zeros_like(img)
    tap = np.empty_like(img)
    for i in range(k):
        for j in range(k):
            np.multiply(pad[..., i:i + rows, j:j + cols], wf[i, j], out=tap)
            out += tap
    return out


def dump_kernel_csv(kernel, path):
    np.savetxt(path, _weights(kernel), delimiter=",", fmt="%.17g")

