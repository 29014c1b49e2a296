"""Halftone quality metrics and the reward the policy is trained on.

The scalar objective is R = -MSE(HVS(h), HVS(c)) + w_s * CSSIM(h, c), which
decomposes pixelwise as r_a = -e_a + w_s * cssim_a with R = mean(r). CSSIM is
SSIM blended toward 1 by a local contrast map of the contone, so flat regions
stop penalizing structure they do not have: where the SSIM window of the
zero-padded contone holds a single value, its variance, and so its
contrast, is exactly 0 and CSSIM exactly 1.

Every SSIM window sum is a separable Gaussian correlation (two 1-D passes,
hvs.correlate_separable), and the HVS error of a pair is one filter pass
over h - c (filtered_error). SSIM is taken in its two-term form (Wang et
al., IEEE TIP 2004, eq. 13), the three-term product at c3 = c2 / 2.

The scored metrics take a region: 'valid' averages only over pixels whose
filter and SSIM windows fit inside the image (used for reported numbers),
'full' over every pixel of the zero-padded maps. The training reward is
always full-region.

RewardContext holds the maps of a (halftone, contone) pair or of a (B, H, W)
stack of them, one training step's worth, and delta_map answers "what does R
become if pixel a takes value v[a]" for every pixel at once: the error term
from sse_delta_terms, the same two maps DBS scores its moves with, and the
CSSIM term by one pass per SSIM window offset.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .hvs import (HvsConfig, build_gaussian_kernel, build_kernel,
                  convolve_same, correlate_separable, filter_image,
                  gaussian_factor)


# the SSIM window's sigma, the stabilizers (K1 = 0.01, K2 = 0.03 at dynamic
# range 1) and the gain from the contone's windowed std to sigma_c
SSIM_SIGMA = 1.5
C1 = 0.01 ** 2
C2 = 0.03 ** 2
CONTRAST_GAIN = 2.0


@dataclass(frozen=True)
class MetricConfig:
    w_s: float = 0.06
    ssim_window: int = 11
    hvs: HvsConfig = field(default_factory=HvsConfig)


def _corr_stencil(kernel_weights):
    # convolve_same flips its kernel; feeding the pre-flipped weights turns it
    # into plain correlation, the form the window-delta algebra is written in
    return kernel_weights[::-1, ::-1]


def region_mask(shape, cfg, region):
    """Boolean mask of pixels that count toward scalar metrics."""
    if region == "full":
        return np.ones(shape, dtype=bool)
    if region != "valid":
        raise ValueError(f"unknown region {region!r}")
    margin = max(build_kernel(cfg.hvs).shape[0] // 2, cfg.ssim_window // 2)
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * margin and shape[1] > 2 * margin:
        mask[margin:shape[0] - margin, margin:shape[1] - margin] = True
    return mask


def _region_mean(values, cfg, region):
    """Mean of a metric map over the region; NaN when the region is empty."""
    mask = region_mask(values.shape, cfg, region)
    return float(values[mask].mean()) if mask.any() else math.nan


def filtered_error(h, c, hvs_cfg):
    """The HVS-filtered error HVS(h - c) of a halftone against its contone:
    one filter pass, which the filter's linearity makes HVS(h) - HVS(c) up
    to rounding."""
    return filter_image(np.asarray(h, dtype=np.float64)
                        - np.asarray(c, dtype=np.float64), hvs_cfg)


def hvs_mse(h, c, cfg=None, region="valid"):
    """Mean squared error between HVS-filtered halftone and contone."""
    cfg = cfg or MetricConfig()
    return _region_mean(filtered_error(h, c, cfg.hvs) ** 2, cfg, region)


def psnr(mse):
    """-10 log10(mse); +inf for a zero error, NaN propagates."""
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if mse == 0:
        return math.inf
    return -10.0 * math.log10(mse)


def _running(a, size, axis, op):
    """op (np.maximum or np.minimum) over every size-long run of a along
    axis -1 or -2."""
    n = a.shape[axis] - size + 1
    tail = (slice(None),) * (-1 - axis)
    out = a[(..., slice(0, n)) + tail].copy()
    for j in range(1, size):
        op(out, a[(..., slice(j, j + n)) + tail], out=out)
    return out


def _flat_windows(c, size):
    """True where the size x size window of the zero-padded c holds a
    single value (its max equals its min), from 1-D passes along rows, then
    columns. Within size // 2 pixels of the border a window reaches into
    the padding, so it is flat only where c is 0 there."""
    half = size // 2
    hi = lo = np.pad(c, [(0, 0)] * (c.ndim - 2) + [(half, half)] * 2)
    for axis in (-1, -2):
        hi = _running(hi, size, axis, np.maximum)
        lo = _running(lo, size, axis, np.minimum)
    return hi == lo


def _contone_terms(c, cfg):
    """The contone-only SSIM terms (mu_c, mu_c^2, variance); they do not
    change when only h is edited, so the edit loop computes them once. The
    variance E[c^2] - mu_c^2 clamps at zero, and is exactly zero on a flat
    window, where the one-pass form would leave rounding noise."""
    g = gaussian_factor(cfg.ssim_window, SSIM_SIGMA)
    mu = correlate_separable(c, g)
    mu2 = mu * mu
    var = np.maximum(correlate_separable(c * c, g) - mu2, 0.0)
    var[_flat_windows(c, cfg.ssim_window)] = 0.0
    return mu, mu2, var


def _ssim_from_stats(mu_x, sxx, sxy, contone):
    """Two-term SSIM map (2 mu_x mu_y + C1)(2 cov + C2) / ((mu_x^2 + mu_y^2
    + C1)(var_x + var_y + C2)) from raw windowed sums sxx=E[x^2], sxy=E[xy]
    and y's _contone_terms. Variances clamp at zero; each sum adds x's and
    y's terms first, so swapping x and y keeps the bytes."""
    mu_y, mu_y2, vy = contone
    m = mu_x * mu_y
    mu_x2 = mu_x * mu_x
    vx = np.maximum(sxx - mu_x2, 0.0)
    return (((2.0 * m + C1) * (2.0 * (sxy - m) + C2))
            / ((mu_x2 + mu_y2 + C1) * (vx + vy + C2)))


def _window_stats(h, c, cfg):
    """Gaussian-window sums (mu_h, E[h^2], E[hc]), the contone's
    _contone_terms, and its local contrast sigma_c = min(gain * windowed
    std of c, 1)."""
    g = gaussian_factor(cfg.ssim_window, SSIM_SIGMA)
    contone = _contone_terms(c, cfg)
    sigma_c = np.minimum(CONTRAST_GAIN * np.sqrt(contone[2]), 1.0)
    return (correlate_separable(h, g), correlate_separable(h * h, g),
            correlate_separable(h * c, g), contone, sigma_c)


def _cssim_map(sigma_c, ssim_map):
    """Contrast-weighted SSIM: sigma_c * SSIM + (1 - sigma_c) * 1."""
    return sigma_c * ssim_map + (1.0 - sigma_c)


def ssim_and_cssim(h, c, cfg=None, region="valid"):
    """(ssim(h, c), cssim(h, c)), each a (scalar, map) pair, from one build
    of the window sums."""
    cfg = cfg or MetricConfig()
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    *sums, sc = _window_stats(h, c, cfg)
    s_map = _ssim_from_stats(*sums)
    cs_map = _cssim_map(sc, s_map)
    return ((_region_mean(s_map, cfg, region), s_map),
            (_region_mean(cs_map, cfg, region), cs_map))


def ssim(x, y, cfg=None, region="valid"):
    """SSIM scalar and map over Gaussian-weighted windows."""
    return ssim_and_cssim(x, y, cfg, region)[0]


def cssim(h, c, cfg=None, region="valid"):
    """Contrast-weighted SSIM scalar and map (see _cssim_map)."""
    return ssim_and_cssim(h, c, cfg, region)[1]


def sse_delta_terms(e, kernel):
    """The maps (ce, k2) that price a pixel edit in the filtered squared
    error: h[a] += d changes sum(e^2) by 2 d ce[a] + d^2 k2[a], where e is
    the filtered error, ce = corr(e, K) and k2[a] = sum_j K[j - a]^2 over
    in-image j. A stack of error maps shares one k2."""
    kf = _corr_stencil(kernel)
    return convolve_same(e, kf), convolve_same(np.ones(e.shape[-2:]), kf * kf)


class RewardContext:
    """The full-region reward R of halftone h against contone c, with the
    maps delta_map reads. h and c are one (H, W) image or a stack of them
    (leading axes are a batch); mse, cssim_scalar and reward are then one
    value per image.

    eval_count tracks reward-evaluation work units: building the context
    counts one per image and delta_map one per pixel.
    """

    def __init__(self, h, c, cfg):
        self.cfg = cfg
        self.c = np.asarray(c, dtype=np.float64)
        self.h = np.asarray(h, dtype=np.float64).copy()
        if self.c.shape != self.h.shape:
            raise ValueError("halftone and contone shapes differ")
        self.kernel = build_kernel(cfg.hvs)
        self.w = build_gaussian_kernel(cfg.ssim_window, SSIM_SIGMA)
        self.e = filtered_error(self.h, self.c, cfg.hvs)
        (self.mu_h, self.shh, self.shc, self.contone,
         self.sigma_c) = _window_stats(self.h, self.c, cfg)
        self.ssim_map = _ssim_from_stats(self.mu_h, self.shh, self.shc,
                                         self.contone)
        self.cssim_map = _cssim_map(self.sigma_c, self.ssim_map)
        self.mse = (self.e * self.e).mean(axis=(-2, -1))
        self.cssim_scalar = self.cssim_map.mean(axis=(-2, -1))
        self.reward = -self.mse + cfg.w_s * self.cssim_scalar
        self.eval_count = math.prod(self.h.shape[:-2])


def delta_map(ctx, other_values):
    """R(h with pixel a set to other_values[a]) - R(h) for every a at once,
    each edit scored within its own image of the stack.

    Work is one correlation for the error term plus one pass per SSIM window
    offset, i.e. O(N * window) in all.
    """
    other = np.asarray(other_values, dtype=np.float64)
    if other.shape != ctx.h.shape:
        raise ValueError("other_values shape mismatch")
    ctx.eval_count += other.size
    n = other.shape[-2] * other.shape[-1]
    delta = other - ctx.h
    ce, k2 = sse_delta_terms(ctx.e, ctx.kernel)
    dsse = 2.0 * delta * ce + delta * delta * k2
    if ctx.cfg.w_s != 0.0:
        dcs = _delta_cssim_map(ctx, delta)
        return (-dsse + ctx.cfg.w_s * dcs) / n
    return -dsse / n


def _delta_cssim_map(ctx, delta):
    """Sum over window positions b of sigma_c(b) * (SSIM_b(after) -
    SSIM_b(before)) for an edit at each pixel, accumulated offset by offset.

    An edit h[a] += d moves the window sums at b by w(a - b) times d,
    2 h[a] d + d^2 and d c[a]; the per-pixel factors are formed once per
    call, or once per offset when they carry the offset's weight."""
    hgt, wid = ctx.h.shape[-2:]
    wh = ctx.cfg.ssim_window // 2
    out = np.zeros_like(delta)
    q = 2.0 * ctx.h * delta + delta * delta
    # binary h toggled to 1 - h: q == delta, E[h^2] == mu_h, so shh1 is mu1
    toggle = np.array_equal(q, delta) and np.array_equal(ctx.shh, ctx.mu_h)
    for dy in range(-wh, wh + 1):
        y0, y1 = max(0, -dy), min(hgt, hgt - dy)
        if y0 >= y1:
            continue
        for dx in range(-wh, wh + 1):
            x0, x1 = max(0, -dx), min(wid, wid - dx)
            if x0 >= x1:
                continue
            wd = ctx.w[wh + dy, wh + dx]
            sb = (..., slice(y0, y1), slice(x0, x1))
            sa = (..., slice(y0 + dy, y1 + dy), slice(x0 + dx, x1 + dx))
            wdv = wd * delta[sa]
            mu1 = ctx.mu_h[sb] + wdv
            shh1 = mu1 if toggle else ctx.shh[sb] + wd * q[sa]
            shc1 = ctx.shc[sb] + wdv * ctx.c[sa]
            s_new = _ssim_from_stats(mu1, shh1, shc1,
                                     [t[sb] for t in ctx.contone])
            out[sa] += ctx.sigma_c[sb] * (s_new - ctx.ssim_map[sb])
    return out
