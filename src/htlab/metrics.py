"""Halftone quality metrics and the reward the policy is trained on.

The scalar objective is R = -MSE(HVS(h), HVS(c)) + w_s * CSSIM(h, c), which
decomposes pixelwise as r_a = -e_a + w_s * cssim_a with R = mean(r). CSSIM is
SSIM blended toward 1 by a local contrast map of the contone, so flat regions
stop penalizing structure they do not have.

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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hvs
from .hvs import HvsConfig, convolve_same


@dataclass(frozen=True)
class MetricConfig:
    w_s: float = 0.06
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    c1: float = 0.01 ** 2
    c2: float = 0.03 ** 2
    contrast_gain: float = 2.0
    hvs: HvsConfig = field(default_factory=HvsConfig)


@functools.lru_cache(maxsize=32)
def _cached_kernel(hvs_cfg):
    return hvs.build_kernel(hvs_cfg)


@functools.lru_cache(maxsize=32)
def _window_weights(size, sigma):
    return hvs.build_gaussian_kernel(size, sigma).weights


def _corr_stencil(kernel_weights):
    # convolve_same flips its kernel; feeding the pre-flipped weights turns it
    # into plain correlation, the form the window-delta algebra is written in
    return kernel_weights[::-1, ::-1]


def _corr(img, stencil):
    return convolve_same(img, _corr_stencil(stencil))


def region_mask(shape, cfg, region):
    """Boolean mask of pixels that count toward scalar metrics."""
    if region == "full":
        return np.ones(shape, dtype=bool)
    if region != "valid":
        raise ValueError(f"unknown region {region!r}")
    margin = max(_cached_kernel(cfg.hvs).size // 2, cfg.ssim_window // 2)
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * margin and shape[1] > 2 * margin:
        mask[margin:shape[0] - margin, margin:shape[1] - margin] = True
    return mask


def _region_mean(values, cfg, region):
    """Mean of a metric map over the region; NaN when the region is empty."""
    mask = region_mask(values.shape, cfg, region)
    return float(values[mask].mean()) if mask.any() else math.nan


def hvs_mse(h, c, cfg=None, region="valid"):
    """Mean squared error between HVS-filtered halftone and contone."""
    cfg = cfg or MetricConfig()
    k = _cached_kernel(cfg.hvs)
    return _region_mean((convolve_same(h, k) - convolve_same(c, k)) ** 2,
                        cfg, region)


def psnr(mse):
    """-10 log10(mse); +inf for a zero error, NaN propagates."""
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if mse == 0:
        return math.inf
    return -10.0 * math.log10(mse)


def _ssim_from_stats(mu_x, mu_y, sxx, syy, sxy, c1, c2):
    """Three-term SSIM map (luminance * contrast * structure) from raw
    windowed sums sxx=E[x^2], syy=E[y^2], sxy=E[xy]. Variances clamp at
    zero."""
    vx = np.maximum(sxx - mu_x * mu_x, 0.0)
    vy = np.maximum(syy - mu_y * mu_y, 0.0)
    cov = sxy - mu_x * mu_y
    sx = np.sqrt(vx)
    sy = np.sqrt(vy)
    c3 = c2 / 2.0
    lum = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
    con = (2.0 * sx * sy + c2) / (vx + vy + c2)
    struct = (cov + c3) / (sx * sy + c3)
    return lum * con * struct


def _window_stats(h, c, cfg):
    """Gaussian-window sums (mu_h, mu_c, E[h^2], E[c^2], E[hc]) and the
    contone's local contrast sigma_c = min(gain * windowed std of c, 1)."""
    w = _window_weights(cfg.ssim_window, cfg.ssim_sigma)
    mu_c = _corr(c, w)
    scc = _corr(c * c, w)
    var_c = np.maximum(scc - mu_c * mu_c, 0.0)
    sigma_c = np.minimum(cfg.contrast_gain * np.sqrt(var_c), 1.0)
    return _corr(h, w), mu_c, _corr(h * h, w), scc, _corr(h * c, w), sigma_c


def ssim(x, y, cfg=None, region="valid"):
    """SSIM scalar and map over Gaussian-weighted windows."""
    cfg = cfg or MetricConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = _ssim_from_stats(*_window_stats(x, y, cfg)[:5], cfg.c1, cfg.c2)
    return _region_mean(s, cfg, region), s


def cssim(h, c, cfg=None, region="valid"):
    """Contrast-weighted SSIM: sigma_c * SSIM + (1 - sigma_c) * 1."""
    cfg = cfg or MetricConfig()
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    *sums, sc = _window_stats(h, c, cfg)
    cs_map = sc * _ssim_from_stats(*sums, cfg.c1, cfg.c2) + (1.0 - sc)
    return _region_mean(cs_map, cfg, region), cs_map


def sse_delta_terms(e, kernel):
    """The maps (ce, k2) that price a pixel edit in the filtered squared
    error: h[a] += d changes sum(e^2) by 2 d ce[a] + d^2 k2[a], where e is
    the filtered error, ce = corr(e, K) and k2[a] = sum_j K[j - a]^2 over
    in-image j. A stack of error maps shares one k2."""
    kf = _corr_stencil(kernel.weights)
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
        self.kernel = _cached_kernel(cfg.hvs)
        self.w = _window_weights(cfg.ssim_window, cfg.ssim_sigma)
        self.e = (convolve_same(self.h, self.kernel)
                  - convolve_same(self.c, self.kernel))
        (self.mu_h, self.mu_c, self.shh, self.scc, self.shc,
         self.sigma_c) = _window_stats(self.h, self.c, cfg)
        self.ssim_map = _ssim_from_stats(self.mu_h, self.mu_c, self.shh,
                                         self.scc, self.shc, cfg.c1, cfg.c2)
        self.cssim_map = self.sigma_c * self.ssim_map + (1.0 - self.sigma_c)
        sq_err = self.e * self.e
        self.reward_map = -sq_err + cfg.w_s * self.cssim_map
        self.mse = sq_err.mean(axis=(-2, -1))
        self.cssim_scalar = self.cssim_map.mean(axis=(-2, -1))
        self.reward = -self.mse + cfg.w_s * self.cssim_scalar
        self.eval_count = math.prod(self.h.shape[:-2])


def reward(h, c, cfg=None):
    """Build a RewardContext; .reward is the scalar R."""
    return RewardContext(h, c, cfg or MetricConfig())


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
    SSIM_b(before)) for an edit at each pixel, accumulated offset by offset."""
    hgt, wid = ctx.h.shape[-2:]
    wh = ctx.cfg.ssim_window // 2
    out = np.zeros_like(delta)
    c1, c2 = ctx.cfg.c1, ctx.cfg.c2
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
            dv = delta[sa]
            hv = ctx.h[sa]
            cv = ctx.c[sa]
            mu1 = ctx.mu_h[sb] + wd * dv
            shh1 = ctx.shh[sb] + wd * (2.0 * hv * dv + dv * dv)
            shc1 = ctx.shc[sb] + wd * dv * cv
            s_new = _ssim_from_stats(mu1, ctx.mu_c[sb], shh1, ctx.scc[sb],
                                     shc1, c1, c2)
            out[sa] += ctx.sigma_c[sb] * (s_new - ctx.ssim_map[sb])
    return out
