"""Classic halftoning baselines: Bayer ordered dither, Floyd-Steinberg error
diffusion, white-noise thresholding, and direct binary search (DBS).

DBS greedily minimizes the HVS-filtered squared error with toggle and
8-neighbor swap moves, sweeping pixels in raster order and applying the best
strictly-improving candidate at each site. It is the efficient DBS of
Lieberman & Allebach (ICIP 1997): one maintained map ce = corr(e, K) of the
filtered error e with the kernel scores every candidate in O(1). Toggling
a by d changes the squared error by 2 d ce[a] + d^2 k2[a]; a swap of a and
b adds b's toggle terms and the cross term 2 d_a d_b T(a)[b - a]. Each
accepted edit adds d T(a) to ce over a's (2K-1)^2 neighbourhood, where
T(a) is the kernel's exact in-image autocorrelation at a: one table per
edge class, the plain autocorrelation inside the image."""

import numpy as np

from .hvs import HvsConfig, build_kernel, convolve_same
from .imagecore import validate_contone, validate_halftone
from .metrics import sse_delta_terms

# swap neighborhood in fixed evaluation order (after the toggle candidate)
_MOVES = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]  # N NE E SE S SW W NW


def bayer_matrix(order):
    """Recursive Bayer index matrix; order must be a power of two."""
    if order < 1 or order & (order - 1):
        raise ValueError("Bayer order must be a power of two")
    m = np.zeros((1, 1), dtype=np.int64)
    n = 1
    while n < order:
        m = np.block([[4 * m, 4 * m + 2], [4 * m + 3, 4 * m + 1]])
        n *= 2
    return m

def ordered_dither(c, order=8):
    """Tile thresholds (index + 0.5)/order^2 and binarize c > threshold."""
    c = validate_contone(c)
    thresholds = (bayer_matrix(order) + 0.5) / float(order * order)
    hgt, wid = c.shape
    ty = np.arange(hgt) % order
    tx = np.arange(wid) % order
    return (c > thresholds[ty[:, None], tx[None, :]]).astype(np.float64)


def floyd_steinberg(c, serpentine=False):
    """Error diffusion with the 7/16, 3/16, 5/16, 1/16 kernel.

    Raster scan by default; serpentine reverses odd rows and mirrors the
    kernel. Accumulated value >= 0.5 rounds to white.
    """
    c = validate_contone(c)
    hgt, wid = c.shape
    acc = c.copy()
    out = np.zeros_like(acc)
    for y in range(hgt):
        reverse = serpentine and (y % 2 == 1)
        xs = range(wid - 1, -1, -1) if reverse else range(wid)
        ahead = -1 if reverse else 1
        for x in xs:
            v = acc[y, x]
            q = 1.0 if v >= 0.5 else 0.0
            out[y, x] = q
            err = v - q
            if 0 <= x + ahead < wid:
                acc[y, x + ahead] += err * (7.0 / 16.0)
            if y + 1 < hgt:
                if 0 <= x - ahead < wid:
                    acc[y + 1, x - ahead] += err * (3.0 / 16.0)
                acc[y + 1, x] += err * (5.0 / 16.0)
                if 0 <= x + ahead < wid:
                    acc[y + 1, x + ahead] += err * (1.0 / 16.0)
    return out


def white_noise_threshold(c, rng):
    """h_a = 1 where c_a exceeds an i.i.d. uniform draw."""
    c = validate_contone(c)
    u = rng.uniforms(c.size).reshape(c.shape)
    return (c > u).astype(np.float64)


def edge_autocorrelation(k, top, bottom, left, right):
    """In-image autocorrelation of kernel k around a pixel a whose window
    keeps top rows above a, bottom rows below, left columns to its left and
    right to its right inside the image (each at most K // 2).

    Returns the (2K-1)^2 table T with T[p - a + K - 1] = sum_j K[j-a] K[j-p]
    over in-image j. Its centre is the window energy sum_j K[j-a]^2, its
    lag-(b - a) entry is the swap cross term of a and b, and adding d T to
    corr(e, k) around a is the exact update for h[a] += d.
    """
    size = k.shape[0]
    half = size // 2
    inside = np.zeros_like(k)
    rows = slice(half - top, half + bottom + 1)
    cols = slice(half - left, half + right + 1)
    inside[rows, cols] = k[rows, cols]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(inside, size - 1), k.shape)
    return np.einsum("pqij,ij->pq", windows, k)


def dbs_search(c, rng=None, hvs_cfg=None, seed_halftone=None, max_sweeps=20):
    """Direct binary search from a white-noise seed.

    Returns (halftone, trace) where trace rows are (sweep, hvs_mse) built
    from the accumulated accepted deltas, so it is non-increasing by
    construction; sweep 0 is the seed error.

    Each pixel, in raster order, takes its best negative-delta move. On an
    exact float tie the candidate scored first wins: the toggle, then the
    swaps in _MOVES order. A tie exact only in real arithmetic is decided by
    rounding, so the summation order of the filtered error can change it.
    """
    c = validate_contone(c)
    if seed_halftone is None:
        if rng is None:
            raise ValueError("dbs_search needs an rng when no seed is given")
        h = white_noise_threshold(c, rng)
    else:
        h = validate_halftone(seed_halftone)
        if h.shape != c.shape:
            raise ValueError("seed halftone shape mismatch")
    kernel = build_kernel(hvs_cfg or HvsConfig())
    k = kernel.weights
    half = kernel.size // 2
    span = 2 * half
    hgt, wid = c.shape
    n = c.size

    e = convolve_same(h, kernel) - convolve_same(c, kernel)
    ce, k2 = sse_delta_terms(e, kernel)
    k2 = k2.ravel().tolist()
    sse = float(np.sum(e * e))
    trace = [(0, sse / n)]

    # the autocorrelation table of a pixel depends only on how far its
    # window reaches past each image edge; a reach of 1 also tells which
    # swap neighbours exist when the kernel is 1x1
    reach = max(half, 1)
    ycls = [(min(y, reach), min(hgt - 1 - y, reach)) for y in range(hgt)]
    xcls = [(min(x, reach), min(wid - 1 - x, reach)) for x in range(wid)]
    tables = {}

    def table(y, x):
        key = ycls[y] + xcls[x]
        entry = tables.get(key)
        if entry is None:
            top, bottom, left, right = (min(r, half) for r in key)
            t = edge_autocorrelation(k, top, bottom, left, right)
            # (flat offset, cross term) of each swap neighbour in the image;
            # a 1x1 kernel has no cross terms
            swaps = [(dy * wid + dx, float(t[span + dy, span + dx])
                      if span else 0.0)
                     for dy, dx in _MOVES
                     if -key[0] <= dy <= key[1] and -key[2] <= dx <= key[3]]
            entry = tables[key] = (t, swaps)
        return entry

    def apply(a, delta):
        y, x = divmod(a, wid)
        hv[a] += delta
        y0, y1 = max(0, y - span), min(hgt, y + span + 1)
        x0, x1 = max(0, x - span), min(wid, x + span + 1)
        ce[y0:y1, x0:x1] += delta * table(y, x)[0][
            y0 - y + span:y1 - y + span, x0 - x + span:x1 - x + span]

    hv = h.ravel().tolist()
    ce_at = ce.item
    swaps_at = [table(y, x)[1] for y in range(hgt) for x in range(wid)]
    for sweep in range(1, max_sweeps + 1):
        changed = 0
        for a, swaps in enumerate(swaps_at):
            ha = hv[a]
            da = 1.0 - 2.0 * ha
            best = toggle = 2.0 * da * ce_at(a) + k2[a]
            best_move = 0
            db = -da
            for off, cross in swaps:
                b = a + off
                if hv[b] == ha:
                    continue                     # equal pixels: identity
                d = (toggle + 2.0 * db * ce_at(b) + k2[b]
                     + 2.0 * da * db * cross)
                if d < best:
                    best = d
                    best_move = off
            if best < 0.0:
                apply(a, da)
                if best_move:
                    apply(a + best_move, db)
                sse += best
                changed += 1
        if changed == 0:
            break
        trace.append((sweep, sse / n))
    return np.array(hv).reshape(c.shape), trace
