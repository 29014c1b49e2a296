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
edge class, the plain autocorrelation inside the image.

Two things keep a search from repeating work whose result cannot change:
- The tables are cached across searches, per HvsConfig and edge class,
  and built only for the classes a search meets. A table depends on
  nothing but the kernel and the class, so a cached one has the bytes of
  a fresh one.
- A pixel scored with no improving move is clean, and is not scored again
  until an accepted edit changes ce or h at it or at one of its 8
  neighbours (the (2K+1)^2 block around the edit). Its score reads nothing
  else, so it would come out the same, ties included.
The maps live in a layout padded by K on every side, so that neither an
edit's window nor the block it dirties is ever clipped."""

import functools

import numpy as np

# convolve_same stays bound here: the benchmark's tracer and its tests look
# the name up in this module
from .hvs import HvsConfig, build_kernel, convolve_same  # noqa: F401
from .imagecore import sample_actions, validate_contone, validate_halftone
from .metrics import filtered_error, sse_delta_terms

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

    A row is diffused in two passes. A Python loop over plain floats runs
    the in-row 7/16 carry, the one step that needs the previous pixel's
    error. The next row then takes its 1/16, 5/16 and 3/16 shares as three
    shifted vector adds, in the order a pixel-by-pixel scan adds them (from
    the pixel behind, the one below, the one ahead), so every sum rounds as
    it would there.
    """
    c = validate_contone(c)
    hgt, wid = c.shape
    acc = c.copy()
    out = np.empty_like(acc)
    for y in range(hgt):
        # views in scan order: a serpentine odd row runs right to left
        step = -1 if serpentine and y % 2 else 1
        vals = []
        carry = 0.0
        for a in acc[y, ::step].tolist():
            v = a + carry
            vals.append(v)
            carry = (v - 1.0 if v >= 0.5 else v) * (7.0 / 16.0)
        vals = np.array(vals)
        q = (vals >= 0.5).astype(np.float64)
        out[y, ::step] = q
        if y + 1 < hgt:
            err = vals - q
            below = acc[y + 1, ::step]
            below[1:] += err[:-1] * (1.0 / 16.0)
            below += err * (5.0 / 16.0)
            below[:-1] += err[1:] * (3.0 / 16.0)
    return out


def white_noise_threshold(c, rng):
    """h_a = 1 where c_a exceeds an i.i.d. uniform draw: the lattice draw at
    p = c. Kept only because the benchmark calls it by this name."""
    return sample_actions(c, rng)


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


# 4096 entries hold all 6^4 classes an 11-tap kernel can meet, over any
# image sizes, for three configs; a search past the bound still keeps its
# own classes
@functools.lru_cache(maxsize=4096)
def _edge_class(hvs_cfg, key):
    """(T, swaps) of edge class key = (top, bottom, left, right), the reach
    of a pixel's window past each image edge clipped at max(K // 2, 1): T is
    the read-only edge_autocorrelation table and swaps the (dy, dx, cross
    term) of each swap neighbour inside the image. A reach of 1 also tells
    which swap neighbours exist when the kernel is 1x1."""
    k = build_kernel(hvs_cfg)
    half = k.shape[0] // 2
    span = 2 * half
    t = edge_autocorrelation(k, *(min(r, half) for r in key))
    t.flags.writeable = False
    # a 1x1 kernel has no cross terms
    swaps = tuple((dy, dx, float(t[span + dy, span + dx]) if span else 0.0)
                  for dy, dx in _MOVES
                  if -key[0] <= dy <= key[1] and -key[2] <= dx <= key[3])
    return t, swaps


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
        h = sample_actions(c, rng)
    else:
        h = validate_halftone(seed_halftone)
        if h.shape != c.shape:
            raise ValueError("seed halftone shape mismatch")
    hvs_cfg = hvs_cfg or HvsConfig()
    kernel = build_kernel(hvs_cfg)
    half = kernel.shape[0] // 2
    span = 2 * half
    win = 2 * span + 1           # an edit's (2K-1)^2 window in ce
    hgt, wid = c.shape
    n = c.size

    e = filtered_error(h, c, hvs_cfg)
    ce, k2 = sse_delta_terms(e, kernel)
    sse = float(np.sum(e * e))
    trace = [(0, sse / n)]

    # every map is padded by K = span + 1, so neither an edit's window nor
    # the dirty block around it needs clipping; no score reads the padding
    pad = span + 1
    stride = wid + 2 * pad

    def padded(m):
        out = np.zeros((hgt + 2 * pad, stride))
        out[pad:pad + hgt, pad:pad + wid] = m
        return out

    ce2d = padded(ce)
    ce = memoryview(ce2d.reshape(-1))     # a float per index, unboxed fast
    k2 = padded(k2).ravel().tolist()
    hv = padded(h).ravel().tolist()
    dirty = bytearray(b"\x01") * ce2d.size
    dirty2d = np.frombuffer(dirty, dtype=np.uint8).reshape(ce2d.shape)

    reach = max(half, 1)
    ycls = [(min(y, reach), min(hgt - 1 - y, reach)) for y in range(hgt)]
    xcls = [(min(x, reach), min(wid - 1 - x, reach)) for x in range(wid)]
    classes = {}
    cells = [None] * ce2d.size   # (y, x, T) of each pixel, padded index
    order = []                   # (padded index, swaps) in raster order
    for y in range(hgt):
        for x in range(wid):
            key = ycls[y] + xcls[x]
            cls = classes.get(key)
            if cls is None:
                t, swaps = _edge_class(hvs_cfg, key)
                cls = classes[key] = (t, [(dy * stride + dx, -2.0 * cross)
                                          for dy, dx, cross in swaps])
            a = (y + pad) * stride + x + pad
            cells[a] = (y, x, cls[0])
            order.append((a, cls[1]))

    def apply(a, delta):
        y, x, t = cells[a]
        hv[a] += delta
        window = ce2d[y + 1:y + 1 + win, x + 1:x + 1 + win]
        if delta > 0.0:
            window += t
        else:
            window -= t
        dirty2d[y:y + win + 2, x:x + win + 2] = 1

    for sweep in range(1, max_sweeps + 1):
        changed = 0
        for a, swaps in order:
            # a pixel scored with no improving move stays clean until an
            # edit changes ce or h at it or one of its 8 neighbours, all its
            # score reads; rescoring it sooner would give the same answer
            if not dirty[a]:
                continue
            dirty[a] = 0
            ha = hv[a]
            da = 1.0 - 2.0 * ha
            two_da = 2.0 * da
            best = toggle = two_da * ce[a] + k2[a]
            best_move = 0
            for off, cross2 in swaps:
                b = a + off
                if hv[b] == ha:
                    continue                     # equal pixels: identity
                # with db = -da, 2 db ce[b] = -(2 da ce[b]) and the cross
                # term 2 da db T = -2 T, stored as cross2
                d = toggle - two_da * ce[b] + k2[b] + cross2
                if d < best:
                    best = d
                    best_move = off
            if best < 0.0:
                apply(a, da)
                if best_move:
                    apply(a + best_move, -da)
                sse += best
                changed += 1
        if changed == 0:
            break
        trace.append((sweep, sse / n))
    out = np.array(hv).reshape(ce2d.shape)
    return out[pad:pad + hgt, pad:pad + wid].copy(), trace
