"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: explicit loops, direct
DFT sums, no shared code with the package. Agreement between these and the
vectorized implementations is evidence, not tautology. Kernel and window
WEIGHTS are passed in as plain arrays so these functions depend only on
array arithmetic. The one exception is exact_gradient_oracle: it checks the
gradient estimators, so it enumerates the package's own reward and cast.

conv3x3_forward_tensordot and conv3x3_backward_tensordot are not slow: they
are the per-tap tensordot form nn.Conv2d used before its flat-shift layout,
kept as the byte-for-byte reference that layout must reproduce.
delta_cssim_map_per_offset is likewise the CSSIM-delta loop as it stood
before its per-pixel factors were hoisted out of the offset loop; it shares
the package's SSIM formula, because the hoisted loop must reproduce it byte
for byte. floyd_steinberg_per_pixel and xoshiro256pp_words are the
pixel-by-pixel diffusion and the word-by-word scrambling that
classic.floyd_steinberg and imagecore.Rng replaced with row and vector
forms of the same bytes.
"""

import numpy as np

from htlab import metrics
from htlab.metrics import MetricConfig
from htlab.rl import _cast_two_point


def conv2d_same_brute(img, kernel):
    """True 2-D convolution (kernel index negated), zero padding, same size."""
    hgt, wid = img.shape
    kh, kw = kernel.shape
    cy, cx = kh // 2, kw // 2
    out = np.zeros((hgt, wid))
    for y in range(hgt):
        for x in range(wid):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    yy = y - (i - cy)
                    xx = x - (j - cx)
                    if 0 <= yy < hgt and 0 <= xx < wid:
                        acc += kernel[i, j] * img[yy, xx]
            out[y, x] = acc
    return out


def window_mean_brute(img, weights):
    """Weighted window mean at every pixel; symmetric window, zero padding."""
    hgt, wid = img.shape
    size = weights.shape[0]
    half = size // 2
    out = np.zeros((hgt, wid))
    for y in range(hgt):
        for x in range(wid):
            acc = 0.0
            for i in range(size):
                for j in range(size):
                    yy = y + i - half
                    xx = x + j - half
                    if 0 <= yy < hgt and 0 <= xx < wid:
                        acc += weights[i, j] * img[yy, xx]
            out[y, x] = acc
    return out


def ssim_map_brute(x, y, weights, c1, c2):
    """Per-pixel three-term SSIM from windowed moments (variances clamped
    at zero, covariance left signed)."""
    mu_x = window_mean_brute(x, weights)
    mu_y = window_mean_brute(y, weights)
    sxx = np.maximum(window_mean_brute(x * x, weights) - mu_x * mu_x, 0.0)
    syy = np.maximum(window_mean_brute(y * y, weights) - mu_y * mu_y, 0.0)
    sxy = window_mean_brute(x * y, weights) - mu_x * mu_y
    c3 = c2 / 2.0
    sx = np.sqrt(sxx)
    sy = np.sqrt(syy)
    lum = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
    con = (2.0 * sx * sy + c2) / (sxx + syy + c2)
    struct = (sxy + c3) / (sx * sy + c3)
    return lum * con * struct


def contrast_map_brute(c, weights, gain):
    mu = window_mean_brute(c, weights)
    var = np.maximum(window_mean_brute(c * c, weights) - mu * mu, 0.0)
    return np.minimum(gain * np.sqrt(var), 1.0)


def reward_brute(h, c, kernel, weights, w_s, c1, c2, gain, region_mask):
    """-HVS-MSE + w_s * CSSIM over the masked region, all by brute force."""
    e = conv2d_same_brute(h, kernel) - conv2d_same_brute(c, kernel)
    mse = float(np.mean((e * e)[region_mask]))
    if w_s == 0.0:
        return -mse
    smap = ssim_map_brute(h, c, weights, c1, c2)
    sigma = contrast_map_brute(c, weights, gain)
    cs = sigma * smap + (1.0 - sigma)
    return -mse + w_s * float(np.mean(cs[region_mask]))


# swap neighbourhood in the evaluation order of classic.dbs_search
DBS_MOVES = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
             (-1, -1)]


def dbs_brute(c, seed, kernel, max_sweeps=20):
    """Direct binary search that re-sums every candidate over its kernel
    window: the toggle, then each unequal 8-neighbour swap in DBS_MOVES
    order; the best strictly negative delta is applied, ties keep the
    earlier candidate. Returns (halftone, [(sweep, mse)]), the trace built
    from the accepted deltas."""
    h = np.array(seed, dtype=np.float64)
    hgt, wid = c.shape
    half = kernel.shape[0] // 2

    def window(y, x):
        y0, y1 = max(0, y - half), min(hgt, y + half + 1)
        x0, x1 = max(0, x - half), min(wid, x + half + 1)
        return (slice(y0, y1), slice(x0, x1),
                kernel[y0 - y + half:y1 - y + half,
                       x0 - x + half:x1 - x + half])

    def window_dot(img, y, x):
        ys, xs, ks = window(y, x)
        return float(np.sum(img[ys, xs] * ks))

    def cross_term(ya, xa, yb, xb):
        # sum_j K[j-a] K[j-b] over in-image j in both windows
        y0 = max(0, ya - half, yb - half)
        y1 = min(hgt, ya + half + 1, yb + half + 1)
        x0 = max(0, xa - half, xb - half)
        x1 = min(wid, xa + half + 1, xb + half + 1)
        if y0 >= y1 or x0 >= x1:
            return 0.0
        ka = kernel[y0 - ya + half:y1 - ya + half,
                    x0 - xa + half:x1 - xa + half]
        kb = kernel[y0 - yb + half:y1 - yb + half,
                    x0 - xb + half:x1 - xb + half]
        return float(np.sum(ka * kb))

    def apply(y, x, delta):
        h[y, x] += delta
        ys, xs, ks = window(y, x)
        e[ys, xs] += delta * ks

    e = conv2d_same_brute(h, kernel) - conv2d_same_brute(c, kernel)
    k2 = np.array([[cross_term(y, x, y, x) for x in range(wid)]
                   for y in range(hgt)])
    sse = float(np.sum(e * e))
    trace = [(0, sse / c.size)]
    for sweep in range(1, max_sweeps + 1):
        changed = 0
        for y in range(hgt):
            for x in range(wid):
                da = 1.0 - 2.0 * h[y, x]
                toggle = 2.0 * da * window_dot(e, y, x) + k2[y, x]
                best, best_move = toggle, None
                for dy, dx in DBS_MOVES:
                    yb, xb = y + dy, x + dx
                    if not (0 <= yb < hgt and 0 <= xb < wid):
                        continue
                    if h[yb, xb] == h[y, x]:
                        continue
                    db = -da
                    d = (toggle + 2.0 * db * window_dot(e, yb, xb)
                         + k2[yb, xb]
                         + 2.0 * da * db * cross_term(y, x, yb, xb))
                    if d < best:
                        best, best_move = d, (yb, xb)
                if best < 0.0:
                    apply(y, x, da)
                    if best_move:
                        apply(*best_move, -da)
                    sse += best
                    changed += 1
        if changed == 0:
            break
        trace.append((sweep, sse / c.size))
    return h, trace


def in_image_autocorrelation_brute(kernel, y, x, hgt, wid):
    """T[p - a + K - 1] = sum over in-image j of K[j-a] K[j-p] for the
    pixel a = (y, x), every lag p - a within (K - 1), by explicit loops."""
    size = kernel.shape[0]
    half = size // 2
    span = size - 1
    out = np.zeros((2 * size - 1, 2 * size - 1))
    for ly in range(-span, span + 1):
        for lx in range(-span, span + 1):
            acc = 0.0
            for jy in range(y - half, y + half + 1):
                for jx in range(x - half, x + half + 1):
                    if not (0 <= jy < hgt and 0 <= jx < wid):
                        continue
                    iy, ix = jy - y - ly + half, jx - x - lx + half
                    if 0 <= iy < size and 0 <= ix < size:
                        acc += (kernel[jy - y + half, jx - x + half]
                                * kernel[iy, ix])
            out[ly + span, lx + span] = acc
    return out


def conv3x3_forward_tensordot(x, weight, bias):
    """3x3, stride 1, zero-pad 1 correlation of a (B, Cin, H, W) batch: one
    tensordot per tap over a strided window of the padded input."""
    b, _, hgt, wid = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.empty((b, weight.shape[0], hgt, wid))
    out[:] = bias[None, :, None, None]
    for ki in range(3):
        for kj in range(3):
            out += np.tensordot(
                xp[:, :, ki:ki + hgt, kj:kj + wid], weight[:, :, ki, kj],
                axes=([1], [1])).transpose(0, 3, 1, 2)
    return out


def conv3x3_backward_tensordot(x, weight, dout):
    """(dx, dW, dbias) of conv3x3_forward_tensordot for upstream dout."""
    _, _, hgt, wid = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dbias = dout.sum(axis=(0, 2, 3))
    dweight = np.zeros_like(weight)
    dxp = np.zeros_like(xp)
    for ki in range(3):
        for kj in range(3):
            dweight[:, :, ki, kj] += np.tensordot(
                dout, xp[:, :, ki:ki + hgt, kj:kj + wid],
                axes=([0, 2, 3], [0, 2, 3]))
            dxp[:, :, ki:ki + hgt, kj:kj + wid] += np.tensordot(
                dout, weight[:, :, ki, kj],
                axes=([1], [0])).transpose(0, 3, 1, 2)
    return dxp[:, :, 1:-1, 1:-1], dweight, dbias


def delta_cssim_map_per_offset(ctx, delta):
    """metrics._delta_cssim_map with every per-pixel factor formed inside
    the offset loop: sum over window positions b of sigma_c(b) *
    (SSIM_b(after) - SSIM_b(before)) for an edit at each pixel."""
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
            s_new = metrics._ssim_from_stats(
                mu1, shh1, shc1, [t[sb] for t in ctx.contone], c1, c2)
            out[sa] += ctx.sigma_c[sb] * (s_new - ctx.ssim_map[sb])
    return out


def dft2_brute(x):
    """Direct O(N^2) two-dimensional DFT."""
    hgt, wid = x.shape
    out = np.zeros((hgt, wid), dtype=np.complex128)
    for fy in range(hgt):
        for fx in range(wid):
            acc = 0.0 + 0.0j
            for y in range(hgt):
                for xx in range(wid):
                    ang = -2.0 * np.pi * (fy * y / hgt + fx * xx / wid)
                    acc += x[y, xx] * complex(np.cos(ang), np.sin(ang))
            out[fy, fx] = acc
    return out


def fd_gradient(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x, elementwise."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = x[idx]
        x[idx] = keep + eps
        hi = f(x)
        x[idx] = keep - eps
        lo = f(x)
        x[idx] = keep
        g[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return g


def enumerate_bit_maps(shape):
    """All binary maps of the given shape, row-major bit order."""
    n = int(np.prod(shape))
    for bits in range(1 << n):
        yield np.array([(bits >> k) & 1 for k in range(n)],
                       dtype=np.float64).reshape(shape)


def exact_gradient_oracle(p, c, cfg=None, level_count=2):
    """Brute-force d E[R] / d p by enumerating every joint action map.

    Guarded to at most 20 pixels. For multitone policies p is the value map
    and the derivative is with respect to it (upper-level mass moves at
    1/delta per unit value).
    """
    p = np.asarray(p, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = p.size
    if n > 20:
        raise ValueError("oracle enumeration limited to 20 pixels")
    cfg = cfg or MetricConfig()
    floor_vals, ceil_vals, p_ceil = _cast_two_point(p, level_count)
    fv, cv, q_up = (a.ravel() for a in (floor_vals, ceil_vals, p_ceil))
    inv_delta = float(level_count - 1)
    grad = np.zeros(n)
    for bits in range(1 << n):
        sel = np.array([(bits >> j) & 1 for j in range(n)], dtype=np.float64)
        m = np.where(sel == 1.0, cv, fv)
        q = np.where(sel == 1.0, q_up, 1.0 - q_up)
        r = metrics.reward(m.reshape(p.shape), c, cfg).reward
        for a in range(n):
            others = np.prod(np.delete(q, a))
            grad[a] += r * (1.0 if sel[a] == 1.0 else -1.0) * others * inv_delta
    return grad.reshape(p.shape)


def floyd_steinberg_per_pixel(c, serpentine=False):
    """Floyd-Steinberg error diffusion one pixel at a time: each pixel's
    7/16, 3/16, 5/16 and 1/16 shares are added to the accumulator as soon
    as it is quantized. Serpentine reverses odd rows and mirrors the
    kernel; an accumulated value >= 0.5 rounds to white."""
    hgt, wid = c.shape
    acc = np.array(c, dtype=np.float64)
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


_M64 = (1 << 64) - 1


def xoshiro256pp_words(state, n):
    """(next n xoshiro256++ outputs as Python ints, state after them) from
    a four-word state, scrambling each word as it is drawn."""
    s0, s1, s2, s3 = state
    out = [0] * n
    for i in range(n):
        x = (s0 + s3) & _M64
        out[i] = ((((x << 23) | (x >> 41)) & _M64) + s0) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
    return out, (s0, s1, s2, s3)


def derive_seed_iterative(seed, index):
    """The output of splitmix64 step index + 1 from seed, by running every
    step."""
    s = seed & _M64
    z = 0
    for _ in range(index + 1):
        s = (s + 0x9E3779B97F4A7C15) & _M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
    return z
