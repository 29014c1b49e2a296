"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: explicit loops, direct
DFT sums, no shared code with the package. Agreement between these and the
vectorized implementations is evidence, not tautology. Kernel and window
WEIGHTS are passed in as plain arrays so these functions depend only on
array arithmetic. The one exception is exact_gradient_oracle: it checks the
gradient estimators, so it enumerates the package's own reward and cast.

conv3x3_forward_tensordot and conv3x3_backward_tensordot are not slow: they
are the per-tap tensordot form nn.Conv2d used before its flat-shift layout,
kept as the byte-for-byte reference that layout must reproduce;
policy_network_tensordot composes them into a whole PolicyNetwork pass in
(B, C, H, W) arrays, the reference for the network's padded channels-last
activations.
ring_partition_unique is the np.unique form of spectral.ring_partition,
which a bincount of the rounded radii replaced with the same arrays.
correlate_2d_dense is the K^2-tap correlation every Gaussian window was
taken with before the separable two-pass form replaced it, kept as the
2-D reference that form must agree with to rounding; with the kernel
flipped it is also hvs.convolve_same as it stood before its taps became
slices of the flattened padded image, whose bytes that form keeps, and
applied with a (1, K) row window and then a (K, 1) column window it is
the bytes of hvs.correlate_separable.
delta_cssim_map_per_offset is likewise the CSSIM-delta loop as it stood
before its per-pixel factors were hoisted out of the offset loop; it shares
the package's SSIM formula, because the hoisted loop must reproduce it byte
for byte. train_step_draws_per_call is rl.train_step's draws as they were
taken before one request served the whole step, one Rng call per draw,
through the package's own draw functions, since only their order is under
test. floyd_steinberg_per_pixel and xoshiro256pp_words are the
pixel-by-pixel diffusion and the word-by-word scrambling that
classic.floyd_steinberg and imagecore.Rng replaced with row and vector
forms of the same bytes. coma_signal_counterfactual is rl.coma_signal as
the score times the reward less its counterfactual baseline, written out
before the baseline was solved into the odds; it reads the package's
delta_map, since only that algebra is under test.
"""

import numpy as np

from htlab import metrics
from htlab.metrics import MetricConfig
from htlab.imagecore import (gaussian_noise_map, lattice_cast, random_crop,
                             sample_actions)
from htlab.rl import _PROB_FLOOR


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


def correlate_2d_dense(img, weights):
    """Same-size 2-D correlation with an odd (kh, kw) window, zero padding,
    over the last two axes: the kh * kw weighted shifted slices of one
    padded array, added to zeros in row-major tap order."""
    kh, kw = weights.shape
    rows, cols = img.shape[-2:]
    pad = np.pad(img, [(0, 0)] * (img.ndim - 2)
                 + [(kh // 2, kh // 2), (kw // 2, kw // 2)])
    out = np.zeros(img.shape)
    for i in range(kh):
        for j in range(kw):
            out += weights[i, j] * pad[..., i:i + rows, j:j + cols]
    return out


def ssim_map_brute(x, y, weights, c1, c2, mean=window_mean_brute):
    """Per-pixel three-term SSIM from windowed moments (variances clamped
    at zero, covariance left signed). mean takes the window means; pass
    correlate_2d_dense for large images or (B, H, W) stacks."""
    mu_x = mean(x, weights)
    mu_y = mean(y, weights)
    sxx = np.maximum(mean(x * x, weights) - mu_x * mu_x, 0.0)
    syy = np.maximum(mean(y * y, weights) - mu_y * mu_y, 0.0)
    sxy = mean(x * y, weights) - mu_x * mu_y
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


def policy_network_tensordot(net, x, dp=None):
    """A PolicyNetwork's pass built from the per-tap tensordot convolutions,
    with every activation and gradient a C-contiguous (B, C, H, W) array:
    p for input x, or, given an upstream dL/dp, (p, dL/dx, the parameter
    gradients in net.params() order). Only the parameter values are read
    from net."""

    def conv_fwd(conv, a):
        return conv3x3_forward_tensordot(a, conv.weight.value,
                                         conv.bias.value)

    convs = [(blk.conv1, blk.conv2) for blk in net.res]
    acts = [x]                       # the input of every conv, in order
    y = conv_fwd(net.conv_in, x)
    masks = []
    for conv1, conv2 in convs:
        h = conv_fwd(conv1, y)
        masks.append(h > 0)
        acts += [y, h * masks[-1]]
        y = y + conv_fwd(conv2, acts[-1])
    acts.append(y)
    logits = conv_fwd(net.conv_out, y)
    p = 1.0 / (1.0 + np.exp(-logits))
    if dp is None:
        return p

    def conv_bwd(conv, a, dout):
        dx, dw, db = conv3x3_backward_tensordot(a, conv.weight.value, dout)
        grads[id(conv)] = (dw, db)
        return np.ascontiguousarray(dx)

    grads = {}
    dy = conv_bwd(net.conv_out, acts[-1], dp * p * (1.0 - p))
    for k in reversed(range(len(convs))):
        conv1, conv2 = convs[k]
        dr = conv_bwd(conv2, acts[2 + 2 * k], dy) * masks[k]
        dy = dy + conv_bwd(conv1, acts[1 + 2 * k], dr)
    dx = conv_bwd(net.conv_in, x, dy)
    order = [net.conv_in] + [c for pair in convs for c in pair] \
        + [net.conv_out]
    return p, dx, [g for conv in order for g in grads[id(conv)]]


def ring_partition_unique(shape):
    """(bins, radii, counts) of spectral.ring_partition as np.unique gives
    them: each bin's dense index among the sorted distinct rounded radii
    (DC's radius 0 first), then the radii and their member counts with
    radius 0 dropped."""
    hgt, wid = shape
    fy = ((np.arange(hgt) + hgt // 2) % hgt) - hgt // 2
    fx = ((np.arange(wid) + wid // 2) % wid) - wid // 2
    rho = np.sqrt(fy[:, None] ** 2.0 + fx[None, :] ** 2.0)
    radii, dense, counts = np.unique(np.rint(rho).astype(np.int64),
                                     return_inverse=True, return_counts=True)
    return dense.reshape(hgt, wid), radii[1:], counts[1:]


def delta_cssim_map_per_offset(ctx, delta):
    """metrics._delta_cssim_map with every per-pixel factor formed inside
    the offset loop: sum over window positions b of sigma_c(b) *
    (SSIM_b(after) - SSIM_b(before)) for an edit at each pixel."""
    hgt, wid = ctx.h.shape[-2:]
    wh = ctx.cfg.ssim_window // 2
    out = np.zeros_like(delta)
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
                mu1, shh1, shc1, [t[sb] for t in ctx.contone])
            out[sa] += ctx.sigma_c[sb] * (s_new - ctx.ssim_map[sb])
    return out


def train_step_draws_per_call(dataset, cfg, rng, p):
    """The draws of one rl.train_step, each its own Rng call: per crop the
    image pick, the y and x offsets and the noise map; then the action map
    sampled from the policy output p; then, when w_a != 0 and L = 2, the B
    grays and the B noise maps of the anisotropy batch. Returns (x, the
    action map, the anisotropy input or None)."""
    size, b = cfg.crop_size, cfg.batch_size
    x = np.empty((b, 2, size, size))
    for i in range(b):
        img = dataset[rng.randint(len(dataset))]
        x[i, 0] = random_crop(rng, img, size)
        x[i, 1] = gaussian_noise_map(rng, size, size)
    actions = sample_actions(p, rng, cfg.levels)
    if cfg.w_a == 0.0 or cfg.levels != 2:
        return x, actions, None
    xg = np.empty((b, 2, size, size))
    xg[:, 0] = rng.uniforms(b)[:, None, None]
    xg[:, 1] = rng.gaussians(b * size * size).reshape(b, size, size)
    return x, actions, xg


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
    floor_vals, ceil_vals, p_ceil = lattice_cast(p, level_count)
    fv, cv, q_up = (a.ravel() for a in (floor_vals, ceil_vals, p_ceil))
    inv_delta = float(level_count - 1)
    grad = np.zeros(n)
    for bits in range(1 << n):
        sel = np.array([(bits >> j) & 1 for j in range(n)], dtype=np.float64)
        m = np.where(sel == 1.0, cv, fv)
        q = np.where(sel == 1.0, q_up, 1.0 - q_up)
        r = metrics.RewardContext(m.reshape(p.shape), c, cfg).reward
        for a in range(n):
            others = np.prod(np.delete(q, a))
            grad[a] += r * (1.0 if sel[a] == 1.0 else -1.0) * others * inv_delta
    return grad.reshape(p.shape)


def coma_signal_counterfactual(ctx, p):
    """COMA's dL/dp for a binary action map: minus the score d log pi / dp
    times R(h) less the baseline, the policy-expected reward over the
    pixel's two actions with every other pixel held."""
    h = ctx.h
    pc = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    score = np.where(h == 1.0, 1.0 / pc, -1.0 / (1.0 - pc))
    r_cur = np.asarray(ctx.reward)[..., None, None]
    r_flip = r_cur + metrics.delta_map(ctx, 1.0 - h)
    r_up = np.where(h == 1.0, r_cur, r_flip)
    r_down = np.where(h == 0.0, r_cur, r_flip)
    baseline = pc * r_up + (1.0 - pc) * r_down
    return -score * (r_cur - baseline)


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
