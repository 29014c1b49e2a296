"""Synthetic test images and small shared conveniences."""

import numpy as np

from htlab.imagecore import Rng


def ramp(height, width, lo=0.1, hi=0.9):
    row = np.linspace(lo, hi, width)
    return np.tile(row, (height, 1))


def sinusoid(height, width, fy, fx, amp=0.3, bias=0.5):
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return bias + amp * np.sin(2.0 * np.pi * (fy * yy / height +
                                              fx * xx / width))


def natural_crop(size=64, seed=0):
    """A composite scene standing in for a photographic crop: a tone ramp,
    two low-frequency waves, a bright disc and a dark ridge, plus faint
    seeded grain; values kept inside [0.02, 0.98]."""
    rng = Rng(seed)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = 0.35 + 0.4 * xx / max(size - 1, 1)
    img = img + 0.18 * np.sin(2.0 * np.pi * (1.7 * yy / size))
    img = img + 0.12 * np.sin(2.0 * np.pi * (2.3 * xx / size + 0.25))
    disc = ((yy - 0.3 * size) ** 2 + (xx - 0.62 * size) ** 2
            < (0.16 * size) ** 2)
    img = np.where(disc, 0.85, img)
    ridge = np.abs((yy - 0.72 * size) - 0.35 * (xx - 0.5 * size)) \
        < 0.04 * size
    img = np.where(ridge, 0.12, img)
    grain = rng.gaussians(size * size).reshape(size, size)
    img = img + 0.015 * grain
    return np.clip(img, 0.02, 0.98)


def pad(x):
    """A (B, C, H, W) batch in the layout the network's layers pass along:
    a zero-padded channels-last (B, H+3, W+2, C) buffer with the image at
    [:, 1:H+1, 1:W+1]."""
    b, c, hgt, wid = x.shape
    buf = np.zeros((b, hgt + 3, wid + 2, c))
    buf[:, 1:hgt + 1, 1:wid + 1] = np.moveaxis(x, 1, 3)
    return buf


def crop(buf):
    """The C-contiguous (B, C, H, W) image of a padded channels-last
    buffer."""
    return np.ascontiguousarray(np.moveaxis(buf[:, 1:-2, 1:-1], 3, 1))


def random_contone(rng, height, width):
    return rng.uniforms(height * width).reshape(height, width)


def random_halftone(rng, height, width):
    return (rng.uniforms(height * width).reshape(height, width)
            < 0.5).astype(np.float64)
