"""Multitone halftoning on a uniform lattice of L output levels.

Each continuous network output v in [0, 1] is cast onto its two nearest
lattice levels: the policy puts mass (v - floor)/delta on the upper level
and the rest on the lower, which keeps E[sampled level] = v. Casting,
sampling, the estimators and inference all live in `rl` and take a
`level_count`; binary halftoning is the L = 2 case, where the cast
degenerates to floor = 0, ceil = 1 and upper mass = v.
"""

from dataclasses import dataclass

import numpy as np

from . import rl


@dataclass(frozen=True)
class LevelSet:
    """Uniform output lattice i/(L-1), i = 0..L-1."""
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("a level set needs at least 2 levels")

    @property
    def delta(self):
        return 1.0 / (self.count - 1)

    @property
    def values(self):
        return np.arange(self.count) / (self.count - 1)


def infer_multitone(net, c, levels, rng):
    """Run the policy once and round to the lattice. Returns (m, v)."""
    return rl.infer_halftone(net, c, rng, level_count=levels.count)
