"""Multitone halftoning on a uniform lattice of L output levels.

Each continuous network output v in [0, 1] is cast onto its two nearest
lattice levels: the policy puts mass (v - floor)/delta on the upper level
and the rest on the lower, which keeps E[sampled level] = v. The cast and
the draw (white noise's too) live in `imagecore`, the estimators and
inference in `rl`; all take a `level_count`. Binary halftoning is the L = 2
case, where the cast degenerates to floor = 0, ceil = 1 and upper mass = v.
"""

from . import rl


def infer_multitone(net, c, level_count, rng):
    """Run the policy once and round to the lattice of level_count levels.
    Returns (m, v)."""
    return rl.infer_halftone(net, c, rng, level_count=level_count)
