"""Seeded draws of ball steps and unit directions, shared by every sampled
check, so that a seed gives the same points wherever they are drawn."""

import numpy as np

from .sym import row_norms


def ball_steps(rng, count: int, dim: int, radius: float, power: float) -> np.ndarray:
    """A (count, dim) stack of steps: per step a standard normal row, then a
    uniform u, the row scaled to length radius * u**power (power 1/dim is
    uniform in the ball).  u**power is a Python scalar pow: numpy's
    array ** 0.5 can round apart from it."""
    raw, scale = np.empty((count, dim)), np.empty(count)
    for i in range(count):
        raw[i] = rng.standard_normal(dim)
        scale[i] = radius * rng.random() ** power
    return raw * (scale / np.maximum(row_norms(raw), 1e-300))[:, None]


def unit_rows(rng, k: int, dim: int) -> np.ndarray:
    """A (k, dim) block of standard normal rows scaled to unit length by the
    block's axis norm (which can differ from row_norms in the last bit)."""
    raw = rng.standard_normal((k, dim))
    return raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
