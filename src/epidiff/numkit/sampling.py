"""Seeded draws of ball steps and unit directions, shared by every sampled
check, so that a seed gives the same points wherever they are drawn."""

import numpy as np


def ball_steps(rng, count: int, dim: int, radius: float, power: float) -> np.ndarray:
    """A (count, dim) stack of steps: a block of unit rows, then a block of
    uniforms u, row i scaled to length radius * u[i]**power (power 1/dim is
    uniform in the ball)."""
    return unit_rows(rng, count, dim) * (radius * rng.random(count) ** power)[:, None]


def unit_rows(rng, k: int, dim: int) -> np.ndarray:
    """A (k, dim) block of standard normal rows scaled to unit length."""
    raw = rng.standard_normal((k, dim))
    return raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
