"""Quadrature weights for profiles sampled at uniformly spaced nodes."""

import numpy as np


def trapezoid_weights(npoints: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for ``npoints`` uniformly spaced nodes."""
    if npoints < 2:
        raise ValueError("trapezoid rule needs at least two nodes")
    w = np.full(npoints, spacing)
    w[0] = 0.5 * spacing
    w[-1] = 0.5 * spacing
    return w

