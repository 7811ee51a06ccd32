"""Truncated shifts and their radius-normalized form.

``make_shift(n, b)`` is the (n+1)x(n+1) nilpotent matrix with the constant
weight b on the first superdiagonal.  ``normalized_shift(n, rho)`` rescales
the unit-weight shift so its rho-numerical radius is exactly one.
"""

from __future__ import annotations

import math

import numpy as np

from .radius import shift_radius


def make_shift(n: int, b: float) -> np.ndarray:
    """Truncated shift of size n+1 with superdiagonal weight b (> 0), n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not b > 0:
        raise ValueError("superdiagonal weight must be positive")
    s = np.zeros((n + 1, n + 1), dtype=complex)
    idx = np.arange(n)
    s[idx, idx + 1] = b
    return s


def normalized_shift(n: int, rho: float) -> np.ndarray:
    """The radius-normalized truncated shift: weight 1/w_rho(S_{n+1}(1)).

    Requires n >= 1 (the 1x1 zero matrix has radius 0, which is not
    invertible) and a finite rho >= 1.
    """
    if n < 1:
        raise ValueError("normalized_shift requires n >= 1")
    if not 1 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 1")
    w = shift_radius(n, rho).value
    return make_shift(n, 1.0 / w)
