"""Reference paths for the truncated reduced norm, kept as test oracles.

The compressed operator is built the slow way, one group product per
(support element, ball element) pair, into a dense numpy matrix; the
norm is estimated by power iteration on the normal matrix, stopping
when two estimates 64 iterations apart agree to within tol.
"""

import math

import numpy as np

from dirac_atlas.errors import ConvergenceError
from dirac_atlas.rapid_decay import normalize_function

POWER_CHECK_WINDOW = 64


def compressed_operator_reference(f, group, radius) -> np.ndarray:
    """M[i, j] = sum of f(s) over s with ball[i] = s . ball[j], dense."""
    ball = group.ball(radius)
    index = {g: i for i, g in enumerate(ball)}
    m = np.zeros((len(ball), len(ball)), dtype=complex)
    for s_elem, coeff in f.items():
        for h, j in index.items():
            i = index.get(group.mul(s_elem, h))
            if i is not None:
                m[i, j] += coeff
    return m


def power_iteration_reference(f, group, radius, tol=1e-6, max_iter=200_000) -> float:
    """The power-iteration lower bound: ||M x|| for the last iterate x."""
    f = normalize_function(f, group)
    if not f:
        return 0.0
    m = compressed_operator_reference(f, group, radius)
    mh = m.conj().T
    n = m.shape[1]
    x = np.ones(n) / math.sqrt(n)
    checkpoint = 0.0
    for it in range(1, max_iter + 1):
        y = m @ x
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            return 0.0
        x = mh @ y
        x /= np.linalg.norm(x)
        if it % POWER_CHECK_WINDOW == 0:
            if abs(sigma - checkpoint) <= tol * max(1.0, sigma):
                return sigma
            checkpoint = sigma
    raise ConvergenceError("power iteration did not converge", max_iter)
