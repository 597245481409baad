"""Reference paths for the truncated reduced norm, kept as test oracles.

The compressed operator is built the slow way, one group product per
(support element, ball element) pair, into a dense numpy matrix; the
norm is estimated by power iteration on the normal matrix, stopping
when two estimates 64 iterations apart agree to within tol.

lanczos_top_reference is the earlier Lanczos solver: a complex
projected matrix, and a second Gram-Schmidt pass only when the first
kept less than REORTH_RATIO of the norm (Daniel et al., 1976).
"""

import math

import numpy as np

from dirac_atlas.errors import ConvergenceError
from dirac_atlas.rapid_decay import LANCZOS_BASIS, START_STEP, normalize_function

POWER_CHECK_WINDOW = 64
REORTH_RATIO = 0.7071067811865476  # 1/sqrt(2)


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


def lanczos_top_reference(gram, forward, n, tol, max_iter):
    """rapid_decay._lanczos_top's contract, by the earlier solver: the
    projected matrix is complex, and Gram-Schmidt is repeated only when
    one pass left less than REORTH_RATIO of ||w||."""
    size = min(LANCZOS_BASIS, n)
    keep = max(1, size // 2)
    basis = np.zeros((size, n), dtype=complex)
    proj = np.zeros((size, size), dtype=complex)
    start = 0.5 + np.arange(1, n + 1) * START_STEP % 1.0
    basis[0] = start / np.linalg.norm(start)
    k = 1
    for applications in range(1, max_iter + 1):
        j = k - 1
        w = gram(basis[j])
        beta = float(np.linalg.norm(w))
        for _ in range(2):
            before = beta
            h = (basis[:k] @ w.conj()).conj()
            w -= h @ basis[:k]
            proj[:k, j] += h
            beta = float(np.linalg.norm(w))
            if beta > REORTH_RATIO * before:
                break
        proj[j, :k] = proj[:k, j].conj()
        proj[j, j] = proj[j, j].real
        thetas, vecs = np.linalg.eigh(proj[:k, :k])
        theta, u = float(thetas[-1]), vecs[:, -1]
        residual = beta * abs(u[-1])
        if residual <= tol * max(1.0, theta):
            x = u @ basis[:k]
            x /= np.linalg.norm(x)
            return float(np.linalg.norm(forward(x))), applications, residual / theta if theta > 0 else 0.0
        if k == size:
            basis[:keep] = vecs[:, -keep:].T @ basis[:k]
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(thetas[-keep:])
            k = keep
        basis[k] = w / beta
        k += 1
    raise ConvergenceError("Lanczos iteration did not converge", max_iter)
