"""Classical RK4 of the closed moment hierarchy and the per-pair hierarchy
operators, kept as oracles.

``rk4_moment_path`` is the fixed-step integrator that
``limits.generic_moment_ode`` ran before every moment of a closed class came
from the exact Taylor engine (``limits._taylor_family``). It builds the same
right-hand side from shift operators and the interaction kernel, so it is
the independent check of the engine's step control.

``convolve_interaction_kernel`` is the one-measure np.convolve kernel that
the stacked ``limits._interaction_kernel`` replaced, and
``pairwise_hierarchy_operators`` the (L, Q) construction that called it once
per pair (e_i, e_j). np.convolve sums in another order (fused multiply-adds
but for its last entry), so the stacked forms agree with these to roundoff.
"""

import numpy as np

from eigenflow.limits import MomentPath, _interaction_kernel, _shift_operator


def convolve_interaction_kernel(p_g: np.ndarray, p_h: np.ndarray) -> np.ndarray:
    """I[0..J] of one measure's power sums P_g, P_h[0..J-1]: 0, then
    2 (P_g * P_h)[j-1] by np.convolve."""
    out = np.zeros(p_g.size + 1)
    if p_g.size:
        out[1:] = 2.0 * np.convolve(p_g, p_h)[: p_g.size]
    return out


def pairwise_hierarchy_operators(b, g2, h2, beta, k_max) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) of the closed hierarchy, Q's column i (k_max+1) + j from one
    kernel call on the pair (e_i, e_j)."""
    size, ks = k_max + 1, np.arange(k_max + 1)[:, None]
    g_op, h_op = (_shift_operator(c, k_max - 1, size) for c in (g2, h2))
    lin = ks * np.vstack([np.zeros(size), _shift_operator(b, k_max, size)])
    quad = 0.5 * beta * ks * np.array([
        np.append(0.0, convolve_interaction_kernel(g_op[:, i], h_op[:, j]))
        for i in range(size) for j in range(size)
    ]).T
    return lin, quad


def rk4_moment_path(b, g2, h2, beta, mu0_moments, k_max, t_final, dt=1e-3) -> MomentPath:
    """RK4 at a fixed dt of dm_k/dt = k (sum_j b_j m_{k-1+j} + beta (P_g * P_h)[k-2]).

    The grid is the round(t_final / dt) + 1 evenly spaced times of
    [0, t_final]. Roundoff grows with the step count: on ``jacobi``
    p = 12, q = 8, a = 0.3 at t = 2 the moments sit 1.05e-12 from the exact
    Taylor law at dt = 1e-5 but 5.1e-14 at dt = 2e-4, so an oracle check
    past t ~ 1 should use the coarser dt.
    """
    b, g2, h2 = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (b, g2, h2))
    m0 = np.asarray(mu0_moments, dtype=float)[: k_max + 1].copy()

    # rows k - 1 (k = 1..k_max) of the drift, rows l = 0..k_max-2 of P_g, P_h
    b_op = _shift_operator(b, k_max, k_max + 1)
    g_op = _shift_operator(g2, k_max - 1, k_max + 1)
    h_op = _shift_operator(h2, k_max - 1, k_max + 1)
    ks = np.arange(1, k_max + 1)
    half_beta = 0.5 * beta

    def rhs(m: np.ndarray) -> np.ndarray:
        dm = np.zeros_like(m)
        dm[1:] = ks * (b_op @ m + half_beta * _interaction_kernel(g_op @ m, h_op @ m))
        return dm

    n_steps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    step = t_final / n_steps if n_steps else 0.0
    t_grid = np.linspace(0.0, t_final, n_steps + 1)
    values = np.empty((n_steps + 1, k_max + 1))
    values[0] = m0
    m = m0.copy()
    for s in range(1, n_steps + 1):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * step * k1)
        k3 = rhs(m + 0.5 * step * k2)
        k4 = rhs(m + step * k3)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[s] = m
    return MomentPath(t_grid=t_grid, values=values)
