"""Cauchy (Stieltjes) transforms, inversion, and the transform evolution.

Global sign convention: G(z) = int (x - z)^{-1} mu(dx) on the upper half
plane, so G is Herglotz (Im G > 0 for Im z > 0) and G(z) ~ -1/z at
infinity.

The transform of a measure evolving under the limiting equation satisfies

    dG_t(z)/dt = -E[b R^2] + beta ( E[g^2 R] E[h^2 R^2]
                                    + E[g^2 R^2] E[h^2 R] ),

with R = (x - z)^{-1} and E[phi R^k] = int phi(x) (x - z)^{-k} mu_t(dx);
:func:`ct_evolution_rhs` evaluates that right-hand side for empirical
measures and for the package's density-carrying laws (beta = 1 reproduces
the coefficient-1-per-term variant).

Free diffusions enter only through their transforms: free Brownian motion
with drift theta and scale sigma has

    r_t(z) = ( -(z - theta t) + sqrt((z - theta t)^2 - 4 sigma^2 t) )
             / (2 sigma^2 t)

(square-root branch chosen by the Herglotz test at each evaluation, never
by a principal-branch formula); the marginals themselves, free Brownian
and Ornstein-Uhlenbeck, are :class:`eigenflow.limits.FreeDiffusion`. The
constant coefficient convention that makes the evolution equation hold for
these closed forms at beta = 2 is g^2 = h^2 = sigma/2 (so that
2 beta g^2 h^2 = sigma^2); :func:`free_pde_residual` implements and
verifies exactly that convention.

Each measure answers its own transform, ``mu.transform(z)``, and its
weighted transforms E[phi R^k], ``mu.weighted_transform``: a law by the
Herglotz root of a quadratic (semicircle and MP, Marchenko-Pastur 1967)
and by atoms plus the trapezoid rule in theta on each piece of its
continuous part, which converges or raises NumericalError
(:mod:`eigenflow.limits`); an empirical measure by sums over its atoms.
Any other object raises UnsupportedLawOperation. :func:`cauchy_transform`
and every ``transform`` take a scalar or an array of z and work
elementwise (one code path for both); :func:`stieltjes_invert` passes
its transform one array, x_grid + i eps, per eps.

NumPy is the only third-party module this package imports; SciPy serves
only the tests, as their reference quadrature.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .errors import UnsupportedLawOperation, ValidationError
from .limits import FreeDiffusion, free_bm_law, free_ou_law
from .linalg import _horner

__all__ = [
    "cauchy_transform",
    "ct_evolution_rhs",
    "free_bm_transform",
    "free_ou_transform",
    "free_pde_residual",
    "stieltjes_invert",
]


def _require_upper(z):
    """z as a complex scalar or array, each element finite and in the open upper half plane."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise ValidationError("z must be finite and lie in the open upper half plane")
    return z[()]


def _law_method(mu, name: str):
    method = getattr(mu, name, None)
    if method is None:
        raise UnsupportedLawOperation(f"cannot integrate against {type(mu).__name__}")
    return method


def _weighted_transform(mu, z, weight, power: int):
    """E[weight(x) (x - z)^{-power}], ``mu``'s own ``weighted_transform``: an
    empirical measure takes a scalar or an array of z, a law one z."""
    return _law_method(mu, "weighted_transform")(weight, z, power)


def cauchy_transform(mu, z):
    """G(z) = int (x - z)^{-1} mu(dx), for Im z > 0: a scalar z gives a
    scalar, an array of z an array of the same shape.

    The measure answers for itself, ``mu.transform(z)``: an empirical
    measure sums over its atoms, a law gives its closed form.
    """
    return _law_method(mu, "transform")(_require_upper(z))


def stieltjes_invert(
    transform: Callable[[np.ndarray], np.ndarray], x_grid, eps_list
) -> np.ndarray:
    """Density estimates (1/pi) Im G(x + i eps) extrapolated to eps -> 0.

    ``transform`` is called once per eps, on the whole array x_grid + i eps,
    and returns G there elementwise. x_grid must be finite; ``eps_list``
    finite, positive and strictly descending with at least two entries.
    Extrapolation is Neville's algorithm in eps (linear for two entries,
    higher order with more).
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 2 or not all(0 < e < math.inf for e in eps) or any(
        e2 >= e1 for e1, e2 in zip(eps, eps[1:])
    ):
        raise ValidationError(
            "eps_list must be finite, positive and strictly descending with >= 2 entries"
        )
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all(np.isfinite(x_grid)):
        raise ValidationError("x_grid entries must be finite")
    table = [(1.0 / math.pi) * np.asarray(transform(x_grid + 1j * e)).imag for e in eps]
    m = len(eps)
    for j in range(1, m):
        for i in range(m - j):
            table[i] = (eps[i] * table[i + 1] - eps[i + j] * table[i]) / (
                eps[i] - eps[i + j]
            )
    return table[0]


def ct_evolution_rhs(mu, z, g2, h2, b, beta: float = 2.0):
    """RHS of the transform evolution equation at measure ``mu``, point z.

        -E[b R^2] + beta ( E[g^2 R] E[h^2 R^2] + E[g^2 R^2] E[h^2 R] ),

    R = (x - z)^{-1}, with ``g2``, ``h2``, ``b`` callables evaluating
    g^2, h^2 and the drift pointwise. An array of z gives, in z's shape, the
    scalar calls' values, one z at a time (numpy fuses an array's complex products).
    """
    z = _require_upper(z)
    if np.ndim(z):
        return np.reshape([ct_evolution_rhs(mu, v, g2, h2, b, beta) for v in z.ravel()], z.shape)
    drift = -_weighted_transform(mu, z, b, 2)
    g_r1 = _weighted_transform(mu, z, g2, 1)
    g_r2 = _weighted_transform(mu, z, g2, 2)
    h_r1 = _weighted_transform(mu, z, h2, 1)
    h_r2 = _weighted_transform(mu, z, h2, 2)
    return drift + beta * (g_r1 * h_r2 + g_r2 * h_r1)


def free_bm_transform(theta: float, sigma: float, t: float, z: complex) -> complex:
    """Transform of free Brownian motion with drift theta and scale sigma.

    The Herglotz root of sigma^2 t r^2 + (z - theta t) r + 1 = 0; shift
    covariance r_t(z; theta) = r_t(z - theta t; 0) is inherited from the
    formula. Degenerate sigma = 0 gives the rigid translation -1/(z - theta t).
    """
    if t <= 0:
        raise ValidationError("t must be > 0")
    return free_bm_law(theta, sigma, t).transform(_require_upper(z))


def free_ou_transform(theta: float, sigma: float, t: float, z: complex) -> complex:
    """Transform of the free Ornstein-Uhlenbeck marginal at time t.

    The marginal is the centered semicircle with variance
    :func:`~eigenflow.limits.free_ou_variance` (radius^2 = 4 * variance);
    continuous with free BM as theta -> 0.
    """
    if t <= 0:
        raise ValidationError("t must be > 0")
    return free_ou_law(theta, sigma, t).transform(_require_upper(z))


def free_pde_residual(
    case: str,
    t: float,
    z: complex,
    delta_t: float = 1e-4,
    theta: float = 0.0,
    sigma: float = 1.0,
) -> float:
    """|finite-difference dr/dt - evolution RHS| for a closed-form case.

    ``case`` is ``"free_bm"`` (drift b(x) = theta) or ``"free_ou"``
    (drift b(x) = theta x). The RHS is :func:`ct_evolution_rhs` at
    beta = 2 with the implemented constant-coefficient convention
    g^2 = h^2 = sigma/2 (the unique constant choice with g = h making the
    equation hold: 2 * beta * (sigma/2)^2 = sigma^2).
    """
    family = FreeDiffusion(case, theta, sigma)
    if not 0 < delta_t < t < math.inf:
        raise ValidationError("need 0 < delta_t < t, both finite, for the centered difference")
    z = _require_upper(z)
    dr_dt = (family.at(t + delta_t).transform(z) - family.at(t - delta_t).transform(z)) / (
        2.0 * delta_t
    )
    diffusion = partial(_horner, coeffs=(sigma / 2.0,))
    drift = (float(theta),) if case == "free_bm" else (0.0, float(theta))
    rhs = ct_evolution_rhs(
        family.at(t), z, g2=diffusion, h2=diffusion, b=partial(_horner, coeffs=drift), beta=2.0
    )
    return abs(dr_dt - rhs)
