"""Cauchy (Stieltjes) transforms, inversion, and free-diffusion closed forms.

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

Free diffusions are represented solely through their transforms: free
Brownian motion with drift theta and scale sigma has

    r_t(z) = ( -(z - theta t) + sqrt((z - theta t)^2 - 4 sigma^2 t) )
             / (2 sigma^2 t)

(square-root branch chosen by the Herglotz test at each evaluation, never
by a principal-branch formula), and the free Ornstein-Uhlenbeck marginal
is the centered semicircle with variance sigma^2 (e^{2 theta t} - 1) /
(2 theta). The constant coefficient convention that makes the evolution
equation hold for these closed forms at beta = 2 is g^2 = h^2 = sigma/2
(so that 2 beta g^2 h^2 = sigma^2); :func:`free_pde_residual` implements
and verifies exactly that convention.

Each law answers its own transform, ``law.transform(z)`` (for the
semicircle and MP laws the Herglotz root of a quadratic, Marchenko-Pastur
1967), and its weighted transforms E[phi R^k], ``law.weighted_transform``:
atoms plus one quadrature per piece of its continuous part
(:mod:`eigenflow.limits`). An empirical measure sums over its atoms; any
other object raises UnsupportedLawOperation.

NumPy is the only third-party module this package imports when it loads.
SciPy's adaptive quadrature (``limits._cquad``) is imported on first use,
by the weighted transforms of laws behind :func:`ct_evolution_rhs` and
:func:`free_pde_residual`; no ``eigenflow`` subcommand reaches them, so none
loads SciPy.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import UnsupportedLawOperation, ValidationError
from .empirical import EmpiricalMeasure
from .limits import Semicircle

__all__ = [
    "cauchy_transform",
    "ct_evolution_rhs",
    "free_bm_law",
    "free_bm_transform",
    "free_ou_law",
    "free_ou_transform",
    "free_ou_variance",
    "free_pde_residual",
    "stieltjes_invert",
]


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("z must lie in the open upper half plane")
    return z


def _law_method(mu, name: str):
    method = getattr(mu, name, None)
    if method is None:
        raise UnsupportedLawOperation(f"cannot integrate against {type(mu).__name__}")
    return method


def _weighted_transform(mu, z: complex, weight, power: int) -> complex:
    """E[weight(x) (x - z)^{-power}] under a measure or law ``mu``."""
    if isinstance(mu, EmpiricalMeasure):
        lam = mu.atoms
        wv = np.asarray(weight(lam), dtype=float)
        return complex(np.mean(wv / (lam - z) ** power))
    return _law_method(mu, "weighted_transform")(weight, z, power)


def _one(x):
    arr = np.asarray(x, dtype=float)
    return np.ones_like(arr) if arr.ndim else 1.0


def cauchy_transform(mu, z: complex) -> complex:
    """G(z) = int (x - z)^{-1} mu(dx), for Im z > 0.

    An empirical measure sums over its atoms; a law answers its own
    closed form, ``mu.transform(z)``.
    """
    z = _require_upper(z)
    if isinstance(mu, EmpiricalMeasure):
        return _weighted_transform(mu, z, _one, 1)
    return _law_method(mu, "transform")(z)


def stieltjes_invert(
    transform: Callable[[complex], complex], x_grid, eps_list
) -> np.ndarray:
    """Density estimates (1/pi) Im G(x + i eps) extrapolated to eps -> 0.

    ``eps_list`` must be positive and strictly descending with at least
    two entries; extrapolation is Neville's algorithm in eps (linear for
    two entries, higher order with more).
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 2 or any(e <= 0 for e in eps) or any(
        e2 >= e1 for e1, e2 in zip(eps, eps[1:])
    ):
        raise ValidationError(
            "eps_list must be positive and strictly descending with >= 2 entries"
        )
    x_grid = np.asarray(x_grid, dtype=float)
    table = [
        np.array(
            [(1.0 / math.pi) * complex(transform(complex(x, e))).imag for x in x_grid]
        )
        for e in eps
    ]
    m = len(eps)
    for j in range(1, m):
        for i in range(m - j):
            table[i] = (eps[i] * table[i + 1] - eps[i + j] * table[i]) / (
                eps[i] - eps[i + j]
            )
    return table[0]


def ct_evolution_rhs(mu, z: complex, g2, h2, b, beta: float = 2.0) -> complex:
    """RHS of the transform evolution equation at measure ``mu``, point z.

        -E[b R^2] + beta ( E[g^2 R] E[h^2 R^2] + E[g^2 R^2] E[h^2 R] ),

    R = (x - z)^{-1}, with ``g2``, ``h2``, ``b`` callables evaluating
    g^2, h^2 and the drift pointwise.
    """
    z = _require_upper(z)
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


def free_ou_variance(theta: float, sigma: float, t: float) -> float:
    """sigma^2 (e^{2 theta t} - 1) / (2 theta); theta -> 0 limit sigma^2 t.

    Valid for both signs of theta (for theta < 0 it equals
    sigma^2 (1 - e^{-2|theta| t}) / (2|theta|), stationary value
    sigma^2/(2|theta|)).
    """
    if theta == 0.0:
        return sigma**2 * t
    return sigma**2 * math.expm1(2.0 * theta * t) / (2.0 * theta)


def free_ou_transform(theta: float, sigma: float, t: float, z: complex) -> complex:
    """Transform of the free Ornstein-Uhlenbeck marginal at time t.

    The marginal is the centered semicircle with variance
    :func:`free_ou_variance` (radius^2 = 4 * variance); continuous with
    free BM as theta -> 0.
    """
    if t <= 0:
        raise ValidationError("t must be > 0")
    return free_ou_law(theta, sigma, t).transform(_require_upper(z))


def free_bm_law(theta: float, sigma: float, t: float) -> Semicircle:
    """Free-BM marginal: semicircle with variance sigma^2 t centered at theta t."""
    return Semicircle.from_variance(sigma**2 * t, center=theta * t)


def free_ou_law(theta: float, sigma: float, t: float) -> Semicircle:
    """Free-OU marginal: centered semicircle with the OU variance."""
    return Semicircle.from_variance(free_ou_variance(theta, sigma, t))


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
    if case not in ("free_bm", "free_ou"):
        raise ValidationError("case must be 'free_bm' or 'free_ou'")
    if t - delta_t <= 0:
        raise ValidationError("need t - delta_t > 0 for the centered difference")
    z = _require_upper(z)
    if case == "free_bm":
        transform, law, drift = free_bm_transform, free_bm_law(theta, sigma, t), [theta]
    else:
        transform, law, drift = free_ou_transform, free_ou_law(theta, sigma, t), [0.0, theta]
    dr_dt = (
        transform(theta, sigma, t + delta_t, z) - transform(theta, sigma, t - delta_t, z)
    ) / (2.0 * delta_t)
    diffusion = partial(polyval, c=[sigma / 2.0])
    rhs = ct_evolution_rhs(
        law, z, g2=diffusion, h2=diffusion, b=partial(polyval, c=drift), beta=2.0
    )
    return abs(dr_dt - rhs)
