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

The law families have closed-form transforms, each the Herglotz root of a
quadratic a r^2 + b r + 1 = 0: the semicircle with variance v and center c
has (a, b) = (v, z - c), the Marchenko-Pastur law with scale s and ratio
c has (z s, z + s (1 - c)) (Marchenko-Pastur 1967; the atom is included),
and a mixture combines its components through the reflection identity
int (-x - z)^{-1} nu(dx) = -conj(G_nu(-conj z)). Weighted transforms
E[phi R^k] (the evolution right-hand side) and every other measure still
use quadrature or atom sums.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from .errors import UnsupportedLawOperation, ValidationError
from .empirical import EmpiricalMeasure, _law_atoms
from .limits import (
    MarchenkoPastur,
    PointMass,
    Semicircle,
    _MixtureBase,
)

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

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("z must lie in the open upper half plane")
    return z


def _cquad(f: Callable[[float], complex], a: float, b: float) -> complex:
    re = quad(lambda s: f(s).real, a, b, **_QUAD_OPTS)[0]
    im = quad(lambda s: f(s).imag, a, b, **_QUAD_OPTS)[0]
    return complex(re, im)


def _weighted_atoms(
    atoms: Sequence[tuple[float, float]], z: complex, weight, power: int
) -> complex:
    acc = 0.0 + 0.0j
    for pos, mass in atoms:
        acc += mass * complex(weight(pos)) / (pos - z) ** power
    return acc


def _weighted_semicircle(law: Semicircle, z: complex, weight, power: int) -> complex:
    # x = center + R sin(theta): rho(x) dx = (2/pi) cos^2(theta) d(theta),
    # a smooth integrand including the edges.
    r = law.radius
    c = law.center

    def f(theta: float) -> complex:
        x = c + r * math.sin(theta)
        return (2.0 / math.pi) * math.cos(theta) ** 2 * complex(weight(x)) / (x - z) ** power

    return _cquad(f, -0.5 * math.pi, 0.5 * math.pi)


def _weighted_mp_continuous(
    law: MarchenkoPastur, z: complex, weight, power: int, reflect: bool = False
) -> complex:
    """Integral of weight(x) (x-z)^{-power} over the continuous MP part.

    Uses the edge substitution x = a + (b - a) sin^2(theta), under which
    the integrand is smooth even at a = 0 (where the density has an
    integrable x^{-1/2} singularity). The integral carries the continuous
    part's own mass min(1, ratio). With ``reflect`` the component is the
    reflection x -> -x.
    """
    a, b = law.edges
    y = law.scale
    sign = -1.0 if reflect else 1.0

    if a == 0.0:
        def f(theta: float) -> complex:
            u = b * math.sin(theta) ** 2
            dens = (b / (math.pi * y)) * math.cos(theta) ** 2
            x = sign * u
            return dens * complex(weight(x)) / (x - z) ** power
    else:
        def f(theta: float) -> complex:
            u = a + (b - a) * math.sin(theta) ** 2
            dens = (b - a) ** 2 * math.sin(2.0 * theta) ** 2 / (4.0 * math.pi * u * y)
            x = sign * u
            return dens * complex(weight(x)) / (x - z) ** power

    return _cquad(f, 0.0, 0.5 * math.pi)


def _weighted_transform(mu, z: complex, weight, power: int) -> complex:
    """E[weight(x) (x - z)^{-power}] under a measure or law ``mu``."""
    if isinstance(mu, EmpiricalMeasure):
        lam = mu.atoms
        wv = np.asarray(weight(lam), dtype=float)
        return complex(np.mean(wv / (lam - z) ** power))
    if isinstance(mu, PointMass):
        return _weighted_atoms(mu.atoms(), z, weight, power)
    if isinstance(mu, Semicircle):
        if mu.is_degenerate:
            return _weighted_atoms(mu.atoms(), z, weight, power)
        return _weighted_semicircle(mu, z, weight, power)
    if isinstance(mu, MarchenkoPastur):
        acc = _weighted_atoms(mu.atoms(), z, weight, power)
        if not mu.is_degenerate:
            acc += _weighted_mp_continuous(mu, z, weight, power)
        return acc
    if isinstance(mu, _MixtureBase):
        lam, lam_star, _, pos, neg = mu._components()
        acc = _weighted_atoms(mu.atoms(), z, weight, power)
        if not pos.is_degenerate:
            acc += lam * _weighted_mp_continuous(pos, z, weight, power)
        if not neg.is_degenerate:
            acc += lam_star * _weighted_mp_continuous(
                neg, z, weight, power, reflect=True
            )
        return acc
    if getattr(mu, "has_density", False):
        lo, hi = mu.bounds()
        acc = _weighted_atoms(_law_atoms(mu), z, weight, power)
        acc += _cquad(
            lambda x: float(mu.density(x)) * complex(weight(x)) / (x - z) ** power, lo, hi
        )
        return acc
    raise UnsupportedLawOperation(
        f"cannot integrate against {type(mu).__name__} (no density or atoms)"
    )


def _one(x):
    arr = np.asarray(x, dtype=float)
    return np.ones_like(arr) if arr.ndim else 1.0


def _herglotz_root(num_plus: complex, num_minus: complex, denom: complex, z: complex) -> complex:
    roots = [num_plus / denom, num_minus / denom]
    for r in roots:
        if r.imag > 0:
            return r
    # Degenerate boundary (not reachable for Im z > 0): nearest to -1/z.
    target = -1.0 / z
    return min(roots, key=lambda r: abs(r - target))


def _quadratic_root(a: complex, b: complex, z: complex) -> complex:
    """The root with Im r > 0 of a r^2 + b r + 1 = 0; -1/b when a = 0."""
    if a == 0:
        return -1.0 / b
    disc = cmath.sqrt(b * b - 4.0 * a)
    return _herglotz_root(-b + disc, -b - disc, 2.0 * a, z)


def _mp_transform(law: MarchenkoPastur, z: complex) -> complex:
    if law.is_degenerate:
        return -1.0 / z
    s = law.scale
    return _quadratic_root(z * s, z + s * (1.0 - law.ratio), z)


def cauchy_transform(mu, z: complex) -> complex:
    """G(z) = int (x - z)^{-1} mu(dx), for Im z > 0.

    Closed form for the semicircle, Marchenko-Pastur and mixture laws;
    any other measure goes through :func:`_weighted_transform`.
    """
    z = _require_upper(z)
    if isinstance(mu, Semicircle):
        return _quadratic_root(mu.variance, z - mu.center, z)
    if isinstance(mu, MarchenkoPastur):
        return _mp_transform(mu, z)
    if isinstance(mu, _MixtureBase):
        lam, lam_star, gamma, pos, neg = mu._components()
        reflected = _mp_transform(neg, -z.conjugate()).conjugate()
        return -gamma / z + lam * _mp_transform(pos, z) - lam_star * reflected
    return _weighted_transform(mu, z, _one, 1)


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
    z = _require_upper(z)
    return _quadratic_root(sigma**2 * t, z - theta * t, z)


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
    z = _require_upper(z)
    return _quadratic_root(free_ou_variance(theta, sigma, t), z, z)


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
