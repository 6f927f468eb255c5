"""Tests for eigenflow.cauchy.

The transform convention G(z) = int dmu(x)/(x - z) is pinned on point
masses and Laurent tails, the Herglotz property is asserted on a grid,
density recovery (Stieltjes inversion) is checked against exact
densities, and the free-diffusion closed forms are verified against
their defining quadratic equation, shift covariance, and the evolution
equation itself via finite differences.
"""

from functools import partial

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from eigenflow import (
    HierarchyLaw,
    MarchenkoPastur,
    PointMass,
    Semicircle,
    UnsupportedLawOperation,
    ValidationError,
    cauchy_transform,
    ct_evolution_rhs,
    free_bm_law,
    free_bm_transform,
    free_ou_law,
    free_ou_transform,
    free_ou_variance,
    free_pde_residual,
    mp_mixture_three,
    mp_mixture_two,
    stieltjes_invert,
)
from eigenflow.cauchy import _one, _weighted_transform

LAWS = [
    Semicircle(1.0, beta=2),
    MarchenkoPastur(2.5, 1.0, beta=2),
    MarchenkoPastur(1.0, 1.0, beta=2),  # atom of mass 1/2 at 0
    mp_mixture_two(0.5, t=1.0),
    mp_mixture_three(2.0, 3.0, t=0.8),
]


# ---------------------------------------------------------------------------
# transform convention


def test_point_mass_transform():
    assert np.isclose(cauchy_transform(PointMass(0.0), 2.0j), -1.0 / 2.0j)
    z = 1.3 + 0.7j
    assert np.isclose(cauchy_transform(PointMass(0.5), z), 1.0 / (0.5 - z))


def test_poisson_kernel_of_point_mass():
    a, eps = 0.3, 0.05
    for x in (-1.0, 0.3, 2.0):
        val = cauchy_transform(PointMass(a), complex(x, eps))
        assert np.isclose(val.imag, eps / ((x - a) ** 2 + eps**2), rtol=1e-12)


def test_requires_upper_half_plane():
    with pytest.raises(ValidationError):
        cauchy_transform(Semicircle(1.0, beta=2), 1.0 - 0.5j)
    with pytest.raises(ValidationError):
        cauchy_transform(Semicircle(1.0, beta=2), 2.0 + 0.0j)


@pytest.mark.parametrize("law", LAWS, ids=["semicircle", "mp", "mp_atom", "mix2", "mix3"])
def test_laurent_tail_matches_moments(law):
    z = 60.0 + 3.0j
    seq = law.moments(6)
    partial = -sum(seq[k] / z ** (k + 1) for k in range(7))
    assert abs(cauchy_transform(law, z) - partial) <= 1e-9


@pytest.mark.parametrize("law", LAWS, ids=["semicircle", "mp", "mp_atom", "mix2", "mix3"])
def test_herglotz_property(law):
    for re in np.linspace(-3.0, 3.0, 13):
        for im in (0.1, 1.0):
            val = cauchy_transform(law, complex(re, im))
            assert val.imag > 0.0


def test_semicircle_transform_closed_form():
    # variance v: G(z) = (-z + sqrt(z^2 - 4v)) / (2v), principal branch
    law = Semicircle(1.0, beta=2)
    for z in (2.0j, 1.0 + 1.0j, -2.5 + 0.3j):
        root = np.sqrt(z * z - 4.0)
        if (root / z).real < 0:
            root = -root
        assert np.isclose(cauchy_transform(law, z), (-z + root) / 2.0, atol=1e-12)


ORACLE_LAWS = LAWS + [
    Semicircle(0.3, beta=1, center=0.4),
    MarchenkoPastur(0.5, 0.7),  # ratio 1/4: atom of mass 3/4 at 0
    MarchenkoPastur(0.0, 1.0),  # degenerate: alpha = 0
    MarchenkoPastur(2.5, 0.0),  # degenerate: t = 0
    mp_mixture_two(0.0, 0.3),
]


@pytest.mark.parametrize(
    "law",
    ORACLE_LAWS,
    ids=["semicircle", "mp", "mp_atom", "mix2", "mix3",
         "semicircle_centered", "mp_small_ratio", "mp_alpha0", "mp_t0", "mix2_alpha0"],
)
def test_closed_form_transform_matches_quadrature(law):
    """The closed-form G of each law family equals the quadrature of
    int (x - z)^{-1} mu(dx), also close to the support."""
    lo, hi = law.bounds()
    for re in np.linspace(lo - 1.0, hi + 1.0, 17):
        for eps in (1.0, 0.05, 0.00625, 1e-3):
            z = complex(re, eps)
            ref = _weighted_transform(law, z, _one, 1)
            assert abs(cauchy_transform(law, z) - ref) <= 1e-10 * abs(ref), (re, eps)


IDENTITY_LAWS = ORACLE_LAWS + [Semicircle(0.0, beta=2), PointMass(0.7)]
PHI = [0.3, -0.7, 0.5, 0.2]  # phi(x) = 0.3 - 0.7 x + 0.5 x^2 + 0.2 x^3


def _polynomial_identity(law, z):
    """E[phi R] for polynomial phi, exactly: phi(z) G(z) plus the mean of
    (phi(x) - phi(z)) / (x - z) = sum_k phi_k sum_{j<k} x^j z^{k-1-j}."""
    m = law.moments(len(PHI) - 1)
    tail = sum(c * sum(m[j] * z ** (k - 1 - j) for j in range(k)) for k, c in enumerate(PHI))
    return polyval(z, PHI) * cauchy_transform(law, z) + tail


@pytest.mark.parametrize(
    "law",
    IDENTITY_LAWS,
    ids=["semicircle", "mp", "mp_atom", "mix2", "mix3", "semicircle_centered",
         "mp_small_ratio", "mp_alpha0", "mp_t0", "mix2_alpha0", "semicircle_t0", "point_mass"],
)
def test_weighted_transform_polynomial_identity(law):
    """Every law's weighted transform against the exact identity for a
    polynomial weight (power 1) and its z-derivative, by a 4th-order central
    difference with h = 1e-3 (power 2, since d/dz R = R^2)."""
    phi = partial(polyval, c=PHI)
    h = 1e-3
    for z in (1.0j, 0.5 + 0.5j, -1.2 + 0.8j, 2.0 + 0.5j, 1.5 + 1.5j):
        exact = _polynomial_identity(law, z)
        assert abs(_weighted_transform(law, z, phi, 1) - exact) <= 1e-12 * abs(exact), z
        deriv = (
            8.0 * (_polynomial_identity(law, z + h) - _polynomial_identity(law, z - h))
            - (_polynomial_identity(law, z + 2 * h) - _polynomial_identity(law, z - 2 * h))
        ) / (12.0 * h)
        assert abs(_weighted_transform(law, z, phi, 2) - deriv) <= 1e-9 * abs(deriv), z


# ---------------------------------------------------------------------------
# Stieltjes inversion


def test_invert_semicircle_density():
    law = Semicircle(1.0, beta=2)
    grid = np.linspace(-1.9, 1.9, 97)
    est = stieltjes_invert(
        lambda z: cauchy_transform(law, z), grid, (0.08, 0.04, 0.02, 0.01)
    )
    exact = law.density(grid)
    assert np.max(np.abs(est - exact)) <= 5e-3


def test_invert_mp_density():
    law = MarchenkoPastur(1.0, 1.0, beta=1)  # edges (0, 4), no atom
    grid = np.linspace(0.1, 3.9, 77)
    est = stieltjes_invert(
        lambda z: cauchy_transform(law, z), grid, (0.08, 0.04, 0.02, 0.01)
    )
    exact = law.density(grid)
    assert np.max(np.abs(est - exact)) <= 1e-2


def test_invert_vanishes_outside_support():
    law = Semicircle(1.0, beta=2)
    grid = np.array([-3.5, 3.0, 4.0])
    est = stieltjes_invert(
        lambda z: cauchy_transform(law, z), grid, (0.08, 0.04, 0.02, 0.01)
    )
    assert np.max(np.abs(est)) <= 1e-3


# ---------------------------------------------------------------------------
# evolution equation of the transform


def _fd_time_derivative(law_at, z, t, delta=1e-4):
    return (cauchy_transform(law_at(t + delta), z) - cauchy_transform(law_at(t - delta), z)) / (
        2.0 * delta
    )


def test_ct_evolution_zero_flow():
    rhs = ct_evolution_rhs(
        Semicircle(1.0, beta=2), 1.0 + 1.0j,
        lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x,
    )
    assert rhs == 0.0


def test_ct_evolution_rejects_other_laws():
    """Only the package's measures and law families integrate: another
    object is refused even when it carries a density."""

    class Uniform:
        has_density = True

        def bounds(self):
            return 0.0, 1.0

        def density(self, x):
            return np.ones_like(np.asarray(x, dtype=float))

    for law in (Uniform(), HierarchyLaw((0.0,), (1.0,), (1.0,), beta=2, a=0.0)):
        with pytest.raises(UnsupportedLawOperation):
            ct_evolution_rhs(law, 1.0 + 1.0j, _one, _one, _one)


def test_ct_evolution_matches_fd_semicircle():
    t = 0.64
    for z in (1.0j, 1.0 + 1.0j, 2.0j):
        fd = _fd_time_derivative(lambda s: Semicircle(s, beta=2), z, t)
        rhs = ct_evolution_rhs(
            Semicircle(t, beta=2), z,
            lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x,
            beta=2.0,
        )
        assert abs(fd - rhs) <= 1e-6, z


def test_ct_evolution_matches_fd_mp():
    alpha, t = 2.5, 0.8
    for z in (1.0j, 1.0 + 1.0j, 3.0 + 2.0j):
        fd = _fd_time_derivative(lambda s: MarchenkoPastur(alpha, s, beta=2), z, t)
        rhs = ct_evolution_rhs(
            MarchenkoPastur(alpha, t, beta=2), z,
            lambda x: np.asarray(x, dtype=float),
            lambda x: 1.0 + 0.0 * x,
            lambda x: alpha + 0.0 * x,
            beta=2.0,
        )
        assert abs(fd - rhs) <= 1e-5, z


# ---------------------------------------------------------------------------
# free diffusion closed forms


def test_free_bm_matches_semicircle():
    for z in (2.0j, 1.0 + 0.5j, -1.5 + 2.0j):
        assert abs(
            free_bm_transform(0.0, 1.0, 1.0, z) - cauchy_transform(Semicircle(1.0, beta=2), z)
        ) <= 1e-10


def test_free_bm_satisfies_quadratic():
    theta, sigma, t = 0.3, 1.2, 0.7
    for z in (1.0j, 2.0 + 1.0j, -1.0 + 0.5j):
        r = free_bm_transform(theta, sigma, t, z)
        assert abs(sigma**2 * t * r**2 + (z - theta * t) * r + 1.0) <= 1e-12
        assert r.imag > 0.0


def test_free_bm_shift_covariance():
    theta, sigma, t = 0.8, 1.0, 0.5
    for z in (1.0j, 1.0 + 1.0j):
        assert np.isclose(
            free_bm_transform(theta, sigma, t, z),
            free_bm_transform(0.0, sigma, t, z - theta * t),
            atol=1e-12,
        )


def test_free_ou_variance_closed_form():
    assert np.isclose(free_ou_variance(0.0, 1.0, 0.5), 0.5)
    theta, sigma, t = -1.0, 1.0, 0.8
    assert np.isclose(
        free_ou_variance(theta, sigma, t), sigma**2 * np.expm1(2 * theta * t) / (2 * theta)
    )
    # theta -> 0 continuity
    assert np.isclose(free_ou_variance(1e-12, 1.0, 0.5), 0.5, atol=1e-9)


def test_free_ou_long_time_radius():
    assert np.isclose(free_ou_law(-1.0, 1.0, 50.0).radius, np.sqrt(2.0), atol=1e-12)


def test_free_ou_transform_matches_law():
    theta, sigma, t = -1.0, 1.0, 0.6
    law = free_ou_law(theta, sigma, t)
    for z in (1.0j, 0.5 + 0.5j):
        assert abs(free_ou_transform(theta, sigma, t, z) - cauchy_transform(law, z)) <= 1e-10


def test_free_pde_residuals_small():
    for z in (1.0j, 1.0 + 1.0j):
        assert free_pde_residual("free_bm", 0.5, z, theta=0.3, sigma=1.0) <= 1e-4
        assert free_pde_residual("free_ou", 0.5, z, theta=-1.0, sigma=1.0) <= 1e-4
    with pytest.raises(ValidationError):
        free_pde_residual("heat", 0.5, 1.0j)


def test_free_bm_rigid_translation_at_zero_sigma():
    # sigma = 0: the law is a drifting point mass, G(z) = -1/(z - theta t)
    theta, t = 0.5, 2.0
    for z in (1.0j, 2.0 + 1.0j):
        assert np.isclose(free_bm_transform(theta, 0.0, t, z), -1.0 / (z - theta * t), atol=1e-12)
        assert np.isclose(
            cauchy_transform(free_bm_law(theta, 0.0, t), z), -1.0 / (z - theta * t), atol=1e-12
        )
