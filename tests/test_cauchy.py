"""Tests for eigenflow.cauchy.

The transform convention G(z) = int dmu(x)/(x - z) is pinned on point
masses and Laurent tails, the Herglotz property is asserted on a grid,
density recovery (Stieltjes inversion) is checked against exact
densities, the weighted transforms of the laws against SciPy's adaptive
quadrature (``cauchy_oracles``) and exact polynomial identities, and the
free-diffusion closed forms are verified against their defining quadratic
equation, shift covariance, and the evolution equation itself via finite
differences.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

import cauchy_oracles

from eigenflow import (
    EmpiricalMeasure,
    HierarchyLaw,
    MarchenkoPastur,
    MPMixture,
    NumericalError,
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
from eigenflow.cauchy import _weighted_transform
from eigenflow.limits import _theta_trapezoid

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


def test_empirical_transform_is_its_atom_sum_bit_for_bit():
    """An empirical measure answers its own transform: the mean of
    1/(atom - z), the same bits for one z and for an array of z."""
    m = EmpiricalMeasure(np.array([3.0, -1.0, 0.2, 0.2, 0.4]))
    z = np.linspace(-2.0, 4.0, 7) + 1j * np.array([[1e-3], [0.5], [20.0]])
    got = cauchy_transform(m, z)
    assert np.array_equal(got, np.mean(1 / (m.atoms - z[..., None]), axis=-1))
    for v in (0.2 + 1e-3j, -1.5 + 2.0j):
        assert cauchy_transform(m, v) == np.mean(1 / (m.atoms - v))


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
    """The closed-form G of each law family equals SciPy's quadrature of
    int (x - z)^{-1} mu(dx), also close to the support."""
    lo, hi = law.bounds()
    for re in np.linspace(lo - 1.0, hi + 1.0, 17):
        for eps in (1.0, 0.05, 0.00625, 1e-3):
            z = complex(re, eps)
            ref = cauchy_oracles.weighted_transform(law, np.ones_like, z, 1)
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


IDENTITY_IDS = ["semicircle", "mp", "mp_atom", "mix2", "mix3", "semicircle_centered",
                "mp_small_ratio", "mp_alpha0", "mp_t0", "mix2_alpha0", "semicircle_t0",
                "point_mass"]


@pytest.mark.parametrize("law", IDENTITY_LAWS, ids=IDENTITY_IDS)
def test_weighted_transform_matches_quadrature_oracle(law):
    """The trapezoid rule in theta against SciPy's adaptive quadrature, for
    weights 1 and phi at powers 1 and 2, across and beside the support at
    Im z = 1 and 0.1. (On finer real grids ``quad`` itself warns of roundoff
    at a few power-2 points at Im z = 0.1, so it is no reference there.)"""
    phi = partial(polyval, c=PHI)
    lo, hi = law.bounds()
    for re in np.linspace(lo - 1.0, hi + 1.0, 7):
        for eps in (1.0, 0.1):
            z = complex(re, eps)
            for weight in (np.ones_like, phi):
                for power in (1, 2):
                    got = law.weighted_transform(weight, z, power)
                    ref = cauchy_oracles.weighted_transform(law, weight, z, power)
                    assert abs(got - ref) <= 1e-12 * abs(ref), (z, weight, power)


def _transform_derivative(law, z):
    """G'(z) by implicit differentiation of the family's quadratic
    a r^2 + b r + 1 = 0: r' = -(a' r^2 + b' r) / (2 a r + b)."""
    if isinstance(law, Semicircle):
        r = law.transform(z)
        return -r / (2.0 * law.variance * r + z - law.center)
    if isinstance(law, MarchenkoPastur):
        r, s = law.transform(z), law.scale
        return -(s * r * r + r) / (2.0 * z * s * r + z + s * (1.0 - law.ratio))
    assert isinstance(law, MPMixture)
    pos, neg = law.components()
    reflected = np.conj(_transform_derivative(neg, -np.conj(z)))
    return law.gamma / z**2 + law.lam * _transform_derivative(pos, z) + law.lam_star * reflected


def _polynomial_identity_derivative(law, z):
    """d/dz of :func:`_polynomial_identity`, exactly: phi'(z) G + phi(z) G'
    plus the z-derivative of its tail."""
    m = law.moments(len(PHI) - 1)
    tail = sum(
        c * sum(m[j] * (k - 1 - j) * z ** (k - 2 - j) for j in range(k - 1))
        for k, c in enumerate(PHI)
    )
    return (
        polyval(z, polyder(PHI)) * cauchy_transform(law, z)
        + polyval(z, PHI) * _transform_derivative(law, z)
        + tail
    )


NEAR_AXIS_LAWS = {
    "semicircle": Semicircle(1.0),
    "mp": MarchenkoPastur(2.5, 1.0),
    "mix3": mp_mixture_three(2.0, 3.0, 0.8),
}


@pytest.mark.parametrize("law", NEAR_AXIS_LAWS.values(), ids=NEAR_AXIS_LAWS.keys())
def test_weighted_transform_near_the_axis_converges_or_raises(law):
    """At nine real parts across the support, at Im z = 1e-2 and 1e-3, each
    call either meets the exact polynomial identity (power 1) or its exact
    z-derivative (power 2) to 1e-12 relative, or raises NumericalError
    naming the law and z; no call warns. At Im z = 1e-2 every power-1 call
    converges."""
    phi = partial(polyval, c=PHI)
    lo, hi = law.bounds()
    for eps in (1e-2, 1e-3):
        for re in np.linspace(lo, hi, 9):
            z = complex(re, eps)
            for power, exact in ((1, _polynomial_identity), (2, _polynomial_identity_derivative)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        got = law.weighted_transform(phi, z, power)
                    except NumericalError as err:
                        assert repr(law) in str(err) and str(z) in str(err)
                        assert (eps, power) != (1e-2, 1), z
                        continue
                want = exact(law, z)
                assert abs(got - want) <= 1e-12 * abs(want), (z, power)


def test_theta_trapezoid_converges_geometrically_or_raises():
    """The Poisson kernel (1 - r^2) / (1 - 2 r cos 2 theta + r^2) integrates
    to pi/2 on [0, pi/2] (its denominator is written (1 - r)^2 + 4 r
    sin^2 theta, which rounds well near the peak). Each doubling evaluates
    only the new nodes; a kernel too sharp for 2^16 intervals raises,
    naming what it integrated."""
    nodes = []

    def poisson(r):
        def f(theta):
            nodes.append(theta.size)
            return (1.0 - r * r) / ((1.0 - r) ** 2 + 4.0 * r * np.sin(theta) ** 2)

        return f

    assert abs(_theta_trapezoid(poisson(0.99), "kernel") - 0.5 * math.pi) <= 1e-14
    assert nodes[0] == 257 and nodes[1:] == [256 * 2**j for j in range(len(nodes) - 1)]
    with pytest.raises(NumericalError, match="sharp kernel did not converge in 65536"):
        _theta_trapezoid(poisson(1.0 - 1e-4), "sharp kernel")


def test_theta_trapezoid_stops_at_the_roundoff_floor():
    """f = 1 + K cos 2 theta integrates to pi/2 exactly at every n, so its
    sums differ only by roundoff, here a relative error 5e-15 of |f| that
    flips sign on every call. At K = 100 (condition number h sum|f| / |T|
    about 64) the sums never meet to 1e-13 but meet within the roundoff
    floor 16 eps h sum |f|, which is below 1e-12 of the value, and the value
    returns; at K = 1000 the floor is above that, and the call raises naming
    the condition number, after three calls of f instead of nine."""

    def kernel(k, calls):
        def f(theta):
            calls.append(theta.size)
            g = 1.0 + k * np.cos(2.0 * theta)
            return g + (-1.0) ** len(calls) * 5e-15 * np.abs(g)

        return f

    calls = []
    assert abs(_theta_trapezoid(kernel(100.0, calls), "k100") - 0.5 * math.pi) <= 1e-12 * math.pi
    calls = []
    with pytest.raises(NumericalError, match=r"k1000 has roundoff above 1e-12 of its value "
                       r"\(condition number h sum\|f\| / \|T\| = 6\d\d\)"):
        _theta_trapezoid(kernel(1000.0, calls), "k1000")
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# transforms over arrays of z

ARRAY_MEASURES = {
    "semicircle": Semicircle(1.0, beta=2),
    "mp": MarchenkoPastur(2.5, 1.0, beta=2),
    "mp_atom": MarchenkoPastur(1.0, 1.0, beta=2),
    "mp_alpha0": MarchenkoPastur(0.0, 1.0, beta=2),
    "mp_t0": MarchenkoPastur(2.5, 0.0, beta=2),
    "mix2": mp_mixture_two(0.5),
    "mix2_alpha0": mp_mixture_two(0.0, 0.3),
    "mix3": mp_mixture_three(2.0, 3.0, t=0.8),
    "point_mass": PointMass(0.4),
    "empirical": EmpiricalMeasure(np.array([-1.0, 0.2, 0.2, 0.4, 3.0])),
}


@pytest.mark.parametrize("mu", ARRAY_MEASURES.values(), ids=ARRAY_MEASURES.keys())
def test_array_transform_equals_the_scalar_calls(mu):
    """An array of z (here 2-d, across and beside every support, down to
    Im z = 1e-3) gives the scalar calls' values in the same shape."""
    z = np.linspace(-5.0, 7.0, 25) + 1j * np.array([[1e-3], [0.05], [1.0], [10.0]])
    got = cauchy_transform(mu, z)
    assert got.shape == z.shape
    want = np.array([[cauchy_transform(mu, complex(v)) for v in row] for row in z])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.all(got.imag > 0)


@pytest.mark.parametrize("mu", ARRAY_MEASURES.values(), ids=ARRAY_MEASURES.keys())
def test_array_transform_rejects_any_point_off_the_upper_half_plane(mu):
    for bad in (0.0, -1e-3):
        z = np.array([1.0 + 1.0j, complex(0.5, bad), 2.0 + 0.1j])
        with pytest.raises(ValidationError):
            cauchy_transform(mu, z)


def test_stieltjes_invert_calls_its_transform_once_per_eps():
    law = Semicircle(1.0, beta=2)
    grid = np.linspace(-1.9, 1.9, 97)
    eps = (0.08, 0.04, 0.02, 0.01)
    shapes = []

    def transform(z):
        shapes.append(np.shape(z))
        return cauchy_transform(law, z)

    stieltjes_invert(transform, grid, eps)
    assert shapes == [grid.shape] * len(eps)


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


@pytest.mark.parametrize(
    "eps",
    [(0.04, float("nan")), (float("inf"), 0.04), (0.08, 0.04, float("nan"), 0.01)],
    ids=["nan_last", "inf_first", "nan_inside"],
)
def test_stieltjes_invert_rejects_non_finite_eps(eps):
    law = Semicircle(1.0, beta=2)
    with pytest.raises(ValidationError, match="eps_list must be finite"):
        stieltjes_invert(lambda z: cauchy_transform(law, z), np.linspace(-1.0, 1.0, 5), eps)


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
            ct_evolution_rhs(law, 1.0 + 1.0j, np.ones_like, np.ones_like, np.ones_like)


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


@pytest.mark.parametrize(
    "mu",
    [Semicircle(1.0), EmpiricalMeasure(np.array([-1.0, 0.2, 0.2, 0.4, 3.0]))],
    ids=["semicircle", "empirical"],
)
def test_ct_evolution_rhs_answers_an_array_of_z_elementwise(mu):
    """An array of z gives, in z's shape, the scalar calls' values bit for bit."""
    coefficients = (lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + x * x, lambda x: 0.5 - x)
    for z in (np.array([1j, 2j]), np.array([[0.5 + 1j, -1.0 + 0.5j], [2.0 + 0.1j, 3j]])):
        got = ct_evolution_rhs(mu, z, *coefficients)
        want = np.array([ct_evolution_rhs(mu, v, *coefficients) for v in z.ravel()])
        assert got.shape == z.shape
        assert got.tobytes() == want.reshape(z.shape).tobytes()
    assert isinstance(ct_evolution_rhs(mu, 1j, *coefficients), complex)


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


@pytest.mark.parametrize(
    "delta_t", [0.0, float("nan"), float("inf"), 0.5], ids=["zero", "nan", "inf", "t"]
)
def test_free_pde_residual_needs_a_finite_step_inside_0_t(delta_t):
    with pytest.raises(ValidationError, match="need 0 < delta_t < t, both finite"):
        free_pde_residual("free_ou", 0.5, 1.0j, delta_t=delta_t, theta=-1.0)


def test_free_bm_rigid_translation_at_zero_sigma():
    # sigma = 0: the law is a drifting point mass, G(z) = -1/(z - theta t)
    theta, t = 0.5, 2.0
    for z in (1.0j, 2.0 + 1.0j):
        assert np.isclose(free_bm_transform(theta, 0.0, t, z), -1.0 / (z - theta * t), atol=1e-12)
        assert np.isclose(
            cauchy_transform(free_bm_law(theta, 0.0, t), z), -1.0 / (z - theta * t), atol=1e-12
        )
