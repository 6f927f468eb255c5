"""Tests for eigenflow.limits.

Every moment engine is verified against an independent oracle computed in
this file: density quadrature (scipy.integrate.quad) for the semicircle
and Marchenko-Pastur families, a hand-rolled RK4 integration of the
closed moment hierarchy for the recursion solutions, finite-difference
checks of the mixture hierarchy, and hand values everywhere the spec-free
mathematics admits them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from eigenflow import (
    GeometricLaw,
    JacobiLaw,
    MarchenkoPastur,
    MomentSequence,
    NumericalError,
    PointMass,
    Semicircle,
    TruncationError,
    UnsupportedLawOperation,
    ValidationError,
    generic_moment_ode,
    geometric_moments,
    geometric_w,
    jacobi_moments,
    mp_mixture_three,
    mp_mixture_two,
    mp_moments,
    mp_params,
    semicircle_moments,
)
from eigenflow.limits import (
    _invert_mesh,
    _midpoints,
    _MESH_POINTS,
    _mixture_unit_mesh,
    _mp_shape_mesh,
    _semicircle_index_mesh,
    _shape_quantiles,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def _law_moment_quadrature(law, k, lo=None, hi=None):
    """Independent moment oracle: integrate x^k against density + atoms."""
    if lo is None or hi is None:
        lo, hi = law.bounds()
    total = 0.0
    segments = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    for a, b in segments:
        val, _ = integrate.quad(
            lambda x: x**k * float(law.density(np.array([x]))[0]),
            a,
            b,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-11,
        )
        total += val
    for pos, mass in law.atoms():
        total += mass * pos**k
    return total


def _rk4_moment_hierarchy(alpha, beta, t_final, k_max, steps=2000):
    """Independent RK4 solution of the square-root-flow moment hierarchy

        dm_k/dt = alpha k m_{k-1} + beta k sum_{i=0}^{k-2} m_{i+1} m_{k-2-i}
    """

    def rhs(m):
        out = np.zeros_like(m)
        for k in range(1, k_max + 1):
            conv = sum(m[i + 1] * m[k - 2 - i] for i in range(k - 1))
            out[k] = alpha * k * m[k - 1] + beta * k * conv
        return out

    m = np.zeros(k_max + 1)
    m[0] = 1.0
    dt = t_final / steps
    for _ in range(steps):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * dt * k1)
        k3 = rhs(m + 0.5 * dt * k2)
        k4 = rhs(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return m


# ---------------------------------------------------------------------------
# semicircle


def test_semicircle_moments_hand_values():
    # variance is beta t / 2 (the interaction term carries a beta/2 factor),
    # and even moments are Catalan numbers times powers of the variance
    assert np.allclose(semicircle_moments(1.0, 2, 8).values, [1, 0, 1, 0, 2, 0, 5, 0, 14])
    assert np.allclose(semicircle_moments(0.0, 2, 4).values, [1, 0, 0, 0, 0])
    assert np.allclose(semicircle_moments(4.0, 2, 4).values, [1, 0, 4, 0, 32])
    assert np.allclose(semicircle_moments(4.0, 1, 4).values, [1, 0, 2, 0, 8])


def test_semicircle_moments_center_shift():
    seq = semicircle_moments(1.0, 2, 2, center=1.5)
    assert np.isclose(seq[1], 1.5)
    assert np.isclose(seq[2], 1.0 + 1.5**2)


def test_semicircle_density_quadrature_matches_moments():
    law = Semicircle(0.7, beta=2)
    seq = law.moments(6)
    for k in range(7):
        assert np.isclose(_law_moment_quadrature(law, k), seq[k], atol=1e-9)


def test_semicircle_law_geometry():
    law = Semicircle(1.0, beta=2)
    assert np.allclose(law.bounds(), (-2.0, 2.0))
    assert np.isclose(law.radius, 2.0)
    assert np.isclose(law.variance, 1.0)
    assert np.isclose(float(law.cdf(0.0)), 0.5)
    assert np.isclose(float(law.density(np.array([0.0]))[0]), 1.0 / np.pi)
    assert float(law.cdf(-2.5)) == 0.0 and float(law.cdf(2.5)) == 1.0


def test_semicircle_quantile_atoms_reproduce_moments():
    law = Semicircle(1.0, beta=2)
    atoms = law.quantile_atoms(4000)
    assert np.all(np.diff(atoms) >= 0)
    assert abs(np.mean(atoms**2) - 1.0) <= 2e-3


# ---------------------------------------------------------------------------
# Marchenko-Pastur


def test_mp_params_hand_values():
    assert np.allclose(mp_params(1.0), (0.0, 4.0))
    assert np.allclose(mp_params(0.0), (1.0, 1.0))
    assert np.allclose(mp_params(4.0), (1.0, 9.0))


def test_mp_moments_trivials():
    assert np.allclose(mp_moments(2.5, 2.0, 0.0, 3).values, [1, 0, 0, 0])
    for alpha, beta, t in ((1.0, 2.0, 1.0), (2.5, 2.0, 0.8), (0.5, 1.0, 2.0)):
        assert np.isclose(mp_moments(alpha, beta, t, 1)[1], alpha * t)


def test_mp_moments_beta_one_catalan():
    assert np.allclose(mp_moments(1.0, 1.0, 1.0, 6).values, CATALAN)


def test_mp_moments_match_rk4_hierarchy():
    for alpha, beta in ((1.0, 2.0), (2.5, 2.0), (1.0, 1.0), (0.5, 1.0)):
        exact = mp_moments(alpha, beta, 1.0, 6).values
        rk4 = _rk4_moment_hierarchy(alpha, beta, 1.0, 6)
        assert np.allclose(exact, rk4, rtol=1e-9, atol=1e-9)


def test_mp_second_moment_closed_form():
    for alpha, beta, t in ((2.5, 2.0, 1.0), (1.0, 1.0, 0.5), (0.3, 1.0, 2.0)):
        assert np.isclose(
            mp_moments(alpha, beta, t, 2)[2], alpha**2 * t**2 + beta * alpha * t**2
        )


def test_mp_moment_polynomials_nonnegative_coefficients():
    for alpha, beta in ((0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.5, 2.0), (4.0, 2.0)):
        seq = mp_moments(alpha, beta, 1.0, 10)
        for poly in seq.polys:
            assert all(c >= 0 for c in poly)


def test_mp_density_quadrature_matches_recursion():
    # The continuous-plus-atom law reproduces the recursion moments at both
    # field parameters, including the atom regime alpha < beta.
    for alpha, beta, t in ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.5, 2.0, 0.8)):
        law = MarchenkoPastur(alpha, t, beta=int(beta))
        seq = mp_moments(alpha, beta, t, 5)
        for k in range(6):
            assert np.isclose(
                _law_moment_quadrature(law, k), seq[k], rtol=1e-8, atol=1e-8
            ), (alpha, beta, t, k)


def test_mp_law_geometry_and_atom():
    law = MarchenkoPastur(1.0, 1.0, beta=2)  # ratio 1/2: atom of mass 1/2 at 0
    assert law.atoms() == [(0.0, 0.5)]
    lo, hi = law.edges
    assert np.allclose((lo, hi), (2.0 * (1 - np.sqrt(0.5)) ** 2, 2.0 * (1 + np.sqrt(0.5)) ** 2))
    total, _ = integrate.quad(lambda x: float(law.density(np.array([x]))[0]), lo, hi, limit=400)
    assert abs(total + 0.5 - 1.0) <= 1e-8
    # supercritical: no atom
    assert MarchenkoPastur(2.5, 1.0, beta=2).atoms() == []


def test_mp_cdf_monotone_normalized():
    law = MarchenkoPastur(2.5, 1.0, beta=2)
    xs = np.linspace(law.bounds()[0] - 0.5, law.bounds()[1] + 0.5, 200)
    cdf = law.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= 1e-8


def _per_law_mp_mesh(law):
    """The CDF mesh built from the law's own edges and scale (the formula
    the shared unit-scale shape mesh replaces), atom prepended."""
    a, b = law.edges
    theta = np.linspace(0.0, 0.5 * math.pi, 20001)
    xs = a + (b - a) * np.sin(theta) ** 2
    if a == 0.0:
        integrand = (b / (math.pi * law.scale)) * np.cos(theta) ** 2
    else:
        integrand = (b - a) ** 2 * np.sin(2.0 * theta) ** 2 / (4.0 * math.pi * xs * law.scale)
    fs = np.concatenate(([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(theta))))
    if law.atom_mass > 0.0:
        xs = np.concatenate(([0.0, 0.0], xs))
        fs = np.concatenate(([0.0, law.atom_mass], law.atom_mass + fs))
    return xs, fs


@pytest.mark.parametrize(
    "alpha, t, beta",
    [(2.5, 1.0, 2), (2.5, 0.37, 2), (3.0, 1.7, 1), (1.0, 0.6, 1), (2.0, 2.5, 2), (1.0, 0.8, 2)],
    ids=["ratio>1", "ratio>1-t0.37", "ratio>1-beta1", "ratio=1", "ratio=1-beta2", "ratio<1-atom"],
)
def test_mp_shape_mesh_matches_per_law_mesh(alpha, t, beta):
    law = MarchenkoPastur(alpha, t, beta)
    xs, fs = law._mesh()
    ref_xs, ref_fs = _per_law_mp_mesh(law)
    assert xs.shape == ref_xs.shape
    assert np.allclose(xs, ref_xs, rtol=1e-12, atol=0.0)
    assert np.allclose(fs, ref_fs, rtol=1e-12, atol=0.0)


def test_mp_shape_mesh_dilates_with_time():
    base = mp_mixture_two(0.5, 1.0).quantile_atoms(400)
    for t in (0.005, 0.3, 1.0, 2.75):
        atoms = mp_mixture_two(0.5, t).quantile_atoms(400)
        assert np.allclose(atoms, t * base, rtol=1e-12, atol=0.0)


def test_mp_shape_mesh_is_read_only():
    law = MarchenkoPastur(2.5, 1.0, beta=2)
    for arr in _mp_shape_mesh(law.ratio) + (law._mesh()[1],):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    # another time of the same family shares the CDF values
    assert MarchenkoPastur(2.5, 0.4, beta=2)._mesh()[1] is law._mesh()[1]


_MP_CASES = pytest.mark.parametrize(
    "alpha, t, beta",
    [(2.5, 0.37, 2), (3.0, 1.7, 1), (1.0, 0.6, 1), (2.0, 2.5, 2), (1.0, 0.8, 2), (0.4, 1.3, 1)],
    ids=["ratio>1", "ratio>1-beta1", "ratio=1", "ratio=1-beta2", "ratio<1-atom",
         "ratio<1-atom-beta1"],
)


@_MP_CASES
def test_mp_quantile_atoms_are_dilated_shape_quantiles(alpha, t, beta):
    law = MarchenkoPastur(alpha, t, beta)
    for count in (1, 400, 4001):
        atoms = law.quantile_atoms(count)
        assert np.array_equal(atoms, _invert_mesh(*law._mesh(), _midpoints(count)))
    assert np.array_equal(MarchenkoPastur(alpha, 0.0, beta).quantile_atoms(50), np.zeros(50))
    assert np.array_equal(MarchenkoPastur(0.0, t, beta).quantile_atoms(50), np.zeros(50))


def _per_time_mixture_mesh(law):
    """The mixture CDF mesh composed from its components at the law's own
    time (the formula the dilated time-1 mesh replaces)."""
    lam, lam_star, gamma, pos, neg = law._components()
    pieces_x, pieces_f, mass_so_far = [], [], 0.0
    if not neg.is_degenerate:
        xs, fs = neg._mesh()
        pieces_x.append(-xs[::-1])
        pieces_f.append(lam_star * (1.0 - fs[::-1]))
        mass_so_far = lam_star
    atom = gamma + (lam if pos.is_degenerate else 0.0) + (lam_star if neg.is_degenerate else 0.0)
    if atom > 0:
        pieces_x.append(np.array([0.0, 0.0]))
        pieces_f.append(np.array([mass_so_far, mass_so_far + atom]))
        mass_so_far += atom
    if not pos.is_degenerate:
        xs, fs = pos._mesh()
        pieces_x.append(xs)
        pieces_f.append(mass_so_far + lam * fs)
    return np.concatenate(pieces_x), np.maximum.accumulate(np.concatenate(pieces_f))


@pytest.mark.parametrize(
    "family", [lambda t: mp_mixture_two(0.5, t), lambda t: mp_mixture_three(1.5, 2.0, t)],
    ids=["mix2", "mix3"],
)
def test_mixture_quantiles_match_per_time_mesh(family):
    u = _midpoints(400)
    for t in np.linspace(0.0, 1.0, 201):
        law = family(t)
        ref_xs, ref_fs = _per_time_mixture_mesh(law)
        xs, fs = law._mesh()
        assert np.array_equal(fs, ref_fs), t
        assert np.all(np.abs(xs - ref_xs) <= 1e-15 * np.abs(ref_xs)), t
        atoms = law.quantile_atoms(400)
        ref = _invert_mesh(ref_xs, ref_fs, u)
        assert np.all(np.abs(atoms - ref) <= 1e-15 * np.abs(ref)), t
    assert np.array_equal(family(0.0).quantile_atoms(400), np.zeros(400))


@pytest.mark.parametrize(
    "t, beta, center",
    [(1.0, 2, 0.0), (1.0, 1, 3.0), (0.37, 2, -0.7), (3.7, 2, 3.0), (1e-6, 1, 1e3)],
    ids=["unit", "beta1-shifted", "beta2-shifted", "wide-shifted", "narrow-far"],
)
def test_semicircle_quantiles_match_per_law_mesh(t, beta, center):
    law = Semicircle(t, beta=beta, center=center)
    step = 2.0 * law.radius / (_MESH_POINTS - 1)
    for count in (1, 400, 4001):
        u = _midpoints(count)
        atoms = law.quantile_atoms(count)
        reference = _invert_mesh(*law._mesh(), u)
        median = u == 0.5
        assert np.all(np.abs(atoms - reference)[~median] <= 1e-12 * law.radius)
        # u = 1/2 ties the mesh value at the center: the shared mesh picks the
        # center, a shifted law's own mesh may round to its neighbour
        assert np.all(np.abs(atoms[median] - center) <= 1e-12 * max(law.radius, abs(center)))
        assert np.all(np.abs(atoms - reference)[median] <= step * (1.0 + 1e-9))
    assert np.array_equal(Semicircle(0.0, beta, center).quantile_atoms(7), np.full(7, center))


def test_dilation_caches_are_read_only():
    law = mp_mixture_three(1.5, 2.0, 0.3)
    law.quantile_atoms(400)
    cached = _mixture_unit_mesh(law._shape_key) + (
        _shape_quantiles(_mixture_unit_mesh, law._shape_key, 400),
        _shape_quantiles(_mp_shape_mesh, 2.5, 400),
        *_semicircle_index_mesh(),
        _shape_quantiles(_semicircle_index_mesh, None, 400),
    )
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 7.0
    # every time of one family shares the time-1 CDF values
    assert mp_mixture_three(1.5, 2.0, 0.9)._mesh()[1] is law._mesh()[1]


def test_mp_hankel_psd():
    for alpha, beta in ((0.5, 1.0), (1.0, 2.0), (2.5, 2.0)):
        mp_moments(alpha, beta, 1.0, 8).check_hankel()


def test_moment_sequence_hankel_rejects_non_psd():
    with pytest.raises(NumericalError):
        MomentSequence(np.array([1.0, 0.0, -1.0]), t=None).check_hankel()


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_two_weights():
    sym = mp_mixture_two(0.0)
    assert np.isclose(sym.lam, 0.5) and np.isclose(sym.lam_star, 0.5)
    mix = mp_mixture_two(0.5)
    assert np.isclose(mix.lam, 0.75) and np.isclose(mix.lam_star, 0.25)
    assert np.isclose(mix.negative_mass(), 0.25)
    with pytest.raises(ValidationError):
        mp_mixture_two(1.5)


def test_mixture_two_symmetric_case():
    law = mp_mixture_two(0.0, t=1.0)
    xs = np.linspace(0.05, 1.5, 40)
    assert np.allclose(law.density(xs), law.density(-xs), atol=1e-12)
    seq = law.moments(4)
    assert abs(seq[1]) <= 1e-12 and abs(seq[3]) <= 1e-12
    assert seq[2] > 0


def test_mixture_two_first_moment_is_alpha_t():
    for alpha, t in ((0.5, 1.0), (0.25, 0.8), (0.9, 2.0)):
        assert np.isclose(mp_mixture_two(alpha, t).moments(1)[1], alpha * t, atol=1e-12)


def test_mixture_three_weights_and_atom():
    eq = mp_mixture_three(2.0, 2.0)
    assert np.allclose((eq.lam, eq.lam_star, eq.gamma), (1 / 3, 1 / 3, 1 / 3))
    assert np.isclose(eq.induced_alpha, 0.0)

    mix = mp_mixture_three(2.0, 3.0, t=0.8)
    assert np.allclose((mix.lam, mix.lam_star, mix.gamma), (0.4, 0.2, 0.4))
    assert np.isclose(mix.induced_alpha, 0.2)
    assert mix.atoms() == [(0.0, pytest.approx(0.4))]
    assert np.isclose(mix.negative_mass(), 0.2)
    assert np.isclose(mix.moments(1)[1], mix.induced_alpha * 0.8, atol=1e-12)

    rng = np.random.default_rng(61)
    for _ in range(5):
        ap, am = np.sort(rng.uniform(1.1, 5.0, size=2))
        m = mp_mixture_three(ap, am)
        assert np.isclose(m.lam + m.lam_star + m.gamma, 1.0)

    with pytest.raises(ValidationError):
        mp_mixture_three(0.9, 3.0)
    with pytest.raises(ValidationError):
        mp_mixture_three(3.0, 2.0)


@pytest.mark.parametrize(
    "law", [mp_mixture_three(1.5, 1.8, 0.0), mp_mixture_two(0.5, 0.0), mp_mixture_two(0.37, 0.0)]
)
def test_mixture_at_time_zero_is_one_exact_atom(law):
    """At t = 0 every component is degenerate: the law is the unit point
    mass at 0 exactly, not the float sum of the three weights."""
    assert law.atoms() == [(0.0, 1.0)]
    assert law.continuous_mass() == 0.0


def test_mixture_three_mass_decomposition():
    law = mp_mixture_three(2.0, 3.0, t=0.8)
    lo, hi = law.bounds()
    neg, _ = integrate.quad(lambda x: float(law.density(np.array([x]))[0]), lo, 0.0, limit=400)
    pos, _ = integrate.quad(lambda x: float(law.density(np.array([x]))[0]), 0.0, hi, limit=400)
    assert abs(neg - law.lam_star) <= 1e-8
    assert abs(pos - law.lam) <= 1e-8
    assert abs(neg + pos + law.gamma - 1.0) <= 1e-8
    # the atom sits in an open gap of the continuous part
    assert np.isclose(float(law.cdf(-0.02)), law.lam_star, atol=1e-9)
    assert np.isclose(float(law.cdf(0.02)), law.lam_star + law.gamma, atol=1e-9)


@pytest.mark.parametrize(
    "law",
    [mp_mixture_two(0.5, t=0.8), mp_mixture_three(2.0, 3.0, t=0.8)],
    ids=["two", "three"],
)
def test_mixture_moment_hierarchy_finite_difference(law):
    """FD check of the square-root-flow hierarchy on the signed line:

        dm_k/dt = alpha k m_{k-1} + k sum_{l=0}^{k-2} s_l m_{k-2-l}

    (real field, beta = 1), with s_l = int |x| x^l dmu_t computed by
    quadrature of the mixture density — an oracle independent of the
    mixture's own moment code.
    """
    t, delta = 0.8, 1e-3
    alpha = law.alpha if hasattr(law, "alpha") else law.induced_alpha
    mom = law.at(t).moments(6).values
    lo, hi = law.at(t).bounds()

    def s_l(el):
        dens = law.at(t)
        total = 0.0
        for a, b in ((lo, 0.0), (0.0, hi)):
            val, _ = integrate.quad(
                lambda x: abs(x) * x**el * float(dens.density(np.array([x]))[0]),
                a,
                b,
                limit=400,
                epsabs=1e-12,
            )
            total += val
        return total

    s = [s_l(el) for el in range(5)]
    plus = law.at(t + delta).moments(6).values
    minus = law.at(t - delta).moments(6).values
    for k in range(1, 7):
        fd = (plus[k] - minus[k]) / (2.0 * delta)
        rhs = alpha * k * mom[k - 1] + k * sum(
            s[el] * mom[k - 2 - el] for el in range(k - 1)
        )
        assert abs(fd - rhs) <= 1e-5 * (1.0 + abs(rhs)), (k, fd, rhs)


def test_mixture_cdf_monotone_normalized():
    for law in (mp_mixture_two(0.5), mp_mixture_three(2.0, 3.0)):
        lo, hi = law.bounds()
        xs = np.linspace(lo - 0.2, hi + 0.2, 300)
        cdf = law.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# geometric class


def test_geometric_w_hand_values():
    w = geometric_w(3)
    assert w[0] == [Fraction(1)]
    assert w[1] == [Fraction(1), Fraction(2)]
    assert w[2] == [Fraction(1), Fraction(6), Fraction(6)]


def test_geometric_w_growth_bound():
    """w_k(x) <= k! 9^{k-1} (1 + x)^{k-1}, checked in exact arithmetic."""
    ws = geometric_w(10)
    for k in range(1, 11):
        coeffs = ws[k - 1]
        for x in (Fraction(0), Fraction(1), Fraction(10)):
            val = sum(c * x**j for j, c in enumerate(coeffs))
            bound = (
                Fraction(math.factorial(k)) * Fraction(9) ** (k - 1) * (1 + x) ** (k - 1)
            )
            assert val <= bound, (k, x)


def test_geometric_moments_trivials():
    assert np.allclose(geometric_moments(2.0, 0.3, 2.0, 0.0, 3).values, [1, 2, 4, 8])
    seq = geometric_moments(1.0, 0.0, 2.0, 1.0, 3)
    assert np.isclose(seq[1], 1.0)
    assert np.isclose(seq[2], 5.0)  # w_2(2) = 1 + 2*2
    assert np.isclose(seq[3], 37.0)  # w_3(2) = 1 + 12 + 24


def test_geometric_moments_exponential_drift_factor():
    a, alpha, beta, t = 1.5, 0.4, 2.0, 0.7
    flat = geometric_moments(a, 0.0, beta, t, 4)
    drifted = geometric_moments(a, alpha, beta, t, 4)
    for k in range(1, 5):
        assert np.isclose(drifted[k], flat[k] * np.exp(k * alpha * t), rtol=1e-12)


def test_geometric_moments_match_generic_ode():
    a, alpha, beta, t = 1.0, 0.2, 2.0, 1.0
    closed = geometric_moments(a, alpha, beta, t, 6)
    path = generic_moment_ode(
        b=[0.0, alpha],
        g2=[0.0, 1.0],
        h2=[0.0, 1.0],
        beta=beta,
        mu0_moments=[a**k for k in range(7)],
        k_max=6,
        t_final=t,
        dt=1e-3,
    )
    assert np.allclose(path.final.values, closed.values, rtol=1e-6)


def test_geometric_law_is_moments_only():
    law = GeometricLaw(1.0, 0.0, beta=2, t=1.0)
    assert np.allclose(law.at(1.0).moments(2).values, [1.0, 1.0, 5.0])
    with pytest.raises(UnsupportedLawOperation):
        law.cdf(np.array([1.0]))
    with pytest.raises(UnsupportedLawOperation):
        law.density(np.array([1.0]))


def test_geometric_hankel_psd():
    geometric_moments(1.0, 0.0, 2.0, 1.0, 8).check_hankel()


# ---------------------------------------------------------------------------
# generic moment ODE


def test_generic_ode_reproduces_semicircle():
    path = generic_moment_ode(
        b=[0.0],
        g2=[0.25],
        h2=[1.0],
        beta=2.0,
        mu0_moments=[1.0] + [0.0] * 8,
        k_max=8,
        t_final=1.0,
        dt=1e-3,
    )
    assert np.allclose(path.final.values, semicircle_moments(1.0, 2, 8).values, atol=1e-6)


def test_generic_ode_reproduces_mp_recursion():
    for alpha, beta in ((2.5, 2.0), (1.0, 1.0)):
        path = generic_moment_ode(
            b=[alpha],
            g2=[0.0, 1.0],
            h2=[1.0],
            beta=beta,
            mu0_moments=[1.0] + [0.0] * 6,
            k_max=6,
            t_final=1.0,
            dt=1e-3,
        )
        assert np.allclose(
            path.final.values, mp_moments(alpha, beta, 1.0, 6).values, rtol=1e-6, atol=1e-6
        )


def test_generic_ode_time_path():
    path = generic_moment_ode(
        b=[0.0],
        g2=[0.25],
        h2=[1.0],
        beta=2.0,
        mu0_moments=[1.0, 0.0, 0.0],
        k_max=2,
        t_final=1.0,
        dt=1e-3,
    )
    assert np.isclose(path.at_time(0.5)[2], 0.5, atol=1e-9)
    assert np.isclose(path.at_time(0.0)[2], 0.0)


def _loop_hierarchy_path(b, g2, h2, beta, m0, t_final, dt):
    """RK4 of the hierarchy with the interaction as a loop over (i, j1, j2):

        dm_k/dt = k sum_j b_j m_{k-1+j}
                  + (beta/2) k sum_{i=0}^{k-2} sum_{j1,j2} g2_{j1} h2_{j2}
                    (m_{i+j1} m_{k-2-i+j2} + m_{i+j2} m_{k-2-i+j1})
    """
    k_max = len(m0) - 1

    def rhs(m):
        out = np.zeros_like(m)
        for k in range(1, k_max + 1):
            drift = sum(bj * m[k - 1 + j] for j, bj in enumerate(b))
            inter = 0.0
            for i in range(k - 1):
                for j1, gj in enumerate(g2):
                    for j2, hj in enumerate(h2):
                        inter += gj * hj * (
                            m[i + j1] * m[k - 2 - i + j2] + m[i + j2] * m[k - 2 - i + j1]
                        )
            out[k] = k * (drift + 0.5 * beta * inter)
        return out

    steps = int(round(t_final / dt))
    m = np.asarray(m0, dtype=float)
    values = [m]
    for _ in range(steps):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * dt * k1)
        k3 = rhs(m + 0.5 * dt * k2)
        k4 = rhs(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        values.append(m)
    return np.array(values)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_generic_ode_matches_loop_hierarchy_at_closure_boundary(beta):
    """deg b = 1 and deg g^2 = deg h^2 = 2, the largest degrees that close:
    the separable right-hand side equals the (i, j1, j2) loop."""
    b, g2, h2 = [0.3, -0.5], [0.2, 0.1, 0.05], [1.0, -0.3, 0.2]
    atoms = np.array([0.2, 0.5, 0.9])
    m0 = [float(np.mean(atoms**k)) for k in range(9)]
    path = generic_moment_ode(
        b=b, g2=g2, h2=h2, beta=beta, mu0_moments=m0, k_max=8, t_final=0.2, dt=0.01
    )
    ref = _loop_hierarchy_path(b, g2, h2, beta, m0, 0.2, 0.01)
    assert np.allclose(path.values, ref, rtol=1e-12, atol=0.0)
    assert not np.allclose(path.values[-1], ref[0], rtol=1e-3)


def test_generic_ode_truncation_errors():
    with pytest.raises(TruncationError):
        generic_moment_ode(
            b=[0.0, 0.0, 1.0], g2=[1.0], h2=[1.0], beta=2.0,
            mu0_moments=[1.0, 0.0], k_max=1, t_final=0.1,
        )
    with pytest.raises(TruncationError):
        generic_moment_ode(
            b=[0.0], g2=[0.0, 0.0, 0.0, 1.0], h2=[1.0], beta=2.0,
            mu0_moments=[1.0, 0.0], k_max=1, t_final=0.1,
        )


# ---------------------------------------------------------------------------
# Jacobi class


def test_jacobi_moments_short_time_stays_near_start():
    seq = jacobi_moments(3.0, 3.0, 2.0, a=0.5, t_final=1e-4, dt=1e-6, k_max=4)
    assert np.allclose(seq.values[1:], [0.5**k for k in range(1, 5)], atol=1e-3)


def test_jacobi_first_moment_closed_form():
    # dm1/dt = p - (p+q) m1 solves to the exponential relaxation below.
    p, q, a, t = 3.0, 2.0, 0.2, 0.3
    seq = jacobi_moments(p, q, 2.0, a=a, t_final=t, dt=1e-4, k_max=2)
    exact = p / (p + q) + (a - p / (p + q)) * np.exp(-(p + q) * t)
    assert np.isclose(seq[1], exact, atol=1e-8)


def test_jacobi_equilibrium_mean():
    seq = jacobi_moments(3.0, 3.0, 2.0, a=0.2, t_final=3.0, dt=1e-3, k_max=2)
    assert np.isclose(seq[1], 0.5, atol=1e-6)


def test_jacobi_moments_unit_interval_ordering():
    seq = jacobi_moments(3.0, 3.0, 2.0, a=0.5, t_final=1.0, dt=1e-3, k_max=8)
    vals = seq.values
    assert np.all(vals[1:] > 0.0) and np.all(vals[1:] < 1.0)
    assert np.all(np.diff(vals[1:]) <= 1e-12)  # m_{k+1} <= m_k on [0, 1]
    seq.check_hankel()


def test_jacobi_moments_at_matches_one_integration_per_time():
    """moments_at integrates the hierarchy once along the times; it must give
    the moments of integrating from 0 to each time separately, including at
    times off the dt grid (reached exactly, not snapped to the grid)."""
    law = JacobiLaw(3.0, 3.0, beta=2, a=0.5, t=1.0, dt=1e-3)
    on_grid = tuple(i / 20 for i in range(21))
    off_grid = (0.0, 0.0015, 0.3337, 1.0)
    for times, rtol in ((on_grid, 1e-12), (off_grid, 1e-10)):
        seqs = law.moments_at(times, 8)
        assert [s.t for s in seqs] == list(times)
        for t, seq in zip(times, seqs):
            assert np.allclose(seq.values, law.at(t).moments(8).values, rtol=rtol, atol=0.0)
    with pytest.raises(ValidationError):
        law.moments_at((0.0, 0.5, 0.25), 4)


def test_jacobi_law_is_moments_only():
    law = JacobiLaw(3.0, 3.0, beta=2, a=0.5, t=1.0, dt=1e-3)
    assert np.isclose(law.at(1.0).moments(1)[1], jacobi_moments(3.0, 3.0, 2.0, 0.5, 1.0)[1])
    with pytest.raises(UnsupportedLawOperation):
        law.cdf(np.array([0.5]))


# ---------------------------------------------------------------------------
# point mass and moment sequences


def test_point_mass_basics():
    pm = PointMass(0.3)
    assert pm.atoms() == [(0.3, 1.0)]
    assert np.allclose(pm.moments(3).values, [1.0, 0.3, 0.09, 0.027])
    assert pm.bounds() == (0.3, 0.3)


def test_moment_sequence_accessors():
    seq = semicircle_moments(1.0, 2, 4)
    assert seq[0] == 1.0
    assert seq.k_max == 4
    assert len(seq) == 5
