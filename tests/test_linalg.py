"""Tests for eigenflow.linalg.

The eigendecomposition contract (ascending eigenvalues, orthonormal basis)
is cross-checked against an independent cyclic Jacobi implementation
written in this file, and spectral function application is verified
against hand values, the multiset property, and polynomial composition.
"""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from eigenflow import SpectralFunction, apply_spectral, eigen, hermitize
from eigenflow.linalg import _horner


def _random_hermitian(n, rng, field="complex"):
    if field == "complex":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        m = rng.standard_normal((n, n))
    return hermitize(m)


def _jacobi_eigenvalues(a, sweeps=50, tol=1e-13):
    """Independent oracle: cyclic Jacobi diagonalization (real symmetric)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


# ---------------------------------------------------------------------------
# eigen


def test_eigen_identity_matrix():
    w, v = eigen(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)


def test_eigen_diagonal_sorted_ascending():
    w, _ = eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigen_symmetric_two_by_two():
    w, v = eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v @ np.diag(w) @ v.conj().T, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_eigen_reconstruction_and_orthonormality(field):
    rng = np.random.default_rng(7)
    x = _random_hermitian(12, rng, field)
    w, v = eigen(x)
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(v.conj().T @ v, np.eye(12), atol=1e-12)
    assert np.allclose((v * w) @ v.conj().T, x, atol=1e-12)


def test_eigen_matches_cyclic_jacobi_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = _random_hermitian(6, rng, field="real")
        w, _ = eigen(x)
        assert np.allclose(w, _jacobi_eigenvalues(x), atol=1e-8)


def test_eigen_recovers_known_spectrum():
    rng = np.random.default_rng(3)
    spectrum = np.linspace(-2.0, 3.0, 8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    x = hermitize((q * spectrum) @ q.conj().T)
    w, _ = eigen(x)
    assert np.allclose(w, spectrum, atol=1e-9)


# ---------------------------------------------------------------------------
# hermitize


def test_hermitize_hand_value():
    out = hermitize(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])


def test_hermitize_fixes_hermitian():
    rng = np.random.default_rng(5)
    x = _random_hermitian(6, rng)
    assert np.allclose(hermitize(x), x, atol=1e-15)


def test_hermitize_kills_skew_hermitian():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    skew = 0.5 * (m - m.conj().T)
    assert np.allclose(hermitize(skew), 0.0, atol=1e-15)


def test_hermitize_output_is_hermitian():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    out = hermitize(m)
    assert np.allclose(out, out.conj().T, atol=1e-16)


# ---------------------------------------------------------------------------
# apply_spectral


def test_apply_identity_polynomial_is_identity_map():
    rng = np.random.default_rng(21)
    x = _random_hermitian(9, rng)
    out = apply_spectral(x, SpectralFunction.from_poly([0.0, 1.0]))
    assert np.allclose(out, x, atol=1e-12)


def test_apply_constant_gives_scaled_identity():
    rng = np.random.default_rng(22)
    x = _random_hermitian(5, rng)
    out = apply_spectral(x, SpectralFunction.constant(2.5))
    assert np.allclose(out, 2.5 * np.eye(5), atol=1e-12)


def test_apply_sqrt_on_diagonal():
    out = apply_spectral(np.diag([4.0, 9.0]), SpectralFunction.sqrt_abs_poly([0.0, 1.0]))
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_apply_spectral_multiset_property():
    rng = np.random.default_rng(23)
    f = SpectralFunction.from_poly([0.5, -1.0, 0.25])
    for n in (3, 17, 64):
        x = _random_hermitian(n, rng)
        w, _ = eigen(x)
        fx = apply_spectral(x, f)
        assert np.allclose(fx, fx.conj().T, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(fx), np.sort(f(w)), atol=1e-8)


def test_apply_spectral_composition():
    rng = np.random.default_rng(24)
    x = _random_hermitian(10, rng)
    f_coef = np.array([1.0, 0.0, 0.5])
    g_coef = np.array([0.0, 1.0, -0.25])
    fog = np.polynomial.Polynomial(f_coef)(np.polynomial.Polynomial(g_coef))
    lhs = apply_spectral(
        apply_spectral(x, SpectralFunction.from_poly(g_coef)),
        SpectralFunction.from_poly(f_coef),
    )
    rhs = apply_spectral(x, SpectralFunction.from_poly(fog.coef))
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_apply_spectral_commutes_with_argument():
    rng = np.random.default_rng(25)
    x = _random_hermitian(8, rng)
    fx = apply_spectral(x, SpectralFunction.from_poly([0.0, 0.0, 1.0]))
    assert np.allclose(fx @ x, x @ fx, atol=1e-9)


def test_apply_spectral_accepts_precomputed_eigenpair():
    rng = np.random.default_rng(26)
    x = _random_hermitian(6, rng)
    f = SpectralFunction.sqrt_abs_poly([1.0, 0.0, 1.0])
    assert np.allclose(apply_spectral(eigen(x), f), apply_spectral(x, f), atol=1e-14)


# ---------------------------------------------------------------------------
# SpectralFunction carrier


def test_spectral_function_constant_flags():
    c = SpectralFunction.constant(0.5)
    assert c.is_constant
    lin = SpectralFunction.from_poly([0.0, 1.0])
    assert not lin.is_constant
    # trailing zeros do not raise the degree
    assert SpectralFunction.from_poly([0.5, 0.0]).is_constant
    assert SpectralFunction.sqrt_abs_poly([0.25, 0.0, 0.0]).is_constant
    assert SpectralFunction.from_poly([0.0, 0.0]).is_constant
    assert not SpectralFunction.sqrt_abs_poly([1.0, 0.0, 2.0, 0.0]).is_constant
    assert not SpectralFunction(fn=np.abs).is_constant


def test_sqrt_abs_poly_uses_absolute_value():
    f = SpectralFunction.sqrt_abs_poly([0.0, 1.0])
    assert np.allclose(f(np.array([-4.0, 4.0])), [2.0, 2.0])
    assert np.allclose(f.square_poly, [0.0, 1.0])


_SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e308, -2.5])


def _same_bits(got, want) -> bool:
    return np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(
        want
    ).tobytes()


@pytest.mark.parametrize("degree", range(5))
def test_horner_is_polyval_bit_for_bit(degree):
    """The one polynomial evaluator, and the SpectralFunctions built on it,
    equal numpy's polyval bit for bit, sign bit and nan included: x of shape
    (), (7,) and the residual grid's (201, 400), holding +-inf, nan, -0.0 and
    1e308, against coefficients with the same values."""
    rng = np.random.default_rng(degree)
    grid = rng.standard_normal((201, 400))
    grid.flat[:7] = _SPECIAL
    points = [np.float64(v) for v in _SPECIAL] + [np.array(v) for v in _SPECIAL]
    coefficient_sets = [
        rng.standard_normal(degree + 1),
        np.full(degree + 1, -0.0),
        np.roll(_SPECIAL, degree)[: degree + 1],
    ]
    with np.errstate(all="ignore"):
        for c in coefficient_sets:
            coeffs = tuple(c.tolist())
            for x in [*points, _SPECIAL, grid]:
                assert _same_bits(_horner(x, coeffs), polyval(x, c)), (c, x)
            assert _same_bits(SpectralFunction.from_poly(c)(grid), polyval(grid, c))
            assert _same_bits(
                SpectralFunction.sqrt_abs_poly(c)(grid), np.sqrt(np.abs(polyval(grid, c)))
            )
