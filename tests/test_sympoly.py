"""Tests for eigenflow.sympoly.

Elementary symmetric polynomials and power sums are pinned to hand
values, Newton's identities are checked as residuals over random spectra,
incomplete elementary polynomials are compared against direct deletion,
and the pairwise drift identity and log-det drift are verified against
closed forms derivable by hand.
"""

import math

import numpy as np
import pytest

from eigenflow import (
    SpectralFunction,
    ValidationError,
    elementary_symmetric,
    incomplete_elementary,
    incomplete_elementary_pairs,
    log_det_drift,
    newton_residual,
    pairwise_drift_identity_residual,
    power_sums,
)

ONE = SpectralFunction.constant(1.0)
SQRT_X = SpectralFunction.sqrt_abs_poly([0.0, 1.0])


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and power sums


def test_elementary_hand_values():
    assert np.allclose(elementary_symmetric([1.0, 2.0, 3.0]), [1.0, 6.0, 11.0, 6.0])
    assert np.allclose(elementary_symmetric(np.zeros(4)), [1.0, 0, 0, 0, 0])
    assert np.allclose(elementary_symmetric([2.5]), [1.0, 2.5])


def test_elementary_all_ones_binomials():
    n = 10
    e = elementary_symmetric(np.ones(n))
    assert np.allclose(e, [math.comb(n, k) for k in range(n + 1)])


def test_elementary_rejects_bad_input():
    with pytest.raises(ValidationError):
        elementary_symmetric(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        elementary_symmetric([1.0, np.inf])


@pytest.mark.parametrize("bad", ["not_1d", "not_finite", "too_short"])
@pytest.mark.parametrize(
    "helper, deleted",
    [(elementary_symmetric, 0), (incomplete_elementary, 1), (incomplete_elementary_pairs, 2)],
    ids=["elementary", "incomplete", "pairs"],
)
def test_spectrum_helpers_share_one_input_check(helper, deleted, bad):
    """e_k, one deletion and every pair of deletions raise ValidationError
    for a spectrum that is not 1-d, not finite, or shorter than the 0, 1 or
    2 entries they delete. No spectrum is shorter than 0 entries: the full
    e_k of an empty one stays [1]."""
    if bad == "too_short" and deleted == 0:
        assert helper([]).tolist() == [1.0]
        return
    spectrum = {
        "not_1d": np.ones((2, 3)),
        "not_finite": [1.0, np.nan, 2.0],
        "too_short": [1.0] * (deleted - 1),
    }[bad]
    with pytest.raises(ValidationError):
        helper(spectrum)


def test_power_sums_hand_values():
    assert np.allclose(power_sums([1.0, 2.0, 3.0], 2), [6.0, 14.0])
    assert np.allclose(power_sums([-1.0, 1.0], 3), [0.0, 2.0, 0.0])


def test_power_sum_one_equals_elementary_one():
    rng = np.random.default_rng(31)
    lam = rng.uniform(-2, 2, size=9)
    assert np.isclose(power_sums(lam, 1)[0], elementary_symmetric(lam)[1])


# ---------------------------------------------------------------------------
# Newton's identities


def test_newton_residual_random_spectra():
    rng = np.random.default_rng(32)
    for n in (3, 7, 20):
        lam = rng.uniform(-1, 1, size=n)
        e = elementary_symmetric(lam)
        p = power_sums(lam, n)
        for k in range(1, n + 1):
            assert newton_residual(e, p, k) <= 1e-9


def test_newton_residual_all_ones():
    lam = np.ones(12)
    e = elementary_symmetric(lam)
    p = power_sums(lam, 12)
    for k in range(1, 13):
        assert newton_residual(e, p, k) <= 1e-12


def test_newton_residual_validation():
    e = elementary_symmetric([1.0, 2.0])
    p = power_sums([1.0, 2.0], 2)
    with pytest.raises(ValidationError):
        newton_residual(e, p, 0)
    with pytest.raises(ValidationError):
        newton_residual(e, p, 3)
    with pytest.raises(ValidationError):
        newton_residual(e, p[:1], 2)


# ---------------------------------------------------------------------------
# incomplete elementary polynomials


def test_incomplete_matches_direct_deletion():
    rng = np.random.default_rng(33)
    lam = rng.uniform(-2, 2, size=9)
    e1 = incomplete_elementary(lam)
    for i in range(lam.size):
        direct = elementary_symmetric(np.delete(lam, i))
        assert np.allclose(e1[i], direct, atol=1e-10)


def test_incomplete_pairs_match_direct_deletion():
    rng = np.random.default_rng(34)
    lam = rng.uniform(-2, 2, size=8)
    ii, jj, e2 = incomplete_elementary_pairs(lam)
    assert ii.size == lam.size * (lam.size - 1) // 2
    for p in range(ii.size):
        direct = elementary_symmetric(np.delete(lam, [ii[p], jj[p]]))
        assert np.allclose(e2[p], direct, atol=1e-10)


def test_deletion_identities():
    """Three exact identities tying incomplete polynomials to e_{n-1}, e_n.

    (i)   lam_i e_{n-1}(lam \\ i) = e_n for every i;
    (ii)  sum_i e_{n-1}(lam \\ i) = e_{n-1};
    (iii) sum_{i<j} (lam_i + lam_j) e_{n-2}(lam \\ {i,j}) = (n-1) e_{n-1}.
    """
    rng = np.random.default_rng(35)
    for n in (2, 5, 12):
        lam = rng.uniform(0.1, 2.0, size=n)
        e = elementary_symmetric(lam)
        e1 = incomplete_elementary(lam)
        ii, jj, e2 = incomplete_elementary_pairs(lam)
        assert np.allclose(lam * e1[:, n - 1], e[n], rtol=1e-10)
        assert np.isclose(np.sum(e1[:, n - 1]), e[n - 1], rtol=1e-10)
        lhs = np.sum((lam[ii] + lam[jj]) * e2[:, n - 2])
        assert np.isclose(lhs, (n - 1) * e[n - 1], rtol=1e-10)


# ---------------------------------------------------------------------------
# pairwise drift identity


def test_pairwise_identity_constant_kernel():
    rng = np.random.default_rng(36)
    lam = np.sort(rng.uniform(-2, 2, size=10))
    assert pairwise_drift_identity_residual(lam, ONE, ONE, 2) <= 1e-12


def test_pairwise_identity_square_root_flow():
    rng = np.random.default_rng(37)
    lam = np.sort(rng.uniform(0.1, 2.0, size=12))
    for k in range(2, 9):
        assert pairwise_drift_identity_residual(lam, SQRT_X, ONE, k) <= 1e-9


def test_pairwise_identity_hand_value_n2():
    # lam = (1, 2), G = 2: both sides equal 6 at k = 3:
    #   lhs = 1 * (2 / (1-2)) + 4 * (2 / (2-1)) = 6
    #   rhs = (lam_1 + lam_2) * G = 3 * 2 = 6
    lam = np.array([1.0, 2.0])
    lhs = lam[0] ** 2 * (2.0 / (lam[0] - lam[1])) + lam[1] ** 2 * (2.0 / (lam[1] - lam[0]))
    rhs = (lam[0] + lam[1]) * 2.0
    assert lhs == rhs == 6.0
    assert pairwise_drift_identity_residual(lam, ONE, ONE, 3) <= 1e-14


def test_pairwise_identity_validation():
    with pytest.raises(ValidationError):
        pairwise_drift_identity_residual([1.0, 1.0], ONE, ONE, 2)
    with pytest.raises(ValidationError):
        pairwise_drift_identity_residual([1.0, 2.0], ONE, ONE, 1)


# ---------------------------------------------------------------------------
# log det drift


def test_log_det_drift_scalar_closed_form():
    # n = 1: drift = b(lam)/lam - 2 g^2 h^2 / lam^2; lam=2, g^2=2, h^2=1, b=3.
    val = log_det_drift([2.0], SQRT_X, ONE, SpectralFunction.constant(3.0), beta=2.0)
    assert np.isclose(val, 3.0 / 2.0 - 2.0 * 2.0 / 4.0)


def test_log_det_drift_all_ones_closed_form():
    # lam = 1^n: every (incomplete) elementary polynomial involved equals 1,
    # so the drift reduces to b - 2 g^2 h^2 - beta (n-1) g^2 h^2.
    n, b, beta = 4, 5.0, 2.0
    val = log_det_drift(np.ones(n), ONE, ONE, SpectralFunction.constant(b), beta=beta)
    assert np.isclose(val, b - 2.0 - beta * (n - 1))


def test_log_det_drift_square_root_flow_closed_form():
    """For g^2 = x, h^2 = 1, b = c the deletion identities collapse the
    drift to (e_{n-1} / (n e_n)) (c - beta (n-1) - 2), making its sign
    flip exactly at c = beta (n-1) + 2."""
    rng = np.random.default_rng(38)
    n, beta = 7, 2.0
    lam = rng.uniform(0.2, 3.0, size=n)
    e = elementary_symmetric(lam)
    prefactor = e[n - 1] / (n * e[n])
    for c in (1.0, beta * (n - 1) + 2.0, 30.0):
        val = log_det_drift(lam, SQRT_X, ONE, SpectralFunction.constant(c), beta=beta)
        assert np.isclose(val, prefactor * (c - beta * (n - 1) - 2.0), rtol=1e-10)


def test_log_det_drift_requires_positive_spectrum():
    with pytest.raises(ValidationError):
        log_det_drift([1.0, -0.5], ONE, ONE, ONE, beta=2.0)
    with pytest.raises(ValidationError):
        log_det_drift([1.0, 0.0], ONE, ONE, ONE, beta=2.0)
