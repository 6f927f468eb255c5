"""Tests for eigenflow.empirical.

Empirical measures are checked on hand values, the distances are
cross-checked against scipy.stats and exact transport computations, and
the limiting-equation residual is pinned on flows where it must vanish
identically or follow a closed form.
"""

import numpy as np
import pytest
from scipy import stats

from eigenflow import (
    EmpiricalMeasure,
    EmpiricalMeasureProcess,
    FlowSpec,
    PointMass,
    Semicircle,
    SpectralFunction,
    em_sde_decomposition,
    ks_distance,
    limit_equation_residual,
    simulate_ensemble,
    simulate_path,
    wasserstein1,
)
from eigenflow.empirical import _limit_terms

ZERO = SpectralFunction.constant(0.0)
ONE = SpectralFunction.constant(1.0)
HALF = SpectralFunction.constant(0.5)


# ---------------------------------------------------------------------------
# EmpiricalMeasure basics


def test_moments_hand_values():
    m = EmpiricalMeasure(np.array([-1.0, 1.0]))
    assert m.moment(0) == 1.0
    assert m.moment(1) == 0.0
    assert m.moment(2) == 1.0
    assert EmpiricalMeasure(np.array([1.0, 2.0, 3.0])).moment(1) == 2.0


def test_atoms_sorted_and_counted():
    m = EmpiricalMeasure(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(m.atoms, [1.0, 2.0, 3.0])
    assert m.n == 3


def test_cdf_one_sided_limits():
    m = EmpiricalMeasure(np.array([0.0, 0.0, 1.0]))
    assert np.isclose(m.cdf(0.0), 2.0 / 3.0)
    assert np.isclose(m.cdf_left(0.0), 0.0)
    assert np.isclose(m.mass_below(0.0), 0.0)
    assert np.isclose(m.cdf(0.5), 2.0 / 3.0)
    assert np.isclose(m.cdf(1.0), 1.0)
    assert np.isclose(m.mass_below(0.5), 2.0 / 3.0)


# ---------------------------------------------------------------------------
# distances


def test_ks_distance_point_mass_cases():
    m = EmpiricalMeasure(np.array([0.0]))
    assert ks_distance(m, PointMass(0.0)) <= 1e-15
    # shifted point mass: the step functions disagree completely in between
    assert np.isclose(ks_distance(m, PointMass(1.0)), 1.0)


def test_ks_distance_against_scipy_kstest():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(71)
    sample = law.sample(500, rng)
    ours = ks_distance(EmpiricalMeasure(sample), law)
    scipy_stat = stats.kstest(sample, lambda x: law.cdf(x)).statistic
    assert np.isclose(ours, scipy_stat, atol=1e-9)


def test_ks_distance_dkw_bound():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(72)
    sample = law.sample(10000, rng)
    # P(ks > 0.03) <= 2 exp(-2 * 1e4 * 9e-4) ~ 3e-8: effectively deterministic
    assert ks_distance(EmpiricalMeasure(sample), law) <= 0.03


def test_ks_distance_quantile_discretization():
    law = Semicircle(1.0, beta=2)
    m = EmpiricalMeasure(law.quantile_atoms(400))
    assert ks_distance(m, law) <= 1.0 / 400.0 + 1e-3


def test_wasserstein_point_masses_exact_transport():
    m = EmpiricalMeasure(np.array([0.7]))
    assert np.isclose(wasserstein1(m, PointMass(0.2)), 0.5, atol=1e-3)
    two = EmpiricalMeasure(np.array([0.0, 1.0]))
    # optimal transport to delta_{1/2} moves each half-atom by 1/2
    assert np.isclose(wasserstein1(two, PointMass(0.5)), 0.5, atol=1e-3)


def test_wasserstein_against_scipy():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(73)
    sample = law.sample(300, rng)
    ours = wasserstein1(EmpiricalMeasure(sample), law)
    ref = stats.wasserstein_distance(sample, law.quantile_atoms(20000))
    assert abs(ours - ref) <= 5e-3


def test_wasserstein_own_quantiles_small():
    law = Semicircle(1.0, beta=2)
    m = EmpiricalMeasure(law.quantile_atoms(400))
    assert wasserstein1(m, law) <= 0.01


# ---------------------------------------------------------------------------
# processes


def test_from_path_mirrors_spectra():
    spec = FlowSpec(
        n=4,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(4),
        dt=0.01,
        t_grid=(0.0, 0.05),
    )
    path = simulate_path(spec, 5)
    proc = EmpiricalMeasureProcess.from_path(path)
    assert len(proc) == 2
    assert np.array_equal(proc.t_grid, path.t_grid)
    for measure, row in zip(proc.measures, path.spectra):
        assert np.array_equal(measure.atoms, np.sort(row))


def test_from_law_uses_quantile_atoms():
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 200)
    assert len(proc) == 2
    assert proc.measures[0].n == 200
    assert abs(proc.measures[1].moment(2) - 1.0) <= 5e-3


# ---------------------------------------------------------------------------
# limiting-equation residual


def test_residual_zero_for_frozen_flow():
    spec = FlowSpec(
        n=5,
        g=ZERO,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.linspace(0.0, 1.0, 5),
        dt=0.01,
        t_grid=(0.0, 0.05, 0.1),
    )
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 1))
    res = limit_equation_residual(
        proc, [0.0, 0.0, 1.0], lambda x: 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res == 0.0


def test_residual_zero_for_constant_observable():
    spec = FlowSpec(
        n=6,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(6),
        dt=0.01,
        t_grid=(0.0, 0.1),
    )
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 2))
    res = limit_equation_residual(
        proc, [4.2], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res == 0.0


def test_residual_semicircle_family_second_moment():
    """The quantile-discretized semicircle family solves the limiting
    equation: for f = x^2 the observable is t and the RHS integrates to t."""
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, tuple(np.linspace(0.0, 1.0, 51)), 400)
    res = limit_equation_residual(
        proc, [0.0, 0.0, 1.0], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res <= 2e-2


def _direct_interaction(lam, coeffs, g2, h2):
    """Reference O(n^2) atom-pair sum (1/n^2) sum_ij dd(lam_i, lam_j) G(lam_i, lam_j).

    The divided difference of f' = sum_j fp_j x^j is assembled as
    sum_j fp_j sum_l x^l y^{j-1-l} from outer products, exact at
    coincident atoms (where it equals f'').
    """
    fp = np.polynomial.polynomial.polyder(coeffs)
    dd = np.zeros((lam.size, lam.size))
    for j in range(1, fp.size):
        for ell in range(j):
            dd += fp[j] * np.outer(lam**ell, lam ** (j - 1 - ell))
    g2v, h2v = g2(lam), h2(lam)
    big_g = np.outer(g2v, h2v) + np.outer(h2v, g2v)
    return float(np.sum(dd * big_g)) / lam.size**2


_KERNEL_CASES = [
    # coincident atoms: the divided difference is f'' on every repeated pair
    (np.repeat([0.1, 0.4, 0.45, 1.3], 25), lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x),
    (np.repeat([0.2, 0.5, 0.9], [40, 1, 19]), lambda x: x, lambda x: 1.0 - x),
    # non-polynomial g^2 = |x| on a spectrum of both signs
    (np.linspace(-0.8, 1.6, 97), np.abs, lambda x: 1.0 + 0.0 * x),
    (np.concatenate([np.full(10, -0.5), np.linspace(0.1, 1.2, 50)]), np.abs, lambda x: 0.3 + x**2),
]


@pytest.mark.parametrize("atoms, g2, h2", _KERNEL_CASES)
def test_interaction_kernel_matches_direct_double_sum(atoms, g2, h2):
    proc = EmpiricalMeasureProcess((0.0,), (EmpiricalMeasure(atoms),))
    lam = proc.measures[0].atoms
    for k in range(1, 13):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        inter = _limit_terms(proc, coeffs, g2, h2, lambda x: 0.0 * x)[2, 0]
        assert np.isclose(inter, _direct_interaction(lam, coeffs, g2, h2), rtol=1e-12, atol=0.0), k
    mixed = np.array([0.3, -1.0, 0.5, 2.0, 0.0, -0.25])
    assert np.isclose(
        _limit_terms(proc, mixed, g2, h2, lambda x: 0.0 * x)[2, 0],
        _direct_interaction(lam, mixed, g2, h2),
        rtol=1e-12,
        atol=0.0,
    )


@pytest.mark.parametrize("atoms, g2, h2", _KERNEL_CASES[2:], ids=["abs", "abs-repeated"])
def test_residual_rows_match_per_row_calls(atoms, g2, h2):
    """A 2-D f gives each row's residual in one pass: mixed degrees, a
    degree-0 row (residual 0) and rows shorter than the widest."""
    grid = np.linspace(0.0, 0.5, 6)
    measures = tuple(EmpiricalMeasure(atoms * (1.0 + t) + t * t) for t in grid)
    proc = EmpiricalMeasureProcess(grid, measures)
    rows = np.array([
        [4.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, -1.0, 0.5, 2.0, 0.0, -0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0],
    ])
    b = lambda x: 0.5 - x  # noqa: E731
    batched = limit_equation_residual(proc, rows, g2, h2, b, beta=1.0)
    assert batched.shape == (rows.shape[0],)
    assert batched[0] == 0.0
    for row, val in zip(rows, batched):
        single = limit_equation_residual(proc, np.trim_zeros(row, "b"), g2, h2, b, beta=1.0)
        assert isinstance(single, float)
        assert abs(val - single) <= 1e-12 * max(1.0, abs(single))
    terms = _limit_terms(proc, rows, g2, h2, b)
    assert terms.shape == (3, rows.shape[0], grid.size)
    for r, row in enumerate(rows):
        assert np.allclose(terms[:, r], _limit_terms(proc, row, g2, h2, b), rtol=1e-12, atol=1e-15)


def test_residual_rejects_high_degree():
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 50)
    from eigenflow import ValidationError

    with pytest.raises(ValidationError):
        limit_equation_residual(
            proc, np.zeros(14), lambda x: x, lambda x: x, lambda x: x, beta=2.0
        )


# ---------------------------------------------------------------------------
# finite-n decomposition


def _dyson_spec(n, field, t_grid=(0.0, 0.5, 1.0)):
    return FlowSpec(
        n=n,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(n),
        field=field,
        dt=1e-3,
        t_grid=t_grid,
    )


def test_decomposition_identity_and_keys():
    spec = _dyson_spec(10, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 3))
    parts = em_sde_decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    assert set(parts) == {"lhs", "drift", "correction", "interaction", "martingale"}
    recon = parts["drift"] + parts["correction"] + parts["interaction"] + parts["martingale"]
    assert np.allclose(parts["lhs"], recon, atol=1e-14)
    assert parts["lhs"][0] == 0.0


def test_decomposition_correction_vanishes_at_beta_two():
    spec = _dyson_spec(8, "complex")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 4))
    parts = em_sde_decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    assert np.allclose(parts["correction"], 0.0, atol=1e-16)


def test_decomposition_correction_positive_at_beta_one():
    spec = _dyson_spec(8, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 5))
    parts = em_sde_decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    # f'' = 12 x^2 and G(x,x) = 1/2 are nonnegative: the correction
    # integral accumulates monotonically and is strictly positive by t = 1
    assert parts["correction"][-1] > 0.0
    assert np.all(np.diff(parts["correction"]) >= -1e-16)


def test_decomposition_constant_observable_all_zero():
    spec = _dyson_spec(6, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 6))
    parts = em_sde_decomposition(proc, [3.0], spec)
    for key in ("lhs", "drift", "correction", "interaction", "martingale"):
        assert np.allclose(parts[key], 0.0, atol=1e-15)


def test_decomposition_martingale_shrinks_in_ensemble_mean():
    """Averaging replicas kills the martingale part (it is mean zero), so
    the ensemble-averaged martingale must be much smaller than a typical
    single-path one."""
    spec = _dyson_spec(16, "real", t_grid=(0.0, 0.25, 0.5, 0.75, 1.0))
    paths = simulate_ensemble(spec, 16, base_seed=90)
    singles = []
    accum = None
    for path in paths:
        proc = EmpiricalMeasureProcess.from_path(path)
        parts = em_sde_decomposition(proc, [0.0, 0.0, 1.0], spec)
        singles.append(abs(parts["martingale"][-1]))
        accum = parts["martingale"] if accum is None else accum + parts["martingale"]
    ensemble = abs(accum[-1]) / len(paths)
    assert ensemble <= np.median(singles)
