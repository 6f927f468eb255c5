"""Tests for eigenflow.flows.

Pins the noise normalization (entry second moments 2 dt/n complex,
dt/n real), Euler step algebra on cases solvable by hand, recording and
reproducibility contracts, thread-count invariance, and the superlinear
coefficient-growth warning.
"""

import logging

import numpy as np
import pytest

from eigenflow import (
    FlowSpec,
    NumericalError,
    SpectralFunction,
    ValidationError,
    euler_step,
    replica_stream,
    sample_noise,
    simulate_ensemble,
    simulate_path,
)

ZERO = SpectralFunction.constant(0.0)
ONE = SpectralFunction.constant(1.0)
HALF = SpectralFunction.constant(0.5)


def _flat_spec(n, field="complex", dt=1e-3, t_grid=(0.0, 1.0), b=ZERO):
    return FlowSpec(
        n=n,
        g=HALF,
        h=ONE,
        b=b,
        initial_spectrum=np.zeros(n),
        field=field,
        dt=dt,
        t_grid=t_grid,
        name="flat",
    )


# ---------------------------------------------------------------------------
# noise sampling


def test_noise_second_moment_complex():
    rng = np.random.default_rng(41)
    n, dt, draws = 64, 0.01, 100
    sq = np.concatenate(
        [np.abs(sample_noise(n, "complex", dt, rng).dw.ravel()) ** 2 for _ in range(draws)]
    )
    target = 2.0 * dt / n
    # |dw|^2 is (dt/n) chi^2_2: variance 8 (dt/n)^2.
    stderr = np.sqrt(8.0 / sq.size) * (dt / n)
    assert abs(sq.mean() - target) <= 4.0 * stderr


def test_noise_second_moment_real():
    rng = np.random.default_rng(42)
    n, dt, draws = 64, 0.01, 100
    sq = np.concatenate(
        [sample_noise(n, "real", dt, rng).dw.ravel() ** 2 for _ in range(draws)]
    )
    target = dt / n
    stderr = np.sqrt(2.0 / sq.size) * (dt / n)
    assert abs(sq.mean() - target) <= 4.0 * stderr
    assert not np.iscomplexobj(sample_noise(n, "real", dt, rng).dw)


def test_noise_zero_mean():
    rng = np.random.default_rng(43)
    n, dt, draws = 64, 0.01, 100
    vals = np.concatenate(
        [sample_noise(n, "complex", dt, rng).dw.ravel() for _ in range(draws)]
    )
    stderr = np.sqrt(dt / n / vals.size)  # per real component
    assert abs(vals.real.mean()) <= 4.0 * stderr
    assert abs(vals.imag.mean()) <= 4.0 * stderr


def test_noise_deterministic_given_stream():
    a = sample_noise(5, "complex", 0.1, np.random.default_rng(99)).dw
    b = sample_noise(5, "complex", 0.1, np.random.default_rng(99)).dw
    assert np.array_equal(a, b)


def test_noise_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_noise(4, "quaternion", 0.1, rng)
    with pytest.raises(ValidationError):
        sample_noise(4, "real", 0.0, rng)


# ---------------------------------------------------------------------------
# euler_step


def test_euler_step_pure_drift():
    n, dt, c = 4, 0.25, 3.0
    spec = FlowSpec(
        n=n,
        g=ZERO,
        h=ONE,
        b=SpectralFunction.constant(c),
        initial_spectrum=np.zeros(n),
        dt=dt,
        t_grid=(0.0, dt),
    )
    x = np.diag(np.arange(n, dtype=float)).astype(complex)
    noise = sample_noise(n, "complex", dt, np.random.default_rng(1))
    out = euler_step(x, spec, noise)
    assert np.allclose(out, x + (c / n) * dt * np.eye(n), atol=1e-15)

    prescaled = FlowSpec(
        n=n,
        g=ZERO,
        h=ONE,
        b=SpectralFunction.constant(c),
        initial_spectrum=np.zeros(n),
        dt=dt,
        t_grid=(0.0, dt),
        drift_prescaled=True,
    )
    out = euler_step(x, prescaled, noise)
    assert np.allclose(out, x + c * dt * np.eye(n), atol=1e-15)


def test_euler_step_scalar_variance():
    # n = 1, g h = 1/2: the increment is Re dW, of variance dt.
    spec = _flat_spec(1, dt=0.04)
    rng = np.random.default_rng(44)
    x = np.zeros((1, 1), dtype=complex)
    incs = np.array(
        [
            euler_step(x, spec, sample_noise(1, "complex", spec.dt, rng))[0, 0].real
            for _ in range(20000)
        ]
    )
    stderr = spec.dt * np.sqrt(2.0 / incs.size)
    assert abs(np.mean(incs**2) - spec.dt) <= 4.0 * stderr
    assert abs(np.mean(incs)) <= 4.0 * np.sqrt(spec.dt / incs.size)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_output_hermitian(field):
    n = 6
    spec = FlowSpec(
        n=n,
        g=SpectralFunction.sqrt_abs_poly([0.0, 1.0]),
        h=ONE,
        b=SpectralFunction.constant(2.5),
        initial_spectrum=np.linspace(0.5, 2.0, n),
        field=field,
        dt=1e-3,
        t_grid=(0.0, 1e-3),
    )
    dtype = complex if field == "complex" else float
    x = np.diag(np.linspace(0.5, 2.0, n)).astype(dtype)
    out = euler_step(x, spec, sample_noise(n, field, spec.dt, np.random.default_rng(2)))
    assert np.allclose(out, out.conj().T, atol=1e-15)
    if field == "real":
        assert not np.iscomplexobj(out)


def test_euler_step_dimension_mismatch():
    spec = _flat_spec(3)
    noise = sample_noise(4, "complex", spec.dt, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        euler_step(np.zeros((3, 3), dtype=complex), spec, noise)


# ---------------------------------------------------------------------------
# simulate_path


def test_simulate_path_frozen_flow():
    init = np.array([3.0, 1.0, 2.0])
    spec = FlowSpec(
        n=3,
        g=ZERO,
        h=ONE,
        b=ZERO,
        initial_spectrum=init,
        dt=0.01,
        t_grid=(0.0, 0.05, 0.1),
    )
    path = simulate_path(spec, 0)
    assert path.spectra.shape == (3, 3)
    for row in path.spectra:
        assert np.allclose(row, np.sort(init), atol=1e-14)
    assert path.diagnostics.min_eigenvalue == 1.0
    assert path.diagnostics.max_eigenvalue == 3.0


def test_simulate_path_records_initial_spectrum():
    spec = _flat_spec(8, t_grid=(0.0, 0.02), dt=0.01)
    path = simulate_path(spec, 7)
    assert np.allclose(path.spectra[0], np.zeros(8), atol=1e-14)
    assert np.array_equal(path.t_grid, [0.0, 0.02])


def test_simulate_path_deterministic():
    spec = _flat_spec(6, t_grid=(0.0, 0.05), dt=0.01)
    a = simulate_path(spec, 123).spectra
    b = simulate_path(spec, 123).spectra
    c = simulate_path(spec, 124).spectra
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_path_reports_explosion():
    spec = FlowSpec(
        n=2,
        g=ZERO,
        h=ONE,
        b=SpectralFunction.constant(1e308),
        initial_spectrum=np.zeros(2),
        dt=1.0,
        t_grid=(0.0, 3.0),
        drift_prescaled=True,
    )
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericalError, match="t="):
        simulate_path(spec, 0)


def test_scaling_consistency_across_n():
    """The n^{-1/2} noise scaling makes ensemble moments n-independent:
    the flat flow's mean second moment is t at every matrix size."""
    t = 0.5
    means = {}
    for n in (16, 32):
        spec = _flat_spec(n, dt=2e-3, t_grid=(0.0, t))
        paths = simulate_ensemble(spec, 12, base_seed=50)
        m2 = np.array([np.mean(p.spectra[-1] ** 2) for p in paths])
        means[n] = (m2.mean(), m2.std(ddof=1) / np.sqrt(m2.size))
    for n, (mean, se) in means.items():
        assert abs(mean - t) <= 3.0 * se + 0.01, f"n={n}: m2={mean}"


# ---------------------------------------------------------------------------
# ensembles and replica streams


def test_ensemble_matches_manual_replica_stream():
    spec = _flat_spec(5, t_grid=(0.0, 0.03), dt=0.01)
    ens = simulate_ensemble(spec, 1, base_seed=77)
    manual = simulate_path(spec, replica_stream(77, 0))
    assert np.array_equal(ens[0].spectra, manual.spectra)
    assert ens[0].replica == 0


def test_ensemble_thread_count_invariance():
    spec = _flat_spec(5, t_grid=(0.0, 0.03), dt=0.01)
    serial = simulate_ensemble(spec, 6, base_seed=88, threads=1)
    threaded = simulate_ensemble(spec, 6, base_seed=88, threads=4)
    assert [p.replica for p in serial] == [p.replica for p in threaded] == list(range(6))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.spectra, b.spectra)


def test_replica_streams_are_independent():
    a = replica_stream(9, 0).standard_normal(4)
    b = replica_stream(9, 1).standard_normal(4)
    assert not np.array_equal(a, b)
    again = replica_stream(9, 0).standard_normal(4)
    assert np.array_equal(a, again)


# ---------------------------------------------------------------------------
# growth warning and validation


def test_superlinear_growth_warns(caplog):
    spec = FlowSpec(
        n=6,
        g=SpectralFunction.from_poly([0.0, 1.0]),  # g^2 = x^2
        h=ONE,
        b=ZERO,
        initial_spectrum=np.linspace(0.5, 3.0, 6),
        field="complex",
        dt=1e-3,
        t_grid=(0.0, 0.01),
        drift_prescaled=True,
        name="quadratic",
    )
    with caplog.at_level(logging.WARNING, logger="eigenflow.flows"):
        simulate_path(spec, 0)
    assert any("superlinear" in rec.message for rec in caplog.records)


def test_linear_growth_does_not_warn(caplog):
    sqrt_x = SpectralFunction.sqrt_abs_poly([0.0, 1.0])
    spec = FlowSpec(
        n=6,
        g=sqrt_x,
        h=sqrt_x,  # g^2 + h^2 = 2|x|: exactly linear
        b=ZERO,
        initial_spectrum=np.linspace(0.5, 3.0, 6),
        field="complex",
        dt=1e-3,
        t_grid=(0.0, 0.01),
        drift_prescaled=True,
        name="linear",
    )
    with caplog.at_level(logging.WARNING, logger="eigenflow.flows"):
        simulate_path(spec, 0)
    assert not [rec for rec in caplog.records if "superlinear" in rec.message]


def test_flow_spec_validation():
    with pytest.raises(ValidationError):
        FlowSpec(n=3, g=ONE, h=ONE, b=ZERO, initial_spectrum=np.zeros(3), t_grid=(0.5, 1.0))
    with pytest.raises(ValidationError):
        FlowSpec(n=3, g=ONE, h=ONE, b=ZERO, initial_spectrum=np.zeros(4))
    with pytest.raises(ValidationError):
        FlowSpec(n=3, g=ONE, h=ONE, b=ZERO, initial_spectrum=np.zeros(3), dt=0.0)
    with pytest.raises(ValidationError):
        FlowSpec(n=3, g=ONE, h=ONE, b=ZERO, initial_spectrum=np.zeros(3), field="octonion")
    # record times off the step grid: 0.0004 would be recorded at step 0
    # and 0.0015 at step 2 (t = 0.002)
    with pytest.raises(ValidationError, match="multiples of dt"):
        _flat_spec(2, dt=1e-3, t_grid=(0.0, 0.0004, 0.0015))
    with pytest.raises(ValidationError, match="multiples of dt"):
        _flat_spec(2, dt=0.01, t_grid=(0.0, 0.025))
    # float grids that are dt multiples up to rounding are accepted
    assert _flat_spec(2, dt=1e-3, t_grid=(0.0, 0.2 * 3 / 4)).t_grid[-1] == 0.2 * 3 / 4
    assert _flat_spec(2, dt=0.01, t_grid=(0.0, 0.03)).t_grid[-1] == 0.03


def test_beta_property():
    assert _flat_spec(2, field="complex").beta == 2
    assert _flat_spec(2, field="real").beta == 1
