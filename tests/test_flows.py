"""Tests for eigenflow.flows.

Pins the noise normalization (entry second moments 2 dt/n complex,
dt/n real), Euler step algebra on cases solvable by hand, the eigenframe
spectrum step against the matrix step (exactly for one step, in law over
many), record-to-record stepping of flat flows, projection diagnostics,
recording and reproducibility contracts, the replica-block stepper against
a per-replica loop (bit for bit), thread-count invariance, the free OU
finite-n identity of the Euler scheme, and the superlinear coefficient-growth
warning.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

from eigenflow import (
    ExperimentConfig,
    FlowSpec,
    NoiseIncrement,
    NumericalError,
    SpectralFunction,
    ValidationError,
    euler_step,
    flows,
    matrix_euler_step,
    replica_stream,
    sample_noise,
    simulate_ensemble,
    simulate_path,
)
from eigenflow.cauchy import free_ou_variance
from eigenflow.presets import build_flow_spec

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
# euler_step (spectrum, eigenframe) and matrix_euler_step (matrix oracle)

SQRT_X = SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|")
COEFFICIENTS = {
    "wishart": (SQRT_X, ONE, SpectralFunction.constant(2.5)),
    "jacobi": (
        SQRT_X,
        SpectralFunction.sqrt_abs_poly([1.0, -1.0], name="sqrt|1-x|"),
        SpectralFunction.from_poly([3.0, -6.0]),
    ),
    "constant": (HALF, ONE, SpectralFunction.constant(0.3)),
}


def _spec(n, coefficients, field="complex", dt=1e-3, t_grid=None):
    g, h, b = COEFFICIENTS[coefficients]
    return FlowSpec(
        n=n,
        g=g,
        h=h,
        b=b,
        initial_spectrum=np.linspace(0.2, 0.8, n),
        field=field,
        dt=dt,
        t_grid=t_grid or (0.0, dt),
        name=coefficients,
    )


def _haar(n, field, rng):
    if field == "complex":
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
    w = np.arange(n, dtype=float)
    noise = sample_noise(n, "complex", dt, np.random.default_rng(1))
    out = matrix_euler_step(np.diag(w).astype(complex), spec, noise)
    assert np.allclose(out, np.diag(w) + c * dt * np.eye(n), atol=1e-15)
    assert np.allclose(euler_step(w, spec, noise), w + c * dt, atol=1e-15)


def test_euler_step_scalar_variance():
    # n = 1, g h = 1/2: the increment is Re dW, of variance dt.
    spec = _flat_spec(1, dt=0.04)
    rng = np.random.default_rng(44)
    x = np.zeros((1, 1), dtype=complex)
    incs = np.array(
        [
            matrix_euler_step(x, spec, sample_noise(1, "complex", spec.dt, rng))[0, 0].real
            for _ in range(20000)
        ]
    )
    stderr = spec.dt * np.sqrt(2.0 / incs.size)
    assert abs(np.mean(incs**2) - spec.dt) <= 4.0 * stderr
    assert abs(np.mean(incs)) <= 4.0 * np.sqrt(spec.dt / incs.size)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_output_hermitian(field):
    n = 6
    spec = _spec(n, "wishart", field=field)
    dtype = complex if field == "complex" else float
    x = np.diag(np.linspace(0.2, 0.8, n)).astype(dtype)
    out = matrix_euler_step(x, spec, sample_noise(n, field, spec.dt, np.random.default_rng(2)))
    assert np.allclose(out, out.conj().T, atol=1e-15)
    if field == "real":
        assert not np.iscomplexobj(out)


def test_euler_step_dimension_mismatch():
    spec = _flat_spec(3)
    noise = sample_noise(4, "complex", spec.dt, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        matrix_euler_step(np.zeros((3, 3), dtype=complex), spec, noise)
    with pytest.raises(ValidationError):
        euler_step(np.zeros(3), spec, noise)


@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_is_matrix_step_in_eigenframe(field, coefficients):
    """With X = V diag(w) V*, the spectrum step fed V* dW V returns exactly
    the eigenvalues of the matrix step fed dW."""
    n, dt = 7, 0.05
    rng = np.random.default_rng(17)
    spec = _spec(n, coefficients, field=field, dt=dt)
    w = np.sort(rng.uniform(0.1, 0.9, n))
    v = _haar(n, field, rng)
    noise = sample_noise(n, field, dt, rng)
    rotated = NoiseIncrement(n=n, field=field, dt=dt, dw=v.conj().T @ noise.dw @ v)
    expected = np.linalg.eigvalsh(matrix_euler_step((v * w) @ v.conj().T, spec, noise))
    out = euler_step(w, spec, rotated)
    assert np.all(np.diff(out) >= 0.0)
    assert np.allclose(out, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_matches_matrix_step_in_law(field):
    """Ensemble m1..m3 after 50 steps (n = 6) agree within 4 SE between the
    spectrum stepper and a loop over the matrix step."""
    n, steps, dt, replicas = 6, 50, 0.01, 400
    spec = _spec(n, "jacobi", field=field, dt=dt, t_grid=(0.0, steps * dt))
    ks = np.arange(1, 4)
    fast = np.array(
        [
            np.mean(p.spectra[-1][:, None] ** ks, axis=0)
            for p in simulate_ensemble(spec, replicas, base_seed=61)
        ]
    )
    slow = np.empty_like(fast)
    for r in range(replicas):
        rng = replica_stream(62, r)
        x = np.diag(spec.initial_spectrum).astype(complex if field == "complex" else float)
        for _ in range(steps):
            x = matrix_euler_step(x, spec, sample_noise(n, field, dt, rng))
        slow[r] = np.mean(np.linalg.eigvalsh(x)[:, None] ** ks, axis=0)
    se = np.sqrt(fast.var(axis=0, ddof=1) / replicas + slow.var(axis=0, ddof=1) / replicas)
    assert np.all(np.abs(fast.mean(axis=0) - slow.mean(axis=0)) <= 4.0 * se)


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
    )
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericalError, match="t="):
        simulate_path(spec, 0)
    # a drift that turns NaN past x = 0.5; eigvalsh alone would not notice it
    nan_drift = SpectralFunction(fn=lambda x: np.where(x > 0.5, np.nan, 1.0), name="nan")
    spec = FlowSpec(
        n=2,
        g=ZERO,
        h=ONE,
        b=nan_drift,
        initial_spectrum=np.zeros(2),
        dt=0.25,
        t_grid=(0.0, 2.0),
        name="nan_past_half",
    )
    with pytest.raises(NumericalError, match=r"'nan_past_half' \(n=2\).* at t=1$"):
        simulate_path(spec, 0)


@pytest.mark.parametrize("block_entries", [flows._BLOCK_ENTRIES, 2 * 2])
def test_ensemble_names_the_non_finite_replica(monkeypatch, block_entries):
    """Replica 1 of 3 draws a NaN increment at its third step; the error
    names replica 1 and the time, whether the replicas share one block or
    each steps in a block of its own."""
    monkeypatch.setattr(flows, "_BLOCK_ENTRIES", block_entries)
    spec = _flat_spec(2, dt=0.01, t_grid=(0.0, 0.05), b=SpectralFunction.from_poly([0.0, 0.1]))
    spec = replace(spec, name="x")
    replica_1 = {}
    real_stream = flows.replica_stream

    def tagged_stream(base_seed, replica):
        stream = real_stream(base_seed, replica)
        if replica == 1:
            replica_1.update(stream=stream, draws=0)
        return stream

    def poisoned_noise(n, field, dt, stream):
        noise = sample_noise(n, field, dt, stream)
        if stream is replica_1.get("stream"):
            replica_1["draws"] += 1
            if replica_1["draws"] == 3:
                return replace(noise, dw=np.full_like(noise.dw, np.nan))
        return noise

    monkeypatch.setattr(flows, "replica_stream", tagged_stream)
    monkeypatch.setattr(flows, "sample_noise", poisoned_noise)
    with pytest.raises(NumericalError) as caught:
        simulate_ensemble(spec, 3, base_seed=5)
    assert str(caught.value) == (
        "flow 'x' (n=2): step matrix is not finite in replica 1 at t=0.03"
    )
    assert caught.value.replica == 1


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


def test_flat_flow_steps_record_to_record(monkeypatch):
    """A flat flow draws one increment per record gap; at beta = 2 its
    ensemble m2 = t and m4 = t^2 (2 + 1/n^2) hold exactly at finite n."""
    n, t_grid = 8, (0.0, 0.25, 0.5, 1.0)
    spec = _flat_spec(n, dt=1e-3, t_grid=t_grid)
    draws = []

    def counting_noise(n, field, dt, stream):
        draws.append(dt)
        return sample_noise(n, field, dt, stream)

    monkeypatch.setattr(flows, "sample_noise", counting_noise)
    simulate_path(spec, 0)
    assert np.allclose(draws, np.diff(t_grid), rtol=1e-12, atol=0.0)
    paths = simulate_ensemble(spec, 2000, base_seed=63)
    for ti, t in enumerate(t_grid[1:], start=1):
        rows = np.array([p.spectra[ti] for p in paths])
        for k, exact in ((2, t), (4, t * t * (2.0 + 1.0 / n**2))):
            m = np.mean(rows**k, axis=1)
            se = m.std(ddof=1) / np.sqrt(m.size)
            assert abs(m.mean() - exact) <= 4.0 * se, (t, k, m.mean(), exact)


def test_projection_clamps_and_reports_exit():
    # sqrt|x| diffusion from just above 0 with no drift leaves [0, inf)
    spec = FlowSpec(
        n=6,
        g=SQRT_X,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.full(6, 1e-3),
        field="real",
        dt=1e-2,
        t_grid=(0.0, 0.1, 0.2),
        projection="nonneg",
    )
    diags = simulate_path(spec, 4).diagnostics
    assert diags.clamp_events > 0
    assert diags.first_domain_exit is not None
    assert 0.0 < diags.first_domain_exit <= 0.2
    assert diags.min_eigenvalue >= 0.0
    free = simulate_path(replace(spec, projection="none"), 4).diagnostics
    assert free.clamp_events == 0 and free.first_domain_exit is None


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


def _oracle_path(spec, stream):
    """The per-replica stepping loop that the replica blocks replaced: one
    1-D euler_step per step, record-to-record for unprojected constant
    coefficients. Returns the recorded spectra and the clamp diagnostics."""
    dt = spec.dt
    record_steps = [int(round(t / dt)) for t in spec.t_grid]
    if spec.is_constant_coefficients and spec.projection == "none":
        step_ends = record_steps
    else:
        step_ends = range(record_steps[-1] + 1)
    w = np.sort(spec.initial_spectrum)
    spectra = [w]
    clamps, first_exit, info = 0, None, {}
    for prev, step in zip(step_ends, step_ends[1:]):
        noise = sample_noise(spec.n, spec.field, (step - prev) * dt, stream)
        w = euler_step(w, spec, noise, info=info)
        if info["clamped"]:
            clamps += info["clamped"]
            if first_exit is None:
                first_exit = step * dt
        if step in record_steps:
            spectra.append(w)
    return np.array(spectra), clamps, first_exit


BLOCK_CASES = {
    "complex-polynomial": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.05, 0.2)), 7, None),
    "real-polynomial": (_spec(5, "wishart", field="real", dt=0.01, t_grid=(0.0, 0.1)), 7, None),
    "constant": (_spec(5, "constant", dt=0.01, t_grid=(0.0, 0.1, 0.3)), 7, None),
    "nonneg-clamps": (
        FlowSpec(
            n=5,
            g=SQRT_X,
            h=ONE,
            b=ZERO,
            initial_spectrum=np.full(5, 1e-3),
            field="real",
            dt=1e-2,
            t_grid=(0.0, 0.1, 0.2),
            projection="nonneg",
        ),
        7,
        None,
    ),
    "one-replica": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.1)), 1, None),
    # blocks of 3, 3 and 1 replicas
    "three-blocks": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.1)), 7, 3 * 5 * 5 + 4),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_ensemble_blocks_match_per_replica_loop(monkeypatch, case):
    """simulate_ensemble steps replicas as stacked blocks; spectra and
    diagnostics equal the per-replica loop on the same streams bit for bit."""
    spec, replicas, block_entries = BLOCK_CASES[case]
    if block_entries is not None:
        monkeypatch.setattr(flows, "_BLOCK_ENTRIES", block_entries)
    paths = simulate_ensemble(spec, replicas, base_seed=21)
    assert [p.replica for p in paths] == list(range(replicas))
    clamped = 0
    for r, path in enumerate(paths):
        spectra, clamps, first_exit = _oracle_path(spec, replica_stream(21, r))
        assert np.array_equal(path.spectra, spectra)
        assert np.array_equal(path.t_grid, spec.t_grid)
        diags = path.diagnostics
        assert diags.clamp_events == clamps
        assert diags.first_domain_exit == first_exit
        assert diags.min_eigenvalue == spectra[:, 0].min()
        assert diags.max_eigenvalue == spectra[:, -1].max()
        clamped += clamps
    assert (clamped > 0) == (spec.projection != "none")


@pytest.mark.parametrize("n", [8, 16])
def test_free_ou_euler_second_moment_is_exact_at_finite_n(n):
    """Each Euler step of free_ou scales m2 by (1 + theta dt)^2 and adds
    sigma^2 dt in mean at beta = 2, so E m2(K dt) is a geometric sum at
    every n. At theta = -1, sigma = 1, dt = 0.01, t = 1 that sum lies
    2.9e-3 above the exact flow's free_ou_variance: the Euler bias."""
    theta, sigma, dt, t = -1.0, 1.0, 0.01, 1.0
    replicas = 4000 // n  # SE about 3e-3 at either n
    cfg = ExperimentConfig(
        preset="free_ou", theta=theta, sigma=sigma, dt=dt, t_grid=(0.0, t), n_list=(n,)
    )
    spec = build_flow_spec(cfg, n)
    paths = simulate_ensemble(spec, replicas, base_seed=70 + n)
    m2 = np.array([np.mean(p.spectra[-1] ** 2) for p in paths])
    q = (1.0 + theta * dt) ** 2
    euler = sigma**2 * dt * (q ** round(t / dt) - 1.0) / (q - 1.0)
    se = m2.std(ddof=1) / np.sqrt(replicas)
    assert abs(m2.mean() - euler) <= 4.0 * se, (m2.mean(), euler, se)
    bias = euler - free_ou_variance(theta, sigma, t)
    assert 2.8e-3 < bias < 3.0e-3, bias


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
