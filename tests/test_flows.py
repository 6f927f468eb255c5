"""Tests for eigenflow.flows.

Pins the noise normalization (entry second moments 2 dt/n complex,
dt/n real), Euler step algebra on cases solvable by hand, the dW-form
eigenframe step against the matrix step (exactly for one step), the
variance-profile step matrix against the dW form (the same mean and
covariance exactly, the same law after one step, n^2 normals per replica
step, and the eigvalsh lower-triangle contract it rests on), the spectrum
stepper against the matrix step in law over many steps, record-to-record
stepping of flat flows, projection diagnostics (euler_step itself does not
clip), recording and reproducibility contracts, the finiteness check (a NaN
or inf in a normal, g^2, h^2 or b names its replica and time), the
replica-block stepper against a per-replica loop that clips and counts
itself and builds its noise profile every step (bit for bit, flat flows
with recurring record gaps included), the block's noise profile (built
once per record gap of a flat flow, every step otherwise) and its
allocation budget (no step-sized temporary, by tracemalloc), invariance
under the replica-process split (and its worker cap), the free OU finite-n
identity of the Euler scheme, and the superlinear coefficient-growth
warning (read from the coefficients' degrees).
"""

import concurrent.futures
import logging
import os
import threading
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import astuple, replace

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
from eigenflow.limits import free_ou_variance
from eigenflow.presets import build_flow_spec
from stepper_oracles import dw_euler_step, dw_step_matrix

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


def _oracle_complex_noise(n, dt, seed):
    # the expression the in-place assembly replaced
    z = np.random.default_rng(seed).standard_normal((2, n, n))
    return np.sqrt(dt / n) * (z[0] + 1j * z[1])


@pytest.mark.parametrize("n", [1, 2, 25, 50, 200])
@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.37])
def test_complex_noise_is_bit_identical_to_the_expression_form(n, dt):
    for seed in range(5):
        dw = sample_noise(n, "complex", dt, np.random.default_rng(seed)).dw
        assert dw.shape == (n, n) and dw.dtype == np.complex128
        assert dw.tobytes() == _oracle_complex_noise(n, dt, seed).tobytes()


def test_noise_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_noise(4, "quaternion", 0.1, rng)
    with pytest.raises(ValidationError):
        sample_noise(4, "real", 0.0, rng)


# ---------------------------------------------------------------------------
# euler_step (spectrum, eigenframe) and matrix_euler_step (matrix oracle)

SQRT_X = SpectralFunction.sqrt_abs_poly([0.0, 1.0])
COEFFICIENTS = {
    "wishart": (SQRT_X, ONE, SpectralFunction.constant(2.5)),
    "jacobi": (
        SQRT_X,
        SpectralFunction.sqrt_abs_poly([1.0, -1.0]),
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


def _normals(stream, spec, *replicas):
    """The standard normals of one euler_step of ``spec`` (a leading replica
    axis if given), drawn in one call."""
    return stream.standard_normal(replicas + (spec.n, spec.n))


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
    rng = np.random.default_rng(1)
    noise = sample_noise(n, "complex", dt, rng)
    out = matrix_euler_step(np.diag(w).astype(complex), spec, noise)
    assert np.allclose(out, np.diag(w) + c * dt * np.eye(n), atol=1e-15)
    z = _normals(rng, spec, 1)
    assert np.allclose(euler_step(w[None], spec, z, dt), w + c * dt, atol=1e-15)


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
    rng = np.random.default_rng(0)
    noise = sample_noise(4, "complex", spec.dt, rng)
    with pytest.raises(ValidationError):
        matrix_euler_step(np.zeros((3, 3), dtype=complex), spec, noise)
    with pytest.raises(ValidationError):
        euler_step(np.zeros((1, 3)), spec, _normals(rng, _flat_spec(4), 1), spec.dt)
    with pytest.raises(ValidationError):  # two replicas, normals for three
        euler_step(np.zeros((2, 3)), spec, _normals(rng, spec, 3), spec.dt)
    with pytest.raises(ValidationError, match=r"an \(R, 3\) stack"):  # one spectrum, no stack
        euler_step(np.zeros(3), spec, _normals(rng, spec), spec.dt)


def test_euler_step_does_not_project():
    """A step returns the scheme's eigenvalues as they are: a projected
    spec steps bit for bit as its unprojected twin, below its domain too.
    Only the block stepper clips."""
    spec = FlowSpec(
        n=6,
        g=SQRT_X,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.full(6, 1e-3),
        field="real",
        dt=1e-2,
        t_grid=(0.0, 1e-2),
        projection="nonneg",
    )
    w = np.tile(spec.initial_spectrum, (4, 1))
    z = _normals(np.random.default_rng(5), spec, 4)
    stepped = euler_step(w, spec, z, spec.dt)
    assert stepped.min() < 0.0
    free = euler_step(w, replace(spec, projection="none"), z, spec.dt)
    assert stepped.tobytes() == free.tobytes()


@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_assembles_in_a_strided_out(field):
    """A caller's ``out`` need not be C-contiguous: assembled in a stack of
    column-major matrices, a step returns the same eigenvalues bit for bit
    (its drift reaches the diagonal through a view, not a copy)."""
    spec = _spec(5, "jacobi", field=field)
    w = np.tile(spec.initial_spectrum, (3, 1))
    z = _normals(np.random.default_rng(12), spec, 3)
    column_major = np.swapaxes(np.zeros((3, 5, 5), complex if field == "complex" else float), 1, 2)
    stepped = euler_step(w, spec, z, spec.dt, out=column_major)
    assert stepped.tobytes() == euler_step(w, spec, z, spec.dt).tobytes()


@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
@pytest.mark.parametrize("field", ["complex", "real"])
def test_euler_step_is_matrix_step_in_eigenframe(field, coefficients):
    """With X = V diag(w) V*, the dW-form spectrum step fed V* dW V returns
    exactly the eigenvalues of the matrix step fed dW."""
    n, dt = 7, 0.05
    rng = np.random.default_rng(17)
    spec = _spec(n, coefficients, field=field, dt=dt)
    w = np.sort(rng.uniform(0.1, 0.9, n))
    v = _haar(n, field, rng)
    noise = sample_noise(n, field, dt, rng)
    rotated = NoiseIncrement(n=n, field=field, dt=dt, dw=v.conj().T @ noise.dw @ v)
    expected = np.linalg.eigvalsh(matrix_euler_step((v * w) @ v.conj().T, spec, noise))
    out = dw_euler_step(w, spec, rotated)
    assert np.all(np.diff(out) >= 0.0)
    assert np.allclose(out, expected, rtol=0.0, atol=1e-10)


def _lower_coordinates(m, field):
    """The real coordinates of a Hermitian matrix that eigvalsh(UPLO="L")
    reads: Re M_ij for i >= j, then Im M_ij for i > j (complex field)."""
    n = m.shape[-1]
    parts = [m.real[np.tril_indices(n)]]
    if field == "complex":
        parts.append(m.imag[np.tril_indices(n, -1)])
    return np.concatenate(parts)


def _unit_matrices(n, scale=1.0):
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = scale
        yield e.reshape(n, n)


@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
@pytest.mark.parametrize("field", ["complex", "real"])
def test_step_matrix_covariance_equals_dw_form(field, coefficients):
    """The step matrix is linear in its Gaussian input, so its law is fixed
    by its mean and the covariance C C^T of its coefficient matrix C, read
    off by feeding unit inputs. Drawn from the variance profile (unit z) and
    in dW form (unit real and imaginary parts of dW, each of variance dt/n),
    the lower triangle has the same mean and covariance: every entry is an
    independent Gaussian of the same variance. g differs from h, so G(x, y)
    = g^2(x) h^2(y) + g^2(y) h^2(x) is not a product."""
    n, dt = 4, 0.05
    spec = _spec(n, coefficients, field=field, dt=dt)
    w = np.array([0.15, 0.4, 0.55, 0.85])
    out = np.empty((1, n, n), complex if field == "complex" else float)

    def profile(z):
        euler_step(w[None], spec, z[None], dt, out=out)
        return _lower_coordinates(out[0], field)

    def dw_form(dw):
        return _lower_coordinates(dw_step_matrix(w, spec, dw, dt), field)

    mean = profile(np.zeros((n, n)))
    assert np.array_equal(mean, dw_form(np.zeros((n, n))))
    c_new = np.array([profile(z) - mean for z in _unit_matrices(n)]).T
    s = np.sqrt(dt / n)
    inputs = list(_unit_matrices(n, s))
    if field == "complex":
        inputs += [1j * e for e in _unit_matrices(n, s)]
    c_old = np.array([dw_form(dw) - mean for dw in inputs]).T
    cov_new, cov_old = c_new @ c_new.T, c_old @ c_old.T
    assert np.allclose(cov_new, cov_old, rtol=1e-12, atol=1e-18)
    assert np.count_nonzero(np.diag(cov_new)) == mean.size  # no degenerate entry
    assert np.array_equal(cov_new, np.diag(np.diag(cov_new)))  # independent entries


@pytest.mark.parametrize("field", ["complex", "real"])
def test_one_step_matches_dw_form_in_law(field):
    """One step of 20000 stacked replicas (n = 4, jacobi coefficients, a
    large dt) from a fixed spectrum: the mean of each ordered eigenvalue and
    the ensemble m1..m3 agree within 4 SE between the variance-profile
    stepper and the dW-form oracle fed independent draws."""
    n, dt, replicas = 4, 0.05, 20000
    spec = _spec(n, "jacobi", field=field, dt=dt)
    w = np.tile([0.15, 0.4, 0.55, 0.85], (replicas, 1))
    rng = np.random.default_rng(90)
    new = euler_step(w, spec, _normals(rng, spec, replicas), dt)
    z = rng.standard_normal((replicas, 2, n, n))
    dw = np.sqrt(dt / n) * (z[:, 0] + 1j * z[:, 1] if field == "complex" else z[:, 0])
    old = dw_euler_step(w, spec, NoiseIncrement(n, field, dt, dw))
    stats = [lambda e: e] + [lambda e, k=k: np.mean(e**k, axis=1, keepdims=True) for k in (1, 2, 3)]
    for stat in stats:
        a, b = stat(new), stat(old)
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / replicas)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4.0 * se)


@pytest.mark.parametrize("coefficients", ["jacobi", "constant"])
@pytest.mark.parametrize("field", ["complex", "real"])
def test_each_step_draws_n_squared_normals_per_replica(field, coefficients):
    """After one block step each replica's stream has advanced by exactly
    n^2 standard normals, in either field."""
    n, replicas = 5, 3
    spec = _spec(n, coefficients, field=field, dt=0.01)
    streams = [replica_stream(31, r) for r in range(replicas)]
    flows._simulate_block(spec, streams, 0)
    for r, stream in enumerate(streams):
        reference = replica_stream(31, r)
        reference.standard_normal(n * n)
        assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("field", ["complex", "real"])
def test_eigvalsh_lower_reads_only_lower_triangle_and_real_diagonal(field):
    """The contract the stepper relies on: eigvalsh(UPLO="L") of a stack
    gives the same bits whatever the strict upper triangle and the
    imaginary parts of the diagonal hold."""
    n, replicas = 9, 3
    rng = np.random.default_rng(8)
    m = rng.standard_normal((replicas, n, n))
    if field == "complex":
        m = m + 1j * rng.standard_normal((replicas, n, n))
    clean = np.tril(m)
    diag = np.arange(n)
    clean[:, diag, diag] = clean[:, diag, diag].real
    expected = np.linalg.eigvalsh(clean, UPLO="L")
    assert np.array_equal(np.linalg.eigvalsh(m, UPLO="L"), expected)
    upper = np.triu_indices(n, 1)
    m[:, upper[0], upper[1]] = 1e6 * rng.standard_normal(upper[0].size)
    if field == "complex":
        m[:, diag, diag] += 1e6j * rng.standard_normal(n)
    assert np.array_equal(np.linalg.eigvalsh(m, UPLO="L"), expected)
    assert np.array_equal(np.linalg.eigvalsh(m[1], UPLO="L"), expected[1])


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
    nan_drift = SpectralFunction(fn=lambda x: np.where(x > 0.5, np.nan, 1.0))
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


def _usable_cpus(monkeypatch, count):
    """Make the replica-process split see ``count`` CPUs, so the worker path
    runs (and is capped) the same on any runner."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# (block entries, threads); the one-process cases keep their original ids
_FAILURE_CASES = [(e, threads) for threads in (1, 2) for e in (flows._BLOCK_ENTRIES, 2 * 2)]


@pytest.mark.parametrize(
    "block_entries,threads",
    _FAILURE_CASES,
    ids=[f"{e}" if t == 1 else f"{e}-threads{t}" for e, t in _FAILURE_CASES],
)
def test_ensemble_names_the_non_finite_replica(monkeypatch, block_entries, threads):
    """Replica 1 of 3 draws a NaN increment at its third step; the error
    names replica 1 and the time, whether the replicas share one block or
    each steps in a block of its own, and whether or not replica 1 steps in
    a worker process (at threads = 2 the ranges are {0} and {1, 2}). A
    failing worker's pool is shut down with its pending work cancelled."""
    monkeypatch.setattr(flows, "_BLOCK_ENTRIES", block_entries)
    _usable_cpus(monkeypatch, 2)
    spec = _flat_spec(2, dt=0.01, t_grid=(0.0, 0.05), b=SpectralFunction.from_poly([0.0, 0.1]))
    spec = replace(spec, name="x")
    replica_1 = {}
    real_stream = flows.replica_stream

    def tagged_stream(base_seed, replica):
        stream = real_stream(base_seed, replica)
        if replica == 1:
            replica_1.update(stream=stream, draws=0)
        return stream

    real_draw = flows._draw_normals

    def poisoned_draw(streams, z):
        real_draw(streams, z)
        for r, stream in enumerate(streams):
            if stream is replica_1.get("stream"):
                replica_1["draws"] += 1
                if replica_1["draws"] == 3:
                    z[r] = np.nan

    shutdowns = []
    real_shutdown = ProcessPoolExecutor.shutdown

    def recording_shutdown(self, wait=True, *, cancel_futures=False):
        shutdowns.append(cancel_futures)
        real_shutdown(self, wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(flows, "replica_stream", tagged_stream)
    monkeypatch.setattr(flows, "_draw_normals", poisoned_draw)
    monkeypatch.setattr(ProcessPoolExecutor, "shutdown", recording_shutdown)
    with pytest.raises(NumericalError) as caught:
        simulate_ensemble(spec, 3, base_seed=5, threads=threads)
    assert str(caught.value) == (
        "flow 'x' (n=2): step matrix is not finite in replica 1 at t=0.03"
    )
    assert caught.value.replica == 1
    assert shutdowns == ([True] if threads > 1 else [])
    # the parent never stepped replica 1: its failure came from the worker
    assert ("stream" in replica_1) == (threads == 1)


def _poisoned(value, bad, rows, at_call=3):
    """A coefficient that is ``value`` everywhere but ``bad`` on ``rows`` of
    the stack at its ``at_call``-th evaluation. It has no polynomial, so its
    flow steps every dt."""
    calls = []

    def fn(x):
        calls.append(x.shape)
        y = np.full_like(x, value)
        if len(calls) == at_call:
            y[rows] = bad
        return y

    return SpectralFunction(fn=fn)


@pytest.mark.parametrize("poisoned", ["g", "h", "b", "g-on-2-and-b-on-1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["complex", "real"])
def test_non_finite_coefficient_names_the_replica_and_time(field, bad, poisoned):
    """A NaN or inf in g, h or b (so in g^2, h^2 or the drift) on replica 1
    at the third step raises NumericalError naming replica 1 and t = 0.03,
    in either field: g and h through the check of the noise profile, b
    through the check of the step matrices' diagonal. With g bad on replica
    2 and b on replica 1 at the same step, the error names replica 1, the
    first whose step matrix is not finite."""
    rows = {"g": [2], "b": [1]} if poisoned == "g-on-2-and-b-on-1" else {poisoned: [1]}
    values = {"g": 0.5, "h": 1.0, "b": 0.0}
    spec = FlowSpec(
        n=3,
        **{key: _poisoned(value, bad, rows.get(key, [])) for key, value in values.items()},
        initial_spectrum=np.zeros(3),
        field=field,
        dt=0.01,
        t_grid=(0.0, 0.05),
        name="poisoned",
    )
    with pytest.raises(NumericalError) as caught:
        simulate_ensemble(spec, 3, base_seed=6)
    assert str(caught.value) == (
        "flow 'poisoned' (n=3): step matrix is not finite in replica 1 at t=0.03"
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
    """A flat flow draws one block of normals per record gap and steps it
    over the whole gap; at beta = 2 its ensemble m2 = t and m4 =
    t^2 (2 + 1/n^2) hold exactly at finite n."""
    n, t_grid = 8, (0.0, 0.25, 0.5, 1.0)
    spec = _flat_spec(n, dt=1e-3, t_grid=t_grid)
    draws, gaps = [], []
    real_draw, real_step = flows._draw_normals, flows.euler_step

    def counting_draw(streams, z):
        draws.append(len(streams))
        real_draw(streams, z)

    def recording_step(w, spec, z, dt, *args, **kwargs):
        gaps.append(dt)
        return real_step(w, spec, z, dt, *args, **kwargs)

    monkeypatch.setattr(flows, "_draw_normals", counting_draw)
    monkeypatch.setattr(flows, "euler_step", recording_step)
    simulate_path(spec, 0)
    assert draws == [1] * (len(t_grid) - 1)
    assert np.allclose(gaps, np.diff(t_grid), rtol=1e-12, atol=0.0)
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


def test_ensemble_thread_count_invariance(monkeypatch):
    """A stepping preset at threads = 1, 2 and 3, in blocks of two replicas:
    the replica ranges ({0, 1 | 2, 3, 4} and {0 | 1, 2 | 3, 4}) straddle the
    serial blocks ({0, 1 | 2, 3 | 4}), yet every spectrum and every
    diagnostic field is the same bit for bit."""
    cfg = ExperimentConfig(
        preset="wishart", alpha=2.5, dt=0.01, t_grid=(0.0, 0.05, 0.1), n_list=(4,)
    )
    spec = build_flow_spec(cfg, 4)
    monkeypatch.setattr(flows, "_BLOCK_ENTRIES", 2 * 4 * 4)
    _usable_cpus(monkeypatch, 4)
    runs = {t: simulate_ensemble(spec, 5, base_seed=88, threads=t) for t in (1, 2, 3)}
    for threads, paths in runs.items():
        assert [p.replica for p in paths] == list(range(5)), threads
        for a, b in zip(runs[1], paths):
            where = (threads, a.replica)
            assert a.spectra.tobytes() == b.spectra.tobytes(), where
            assert repr(astuple(a.diagnostics)) == repr(astuple(b.diagnostics)), where


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    each submission inline, so no process starts."""

    def __init__(self, max_workers, mp_context, initializer, initargs, started):
        started.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


@pytest.mark.parametrize("replicas,expected", [(10, 2), (2, 1)])
def test_replica_processes_are_capped_by_cpus_and_replicas(monkeypatch, replicas, expected):
    """threads = 10**6 on 3 usable CPUs starts min(3, replicas) - 1 workers
    (the caller steps the first range); the paths equal the serial run."""
    started = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers, **kw: _InlinePool(max_workers, started=started, **kw),
    )
    monkeypatch.setattr(flows, "_WORKER_JOB", None)
    _usable_cpus(monkeypatch, 3)
    spec = _flat_spec(3, dt=0.01, t_grid=(0.0, 0.02))
    paths = simulate_ensemble(spec, replicas, base_seed=4, threads=10**6)
    assert started == [expected]
    serial = simulate_ensemble(spec, replicas, base_seed=4)
    assert started == [expected]
    assert [p.spectra.tobytes() for p in paths] == [p.spectra.tobytes() for p in serial]


# projection -> its domain, written out here so that the tests pin it
DOMAINS = {"none": (-np.inf, np.inf), "nonneg": (0.0, np.inf), "unit_interval": (0.0, 1.0)}


def _oracle_path(spec, stream):
    """The per-replica stepping loop that the replica blocks replaced: one
    one-replica euler_step per step on normals drawn from the replica's
    stream, record-to-record for unprojected constant coefficients, each
    step clipped into the projection domain here and its eigenvalues
    outside the domain counted. Returns the recorded spectra and the clamp
    diagnostics."""
    dt = spec.dt
    record_steps = [int(round(t / dt)) for t in spec.t_grid]
    if spec.is_constant_coefficients and spec.projection == "none":
        step_ends = record_steps
    else:
        step_ends = range(record_steps[-1] + 1)
    lo, hi = DOMAINS[spec.projection]
    w = np.sort(spec.initial_spectrum)[None]
    spectra = [w[0]]
    clamps, first_exit = 0, None
    for prev, step in zip(step_ends, step_ends[1:]):
        stepped = euler_step(w, spec, _normals(stream, spec, 1), (step - prev) * dt)
        outside = int(np.count_nonzero((stepped < lo) | (stepped > hi)))
        w = np.clip(stepped, lo, hi)
        if outside:
            clamps += outside
            if first_exit is None:
                first_exit = step * dt
        if step in record_steps:
            spectra.append(w[0])
    return np.array(spectra), clamps, first_exit


def _custom_spec(projection, field, g2, h2, a):
    """The n = 5 spec of a projected ``custom`` preset from a point mass at a."""
    cfg = ExperimentConfig(
        preset="custom", g2=g2, h2=h2, a=a, field=field, projection=projection,
        dt=1e-2, t_grid=(0.0, 0.1, 0.2), n_list=(5,),
    )
    return build_flow_spec(cfg, 5)


# record gaps 0.1, 0.2, 0.1, 0.1 and 0.2: a gap changes, recurs and repeats
RECURRING_GAPS = (0.0, 0.1, 0.3, 0.4, 0.5, 0.7)

BLOCK_CASES = {
    "complex-polynomial": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.05, 0.2)), 7, None),
    "real-polynomial": (_spec(5, "wishart", field="real", dt=0.01, t_grid=(0.0, 0.1)), 7, None),
    "constant": (_spec(5, "constant", dt=0.01, t_grid=(0.0, 0.1, 0.3)), 7, None),
    "constant-recurring-gaps": (_spec(5, "constant", dt=0.01, t_grid=RECURRING_GAPS), 7, None),
    "real-constant-recurring-gaps": (
        _spec(5, "constant", field="real", dt=0.01, t_grid=RECURRING_GAPS), 7, None
    ),
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
    "custom-nonneg": (_custom_spec("nonneg", "real", (0.0, 1.0), (1.0,), 1e-3), 7, None),
    "custom-unit-interval": (
        _custom_spec("unit_interval", "complex", (0.0, 1.0), (1.0, -1.0), 0.995), 7, None
    ),
    "one-replica": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.1)), 1, None),
    # blocks of 3, 3 and 1 replicas
    "three-blocks": (_spec(5, "jacobi", dt=0.01, t_grid=(0.0, 0.1)), 7, 3 * 5 * 5 + 4),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_ensemble_blocks_match_per_replica_loop(monkeypatch, case):
    """simulate_ensemble steps replicas as stacked blocks; spectra and
    diagnostics equal the per-replica loop on the same streams bit for bit,
    projected flows (a FlowSpec's and two ``custom`` presets') included."""
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


def test_noise_profile_is_built_once_per_record_gap_of_a_flat_flow(monkeypatch):
    """A flat flow builds its noise profile again only when the record gap
    changes: over gaps 0.1, 0.2, 0.1, 0.1 and 0.2 it builds four, for 0.1,
    0.2, 0.1 and 0.2. A flow with non-constant coefficients builds one every
    step: 70 of dt = 0.01 on the same grid."""
    builds = []
    real_profile = flows._noise_profile

    def counting_profile(w, spec, dt, out, scratch):
        builds.append(dt)
        return real_profile(w, spec, dt, out, scratch)

    monkeypatch.setattr(flows, "_noise_profile", counting_profile)
    simulate_path(_spec(5, "constant", dt=0.01, t_grid=RECURRING_GAPS), 0)
    assert np.allclose(builds, [0.1, 0.2, 0.1, 0.2], rtol=1e-12, atol=0.0)
    builds.clear()
    simulate_path(_spec(5, "jacobi", dt=0.01, t_grid=RECURRING_GAPS), 0)
    assert builds == [0.01] * 70


def test_block_step_allocates_no_step_sized_temporary():
    """Stepping a block of 4 replicas of a non-flat complex flow at n = 128
    for three steps allocates less than one R n^2 float array beyond the
    block's three buffers (normals, step matrices and noise profile): the
    noise profile is built in its buffer, with the step matrices' storage
    as scratch, and the finiteness check reads the diagonal."""
    replicas, n = 4, 128
    spec = _spec(n, "jacobi", dt=0.01, t_grid=(0.0, 0.03))
    flows._simulate_block(spec, [replica_stream(3, r) for r in range(replicas)], 0)  # warm-up
    streams = [replica_stream(3, r) for r in range(replicas)]
    tracemalloc.start()
    try:
        flows._simulate_block(spec, streams, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = replicas * n * n * np.dtype(float).itemsize
    buffers = 4 * array  # float normals, complex step matrices, float noise profile
    assert buffers <= peak < buffers + array, (peak - buffers) / array


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


def test_replica_processes_are_not_forked_beside_other_threads(monkeypatch):
    """A caller that runs another thread steps serially: a forked child
    could inherit a lock that thread holds."""
    started = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers, **kw: _InlinePool(max_workers, started=started, **kw),
    )
    _usable_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        simulate_ensemble(_flat_spec(3, dt=0.01, t_grid=(0.0, 0.02)), 4, base_seed=4, threads=2)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert started == []


def test_superlinear_growth_warns_once_per_ensemble_with_workers(monkeypatch, caplog):
    """The growth check reads the coefficients' degrees, not the paths: at
    threads = 2 it warns once per ensemble, in the caller's process."""
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
    _usable_cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING, logger="eigenflow.flows"):
        simulate_ensemble(spec, 3, base_seed=6, threads=2)
    warned = [rec for rec in caplog.records if "superlinear" in rec.message]
    assert len(warned) == 1
    assert {rec.process for rec in warned} == {os.getpid()}


@pytest.mark.parametrize(
    "env,warns",
    [
        ({}, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "1"}, False),
        ({"MKL_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, False),
    ],
    ids=["unset", "two", "openblas", "omp", "mkl"],
)
def test_replica_processes_warn_once_without_a_single_threaded_blas(
    monkeypatch, caplog, env, warns
):
    """A call that forks workers logs one warning when no BLAS thread
    variable is 1, since each worker's BLAS threads would share the same
    CPUs; a serial call never warns."""
    for name in flows._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(flows, "_simulate_in_processes", lambda spec, seed, bounds: bounds)
    _usable_cpus(monkeypatch, 2)
    spec = _flat_spec(3, dt=0.01, t_grid=(0.0, 0.02))
    with caplog.at_level(logging.WARNING, logger="eigenflow.flows"):
        assert simulate_ensemble(spec, 4, base_seed=4, threads=2) == [0, 2, 4]
        simulate_ensemble(spec, 4, base_seed=4, threads=1)
    warned = [rec.message for rec in caplog.records if "BLAS" in rec.message]
    assert warned == (
        ["flow flat: 2 replica processes, but no BLAS thread variable is 1, so each one's"
         " BLAS threads share the same CPUs; set OPENBLAS_NUM_THREADS=1"] if warns else []
    )


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


@pytest.mark.parametrize(
    "h, warns",
    [
        (SpectralFunction.sqrt_abs_poly([1.0, 0.0, -1.0]), True),  # h^2 = |1 - x^2|
        (SpectralFunction.sqrt_abs_poly([1.0, 2.0, 0.0]), False),  # trailing zero
        (SpectralFunction(fn=lambda x: x**2), False),  # no degree: not judged
    ],
    ids=["square_poly_deg2", "trailing_zero", "no_poly"],
)
def test_growth_check_reads_the_degree_of_h_squared(h, warns, caplog):
    spec = FlowSpec(
        n=4, g=ONE, h=h, b=ZERO, initial_spectrum=np.linspace(0.5, 2.0, 4),
        dt=1e-3, t_grid=(0.0, 0.002),
    )
    with caplog.at_level(logging.WARNING, logger="eigenflow.flows"):
        simulate_path(spec, 0)
    assert bool([rec for rec in caplog.records if "superlinear" in rec.message]) == warns


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
    # each time is a multiple of dt within 1e-9 t, but both round to step 50
    with pytest.raises(
        ValidationError,
        match=r"t_grid times 0\.5 and 0\.500000000001 fall on the same step of dt=0\.01",
    ):
        _flat_spec(2, dt=0.01, t_grid=(0.0, 0.5, 0.500000000001))


def test_beta_property():
    assert _flat_spec(2, field="complex").beta == 2
    assert _flat_spec(2, field="real").beta == 1
