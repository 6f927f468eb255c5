"""Euler-Maruyama integration of matrix-valued stochastic flows.

The state is a Hermitian (complex field, beta = 2) or symmetric (real
field, beta = 1) n x n matrix evolving as

    dX = g(X) dW^(n) h(X) + h(X) d(W^(n))* g(X) + b(X) dt,

where g, h, b act spectrally and W^(n) = n^{-1/2} W for a matrix W of
i.i.d. (complex or real) standard Brownian entries. The drift b enters
the step as b(X) dt. Only the eigenvalue paths are recorded: the object
of study is the empirical spectral measure.

Eigenframe stepping: with X = V diag(w) V*, one Euler step
(:func:`matrix_euler_step`, kept as the reference) is X' = V [diag(w +
dt b(w)) + A + A*] V*, A = (g(w) h(w)^T) o (V* dW V) entrywise. V depends
only on the past and dW is bi-unitarily (real field: bi-orthogonally)
invariant, so V* dW V has the law of dW, independent of the past; the
spectrum stepper :func:`euler_step` therefore keeps only w. The step
matrix M = diag(w + dt b(w)) + A + A* has independent Gaussian entries:
off the diagonal M_ij is centred (circular in the complex field) with
variance G(w_i, w_j) beta dt/n, where G(x, y) = g^2(x) h^2(y) +
g^2(y) h^2(x) is the interaction kernel of the limit equation; on the
diagonal M_ii is real with mean w_i + dt b(w_i) and variance
2 G(w_i, w_i) dt/n. :func:`euler_step` draws M from this variance profile
directly; only its lower triangle and real diagonal carry the draw, and
``eigvalsh(UPLO="L")`` reads nothing else, so the step has exactly the
law of the matrix scheme. A projection is no part of the scheme: the
block stepper clips each step's eigenvalues into the projection domain
and counts the clamped ones. Unprojected flows with constant g, h and b,
for which Euler is exact, step straight from one record time to the next.

Noise convention: a standard complex Brownian entry is B^1 + i B^2 with
independent standard real parts, so E|W_ij(t)|^2 = 2t (real case:
E W_ij(t)^2 = t). After the n^{-1/2} scaling an increment entry has second
moment 2 dt/n (complex) or dt/n (real); :func:`sample_noise` draws such an
increment for the matrix step. This normalization is what makes the flat
Dyson flow (g^2 = 1/4, h^2 = 1, b = 0, beta = 2) converge to the
semicircle law with variance t, and is asserted by the test suite. A
spectrum step takes n^2 standard normals per replica in either field:
z_ij and z_ji are the real and imaginary parts of M_ij (i > j) in the
complex field, and the real field leaves the strict upper triangle's
normals unused.

Replica blocks: the replicas of one ensemble step together, as a stack
w of shape (R, n) with one stacked ``eigvalsh`` per step, in consecutive
blocks whose R n^2 is capped by ``_BLOCK_ENTRIES`` (memory stays O(n^2)).
A block allocates its three (R, n, n) arrays once: the normals, the step
matrices and the noise profile sigma (sqrt(G(w_i, w_j) dt/n) off the
diagonal), built in place; a step allocates nothing else of that size.
A flat flow's sigma depends on the record gap alone and is built again
only when the gap changes.

Replica processes: with ``threads`` > 1 an ensemble is cut into contiguous
replica ranges, one per worker; the caller steps the first range and
forked worker processes step the others, each range in its own blocks.
The step is eigensolver-bound and ``eigvalsh`` holds the GIL, so Python
threads ran no faster than one on a 2-core machine; processes did.

Reproducibility: a path is a pure function of its RNG stream; ensembles
derive per-replica streams from (base_seed, replica_index), and each
replica fills its slice of the block's normals from its own stream every
step, so results are independent of the block split (the stacked solve
runs the same LAPACK routine on each matrix).
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import SpectralFunction, apply_spectral, eigen, hermitize

__all__ = [
    "EigenPath",
    "FlowSpec",
    "NoiseIncrement",
    "PathDiagnostics",
    "euler_step",
    "matrix_euler_step",
    "replica_stream",
    "sample_noise",
    "simulate_ensemble",
    "simulate_path",
]

logger = logging.getLogger(__name__)

# projection -> the domain the block stepper clips each step's eigenvalues into
_DOMAINS = {"none": (-math.inf, math.inf), "nonneg": (0.0, math.inf), "unit_interval": (0.0, 1.0)}
# field -> its Dyson index beta
_DYSON_INDEX = {"complex": 2, "real": 1}
_FIELDS = tuple(_DYSON_INDEX)
# run key -> the values it may take
_CHOICES = {"field": _FIELDS, "projection": tuple(_DOMAINS)}
# cap on R * n^2 of one replica block; at the cap its float normals and
# noise profile take 4 MB each and its step matrices 8 MB (complex) or 4 MB
_BLOCK_ENTRIES = 1 << 19
# one of them set to 1 keeps each replica process's BLAS single-threaded
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True, eq=False)
class NoiseIncrement:
    """One scaled matrix noise increment Delta W^(n) = n^{-1/2} Delta W.

    ``dw`` is the already-scaled n x n increment (unconstrained, NOT
    Hermitian). Entry second moments: E|dw_ij|^2 = 2 dt/n in the complex
    field (independent real and imaginary parts, each of variance dt/n),
    E dw_ij^2 = dt/n in the real field.
    """

    n: int
    field: str
    dt: float
    dw: np.ndarray


def _check_run_grid(dt, t_grid, **choices) -> tuple[float, ...]:
    """The step size and record grid checks that a run's config and its
    :class:`FlowSpec` share, then each given ``field`` or ``projection`` in
    ``choices`` against its values; returns the grid as floats."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    grid = tuple(float(t) for t in t_grid)
    if not all(math.isfinite(t) for t in grid):
        raise ValidationError("t_grid entries must be finite")
    if not grid or grid[0] != 0.0 or any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValidationError("t_grid must be ascending and start at 0")
    for key, value in choices.items():
        if value not in _CHOICES[key]:
            raise ValidationError(f"{key} must be one of {_CHOICES[key]}")
    return grid


def _check_dimension(n) -> None:
    # bool is an Integral too, but no matrix size
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be a finite integer >= 1, got {n!r}")


def sample_noise(n: int, field: str, dt: float, stream: np.random.Generator) -> NoiseIncrement:
    """Draw one scaled noise increment from the given RNG stream.

    Deterministic given the stream state; the complex field consumes
    exactly 2 n^2 standard normals, the real field n^2.
    """
    _check_dimension(n)
    if field not in _FIELDS:
        raise ValidationError(f"field must be one of {_FIELDS}, got {field!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    scale = math.sqrt(dt / n)
    if field == "complex":
        z = stream.standard_normal((2, n, n))
        dw = np.empty((n, n), dtype=complex)
        np.multiply(scale, z[0], out=dw.real)
        np.multiply(scale, z[1], out=dw.imag)
    else:
        dw = scale * stream.standard_normal((n, n))
    return NoiseIncrement(n=n, field=field, dt=dt, dw=dw)


@dataclass(frozen=True, eq=False)
class FlowSpec:
    """Full specification of one matrix flow simulation.

    ``g``, ``h``, ``b`` are spectral coefficient functions; the drift
    ``b`` is applied as b(X) dt.
    ``projection`` optionally clamps eigenvalues back into a domain after
    each step ("nonneg" -> [0, inf), "unit_interval" -> [0, 1]); it is off
    by default because the flows of interest preserve their domains on
    their own.
    """

    n: int
    g: SpectralFunction
    h: SpectralFunction
    b: SpectralFunction
    initial_spectrum: np.ndarray
    field: str = "complex"
    dt: float = 1e-3
    t_grid: tuple = (0.0, 1.0)
    projection: str = "none"
    name: str = "custom"

    def __post_init__(self):
        _check_dimension(self.n)
        times = _check_run_grid(self.dt, self.t_grid, field=self.field, projection=self.projection)
        grid = np.array(times)
        steps = np.rint(grid / self.dt)
        off_step = np.abs(steps * self.dt - grid) > 1e-9 * grid
        if np.any(off_step):
            raise ValidationError(
                f"t_grid times must be multiples of dt={self.dt:g}; "
                f"t={times[np.argmax(off_step)]!r} is not"
            )
        shared = np.flatnonzero(np.diff(steps) <= 0)
        if shared.size:
            i = shared[0]
            raise ValidationError(
                f"t_grid times {times[i]!r} and {times[i + 1]!r} fall on the same step "
                f"of dt={self.dt:g}; each record time needs a step of its own"
            )
        init = np.asarray(self.initial_spectrum, dtype=float)
        if init.shape != (self.n,):
            raise ValidationError(f"initial_spectrum must have shape ({self.n},)")
        if not np.all(np.isfinite(init)):
            raise ValidationError("initial_spectrum must be finite")
        if self.projection == "nonneg" and np.any(init < 0):
            raise ValidationError("projection=nonneg requires a nonnegative start")
        if self.projection == "unit_interval" and (np.any(init < 0) or np.any(init > 1)):
            raise ValidationError("projection=unit_interval requires a start in [0,1]")
        object.__setattr__(self, "initial_spectrum", init)
        object.__setattr__(self, "t_grid", times)

    @property
    def beta(self) -> int:
        """Dyson index: 2 for the complex field, 1 for the real field."""
        return _DYSON_INDEX[self.field]

    @property
    def is_constant_coefficients(self) -> bool:
        return self.g.is_constant and self.h.is_constant and self.b.is_constant


@dataclass
class PathDiagnostics:
    """Path-level diagnostics over the recorded grid times.

    ``min_eigenvalue``/``max_eigenvalue`` are extrema over all recorded
    spectra; ``first_domain_exit`` is the end time of the first step whose
    spectrum left the projection domain and was clamped, if any.
    """

    min_eigenvalue: float = math.inf
    max_eigenvalue: float = -math.inf
    first_domain_exit: float | None = None
    clamp_events: int = 0


@dataclass(frozen=True, eq=False)
class EigenPath:
    """Recorded sorted eigenvalue trajectories of one simulated path."""

    t_grid: np.ndarray
    spectra: np.ndarray  # shape (len(t_grid), n), each row ascending
    diagnostics: PathDiagnostics
    replica: int = 0


def _not_finite(spec: FlowSpec, finite: np.ndarray) -> NumericalError:
    """The NumericalError of a step, given whether each replica's step
    matrix is ``finite``: it names the flow, n and the first replica whose
    matrix is not."""
    return NumericalError(
        f"flow {spec.name!r} (n={spec.n}): step matrix is not finite",
        replica=int(np.argmin(finite)),
    )


def _noise_profile(
    w: np.ndarray, spec: FlowSpec, dt: float, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the noise profile of the step matrices of the
    (R, n) stack ``w`` over a step ``dt``, and return it: sigma_ij =
    sqrt(G(w_i, w_j) dt/n) off the diagonal, sigma_ii = sqrt(2 G(w_i, w_i)
    dt/n). ``out`` and ``scratch`` are float (R, n, n) arrays that do not
    overlap; ``scratch`` takes the separable half g^2(w_i) h^2(w_j) dt/n,
    so that the half and its transpose are summed into ``out`` (a sum in
    place would overlap its own transpose, and numpy would copy). Raises
    NumericalError if some sigma is not finite, naming the first replica
    whose step matrix is then not finite.
    """
    n = spec.n
    np.multiply((spec.g(w) ** 2 * (dt / n))[:, :, None], spec.h(w)[:, None, :] ** 2, out=scratch)
    np.add(scratch, np.swapaxes(scratch, -1, -2), out=out)
    np.sqrt(out, out=out)
    diagonal = np.einsum("rii->ri", out)  # a writable view, in any layout
    diagonal *= math.sqrt(2.0)
    # sigma >= 0 and max propagates NaN, so the max is finite iff every sigma is
    if not math.isfinite(out.max()):
        # a finite sigma and a finite drift give a finite step matrix (see euler_step)
        drift = w + dt * spec.b(w)
        raise _not_finite(
            spec, np.isfinite(out).all(axis=(-2, -1)) & np.isfinite(drift).all(axis=-1)
        )
    return out


def euler_step(
    w: np.ndarray,
    spec: FlowSpec,
    z: np.ndarray,
    dt: float,
    *,
    out: np.ndarray | None = None,
    sigma: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler-Maruyama step of the replica stack ``w``, in the eigenframe.

    ``w`` holds R sorted spectra, shape (R, n), and ``z`` their standard
    normals, shape (R, n, n). Returns the (R, n) ascending eigenvalues of
    the step matrices M, drawn from their variance profile (module
    docstring), by one stacked ``eigvalsh``. With the noise profile
    ``sigma`` of :func:`_noise_profile`, M_ij = sigma_ij (z_ij + i z_ji)
    for i > j (real field: sigma_ij z_ij) and M_ii = w_i + dt b(w_i) +
    sigma_ii z_ii; ``eigvalsh(UPLO="L")`` reads nothing else of M. M is
    assembled in ``out`` if given (shape ``z.shape``, complex or float by
    field). ``sigma`` is the profile of ``w`` and ``dt``, already built and
    checked; if it is not given, the step builds one (using ``out``'s
    storage as scratch). The step does not project: :func:`_simulate_block`
    clips its result into the projection domain. Raises NumericalError,
    naming the flow and n, if a step matrix is not finite; its ``replica``
    is the index of the first such replica.
    """
    n = spec.n
    if w.ndim != 2 or w.shape[1] != n or z.shape != w.shape + (n,):
        raise ValidationError(f"euler_step takes an (R, {n}) stack and (R, {n}, {n}) normals")
    m = np.empty(z.shape, complex if spec.field == "complex" else float) if out is None else out
    if sigma is None:
        sigma = _noise_profile(w, spec, dt, np.empty(z.shape), m.real)
    if spec.field == "complex":
        np.multiply(sigma, z, out=m.real)
        np.multiply(sigma, np.swapaxes(z, -1, -2), out=m.imag)
    else:
        np.multiply(sigma, z, out=m)
    diagonal = np.einsum("rii->ri", m)
    diagonal += w + dt * spec.b(w)
    # M is checked before eigvalsh, which can return finite eigenvalues for
    # NaN input, and this check is exact: sigma^2 = G dt/n is a finite
    # double (checked when sigma was built), so sigma <= sqrt(2 DBL_MAX);
    # the normals are finite and far smaller than sqrt(DBL_MAX), so sigma z
    # cannot overflow. Only the diagonal, which adds the drift, can fail.
    if not np.isfinite(diagonal).all():
        raise _not_finite(spec, np.isfinite(m).all(axis=(-2, -1)))
    return np.linalg.eigvalsh(m, UPLO="L")


def matrix_euler_step(x: np.ndarray, spec: FlowSpec, noise: NoiseIncrement) -> np.ndarray:
    """One Euler-Maruyama step of the Hermitian matrix state ``x``, unprojected.

    Returns hermitize(x + g(x) dW h(x) + h(x) dW* g(x) + dt b(x)), with g,
    h and b applied through the eigendecomposition of ``x``.
    """
    if noise.n != spec.n:
        raise ValidationError("noise dimension does not match flow dimension")
    dw = noise.dw
    w, v = eigen(x)
    gm = apply_spectral((w, v), spec.g)
    hm = apply_spectral((w, v), spec.h)
    bm = apply_spectral((w, v), spec.b)
    return hermitize(x + gm @ dw @ hm + hm @ dw.conj().T @ gm + noise.dt * bm)


def _warn_if_superlinear_growth(spec: FlowSpec) -> None:
    """Warn when deg g^2 or deg h^2 is at least 2 (see
    :attr:`SpectralFunction.square_degree`): then g^2 + h^2 outgrows every
    K(1 + |x|). A warning is logged, never an error (the condition constrains
    coefficient families, not a single run). A coefficient with no known
    degree is not judged.
    """
    degrees = (spec.g.square_degree, spec.h.square_degree)
    if any(d is not None and d >= 2 for d in degrees):
        logger.warning(
            "flow %s: g^2+h^2 grows superlinearly (deg g^2 = %s, deg h^2 = %s)",
            spec.name,
            *degrees,
        )


def _draw_normals(streams: list, z: np.ndarray) -> None:
    """Fill ``z[r]`` with standard normals from ``streams[r]``, one call each."""
    for stream, block in zip(streams, z):
        stream.standard_normal(out=block)


def _simulate_block(spec: FlowSpec, streams: list, first_replica: int) -> list[EigenPath]:
    """Integrate one path per stream, stepping all of them as one block.

    Each grid time t is recorded after round(t / dt) steps of
    :func:`euler_step` on the (R, n) stack (FlowSpec admits only grid
    times that are multiples of dt, each on a step of its own). After each
    step of a projected flow the stack is clipped into the projection
    domain, and the clipped eigenvalues count towards each path's
    ``clamp_events`` and ``first_domain_exit``; this is the one place a
    projection applies. With constant g, h and b and no projection the
    Euler scheme is exact (its increments are Gaussian sums), so such a
    flat flow takes one step per record gap; its noise profile depends on
    the gap alone and is built again only when the gap changes. Any other
    flow builds it every step. The block owns three (R, n, n) buffers,
    allocated once: the normals, the step matrices and the noise profile;
    a step allocates no other array of that shape. Every step, each
    replica fills its slice of the normals from its own stream, so a path
    does not depend on the other streams of its block. Path r is replica
    ``first_replica + r``. Raises NumericalError, naming the replica and
    the time, if a step matrix stops being finite.
    """
    dt = spec.dt
    record_steps = [int(round(t / dt)) for t in spec.t_grid]
    record_rows = {step: row for row, step in enumerate(record_steps)}
    flat = spec.is_constant_coefficients and spec.projection == "none"
    step_ends = record_steps if flat else range(record_steps[-1] + 1)

    count = len(streams)
    w = np.tile(np.sort(spec.initial_spectrum), (count, 1))
    spectra = np.empty((count, len(record_steps), spec.n))
    spectra[:, 0] = w
    clamp_events = np.zeros(count, dtype=int)
    first_exit = np.full(count, np.nan)
    z = np.empty((count, spec.n, spec.n))
    m = np.empty_like(z, complex if spec.field == "complex" else float)
    sigma = np.empty_like(z)
    profile_gap = None  # the steps in the gap that sigma was last built for
    for prev, step in zip(step_ends, step_ends[1:]):
        _draw_normals(streams, z)
        gap = step - prev
        try:
            if not flat or gap != profile_gap:
                _noise_profile(w, spec, gap * dt, sigma, m.real)
                profile_gap = gap
            stepped = euler_step(w, spec, z, gap * dt, out=m, sigma=sigma)
        except NumericalError as exc:
            replica = first_replica + exc.replica
            raise NumericalError(
                f"{exc} in replica {replica} at t={step * dt:.6g}", replica=replica
            ) from None
        if spec.projection == "none":
            w = stepped
        else:
            w = np.clip(stepped, *_DOMAINS[spec.projection])
            clamped = np.count_nonzero(w != stepped, axis=-1)
            if clamped.any():
                clamp_events += clamped
                first_exit[np.isnan(first_exit) & (clamped > 0)] = step * dt
        if step in record_rows:
            spectra[:, record_rows[step]] = w

    paths = []
    for r, rows in enumerate(spectra):
        diags = PathDiagnostics(
            min_eigenvalue=float(rows[:, 0].min()),
            max_eigenvalue=float(rows[:, -1].max()),
            first_domain_exit=None if np.isnan(first_exit[r]) else float(first_exit[r]),
            clamp_events=int(clamp_events[r]),
        )
        paths.append(
            EigenPath(
                t_grid=np.asarray(spec.t_grid, dtype=float),
                spectra=rows,
                diagnostics=diags,
                replica=first_replica + r,
            )
        )
    return paths


def simulate_path(spec: FlowSpec, seed) -> EigenPath:
    """Integrate one path, recording sorted spectra at the grid times.

    The one-replica block of :func:`simulate_ensemble`'s stepper.
    Deterministic given the seed / RNG stream. Raises NumericalError if the
    state stops being finite, reporting the time.
    """
    _warn_if_superlinear_growth(spec)
    return _simulate_block(spec, [np.random.default_rng(seed)], 0)[0]


def replica_stream(base_seed: int, replica: int) -> np.random.Generator:
    """The RNG stream of replica ``replica`` under ``base_seed``.

    Streams are derived as SeedSequence(base_seed, spawn_key=(replica,)),
    so they are mutually independent and depend only on (base_seed,
    replica) — never on scheduling.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(base_seed, spawn_key=(replica,)))
    )


def _simulate_range(spec: FlowSpec, base_seed: int, first: int, stop: int) -> list[EigenPath]:
    """Replicas ``first`` .. ``stop - 1`` in consecutive blocks of at most
    ``_BLOCK_ENTRIES // n^2`` (at least one)."""
    per_block = max(1, _BLOCK_ENTRIES // spec.n**2)
    paths: list[EigenPath] = []
    for lo in range(first, stop, per_block):
        hi = min(lo + per_block, stop)
        paths += _simulate_block(spec, [replica_stream(base_seed, r) for r in range(lo, hi)], lo)
    return paths


# (spec, base_seed) of the ensemble a forked worker steps; set by the pool's
# initializer, whose arguments a forked child inherits instead of unpickling
# (a SpectralFunction may wrap a lambda)
_WORKER_JOB: tuple | None = None


def _adopt_job(spec: FlowSpec, base_seed: int) -> None:
    global _WORKER_JOB
    _WORKER_JOB = (spec, base_seed)


def _simulate_worker_range(first: int, stop: int) -> list[EigenPath]:
    return _simulate_range(*_WORKER_JOB, first, stop)


def _worker_count(threads: int | None, replica_count: int) -> int:
    """Processes that step one ensemble: min(threads, usable CPUs, replicas).

    One where ``threads`` is unset or 1, where the platform has no CPU
    affinity mask (and so no reliable ``fork``), and where the caller runs
    other threads, since a forked child could inherit a lock one of them
    holds.
    """
    no_fork = not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
    if not threads or threads < 2 or no_fork:
        return 1
    return min(threads, len(os.sched_getaffinity(0)), replica_count)


def _simulate_in_processes(spec: FlowSpec, base_seed: int, bounds: list[int]) -> list[EigenPath]:
    """Step range 0 here and every other range in a forked worker."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        len(bounds) - 2,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_job,
        initargs=(spec, base_seed),
    )
    try:
        futures = [
            pool.submit(_simulate_worker_range, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        paths = _simulate_range(spec, base_seed, bounds[0], bounds[1])
        for future in futures:
            paths += future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return paths


def simulate_ensemble(
    spec: FlowSpec,
    replica_count: int,
    base_seed: int,
    threads: int | None = None,
) -> list[EigenPath]:
    """Simulate independent replicas, ordered by replica index.

    Replica r runs on the stream of :func:`replica_stream`. The replicas
    are cut into ``min(threads, usable CPUs, replica_count)`` contiguous
    ranges; the caller steps the first and a forked worker process each
    other one (``threads`` unset or 1: one range, no process, no
    ``multiprocessing`` import). A range steps in consecutive blocks of at
    most ``_BLOCK_ENTRIES // n^2`` replicas (at least one). A path depends
    only on its stream, so the result is the same for every ``threads``.
    The coefficient-growth warning is logged here, once per call, and so is
    one warning per call that forks workers while none of
    ``_BLAS_THREAD_VARIABLES`` is 1: each worker's BLAS would then run its
    own threads on the same CPUs, which can make two workers slower than one. A
    NumericalError from any range (the first failing range, in replica
    order) reaches the caller with its replica and time.
    """
    if replica_count < 1:
        raise ValidationError("replica_count must be >= 1")
    _warn_if_superlinear_growth(spec)
    workers = _worker_count(threads, replica_count)
    if workers == 1:
        return _simulate_range(spec, base_seed, 0, replica_count)
    if not any(os.environ.get(name) == "1" for name in _BLAS_THREAD_VARIABLES):
        logger.warning(
            "flow %s: %d replica processes, but no BLAS thread variable is 1, so each "
            "one's BLAS threads share the same CPUs; set OPENBLAS_NUM_THREADS=1",
            spec.name,
            workers,
        )
    bounds = [replica_count * k // workers for k in range(workers + 1)]
    return _simulate_in_processes(spec, base_seed, bounds)
