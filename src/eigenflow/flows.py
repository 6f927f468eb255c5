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
spectrum stepper :func:`euler_step` therefore keeps only w and draws dW
afresh, with exactly the law of the matrix scheme. Unprojected flows with
constant g, h and b, for which Euler is exact, step straight from one
record time to the next.

Noise convention: a standard complex Brownian entry is B^1 + i B^2 with
independent standard real parts, so E|W_ij(t)|^2 = 2t (real case:
E W_ij(t)^2 = t). After the n^{-1/2} scaling an increment entry has second
moment 2 dt/n (complex) or dt/n (real). This normalization is what makes
the flat Dyson flow (g^2 = 1/4, h^2 = 1, b = 0, beta = 2) converge to the
semicircle law with variance t, and is asserted by the test suite.

Replica blocks: the replicas of one ensemble step together, as a stack
w of shape (R, n) with one stacked ``eigvalsh`` per step, in consecutive
blocks whose R n^2 is capped by ``_BLOCK_ENTRIES`` (memory stays O(n^2)).
There are no replica threads: the step is eigensolver-bound, and two
Python threads of ``eigvalsh`` ran no faster than one on a 2-core machine.

Reproducibility: a path is a pure function of its RNG stream; ensembles
derive per-replica streams from (base_seed, replica_index), and each
replica draws its own increment from its own stream every step, so results
are independent of the block split (the stacked solve runs the same LAPACK
routine on each matrix).
"""

from __future__ import annotations

import logging
import math
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

# projection -> the domain each step's eigenvalues are clipped into
_DOMAINS = {"none": (-math.inf, math.inf), "nonneg": (0.0, math.inf), "unit_interval": (0.0, 1.0)}
_PROJECTIONS = tuple(_DOMAINS)
_FIELDS = ("complex", "real")
# cap on R * n^2 of one replica block: about 8 MB per complex temporary
_BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
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


def sample_noise(n: int, field: str, dt: float, stream: np.random.Generator) -> NoiseIncrement:
    """Draw one scaled noise increment from the given RNG stream.

    Deterministic given the stream state; the complex field consumes
    exactly 2 n^2 standard normals, the real field n^2.
    """
    if field not in _FIELDS:
        raise ValidationError(f"field must be one of {_FIELDS}, got {field!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    scale = math.sqrt(dt / n)
    if field == "complex":
        z = stream.standard_normal((2, n, n))
        dw = scale * (z[0] + 1j * z[1])
    else:
        dw = scale * stream.standard_normal((n, n))
    return NoiseIncrement(n=n, field=field, dt=dt, dw=dw)


@dataclass(frozen=True)
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
        if self.field not in _FIELDS:
            raise ValidationError(f"field must be one of {_FIELDS}")
        if self.projection not in _PROJECTIONS:
            raise ValidationError(f"projection must be one of {_PROJECTIONS}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive and finite")
        grid = np.asarray(self.t_grid, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise ValidationError("t_grid entries must be finite")
        if grid.size == 0 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValidationError("t_grid must be ascending and start at 0")
        off_step = np.abs(np.rint(grid / self.dt) * self.dt - grid) > 1e-9 * grid
        if np.any(off_step):
            raise ValidationError(
                f"t_grid times must be multiples of dt={self.dt:g}; "
                f"t={grid[off_step][0]:g} is not"
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
        object.__setattr__(self, "t_grid", tuple(float(t) for t in grid))

    @property
    def beta(self) -> int:
        """Dyson index: 2 for the complex field, 1 for the real field."""
        return 2 if self.field == "complex" else 1

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


@dataclass(frozen=True)
class EigenPath:
    """Recorded sorted eigenvalue trajectories of one simulated path."""

    t_grid: np.ndarray
    spectra: np.ndarray  # shape (len(t_grid), n), each row ascending
    diagnostics: PathDiagnostics
    replica: int = 0


def euler_step(
    w: np.ndarray,
    spec: FlowSpec,
    noise: NoiseIncrement,
    info: dict | None = None,
) -> np.ndarray:
    """One Euler-Maruyama step of the sorted spectrum ``w``, in the eigenframe.

    Returns the ascending eigenvalues of diag(w + dt b(w)) + A + A* with
    A = (g(w) h(w)^T) o dW and dt = ``noise.dt``, clipped into the
    projection domain. ``w`` is one spectrum of shape (n,) with ``noise.dw``
    of shape (n, n), or a stack of replicas of shape (R, n) with ``noise.dw``
    of shape (R, n, n); every operation acts on the trailing axes, and a
    stack takes one ``eigvalsh``. Pass ``info`` (a dict) to receive the
    number of clipped eigenvalues under key ``"clamped"`` (an int, or one
    count per replica). Raises NumericalError, naming the flow and n, if a
    step matrix is not finite; for a stack its ``replica`` is the index of
    the first such replica.
    """
    if noise.n != spec.n:
        raise ValidationError("noise dimension does not match flow dimension")
    a = spec.g(w)[..., :, None] * spec.h(w)[..., None, :] * noise.dw
    m = a + np.swapaxes(a.conj(), -1, -2)
    diag = np.arange(spec.n)
    m[..., diag, diag] += w + noise.dt * spec.b(w)
    # checked before eigvalsh, which can return finite eigenvalues for NaN input
    if not np.all(np.isfinite(m)):
        finite = np.isfinite(m).all(axis=(-2, -1))
        raise NumericalError(
            f"flow {spec.name!r} (n={spec.n}): step matrix is not finite",
            replica=int(np.argmin(finite)) if finite.ndim else None,
        )
    w_next = np.linalg.eigvalsh(m)
    clipped = np.clip(w_next, *_DOMAINS[spec.projection])
    if info is not None:
        clamped = np.count_nonzero(clipped != w_next, axis=-1)
        info["clamped"] = clamped if clipped.ndim > 1 else int(clamped)
    return clipped


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


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _warn_if_superlinear_growth(spec: FlowSpec, lo: float, hi: float) -> None:
    """Warn when g^2 + h^2 visibly outgrows K(1 + |x|) on the observed range.

    Heuristic: least-squares quadratic fit of s = g^2 + h^2 against u = |x|
    over the simulated range; when the positive curvature term dominates
    the affine part, no linear bound K(1 + u) tracks s there. Affine and
    sublinear coefficients never trigger (the fit is exact for them). A
    warning is logged, never an error (the condition constrains coefficient
    families, not a single run).
    """
    span = max(abs(lo), abs(hi))
    if span < 2.0:
        return  # growth is an asymptotic statement; tiny ranges say nothing
    xs = np.linspace(lo, hi, 257)
    s = np.asarray(spec.g(xs), dtype=float) ** 2 + np.asarray(spec.h(xs), dtype=float) ** 2
    u = np.abs(xs)
    if u.max() - u.min() < 0.5:
        return
    c2, c1, c0 = np.polyfit(u, s, 2)
    quad = c2 * span**2
    affine = abs(c1) * span + abs(c0)
    if quad > 0.5 * affine + 1e-9:
        logger.warning(
            "flow %s: g^2+h^2 grows superlinearly on [%.3g, %.3g] "
            "(quadratic trend %.3g vs affine trend %.3g)",
            spec.name,
            lo,
            hi,
            quad,
            affine,
        )


def _simulate_block(spec: FlowSpec, streams: list, first_replica: int) -> list[EigenPath]:
    """Integrate one path per stream, stepping all of them as one block.

    Each grid time t is recorded after round(t / dt) steps of
    :func:`euler_step` on the (R, n) stack (FlowSpec admits only grid
    times that are multiples of dt). With constant g, h and b and no
    projection the Euler scheme is exact (its increments are Gaussian
    sums), so such a flow takes one step per record gap. Every step, each
    replica draws its increment from its own stream, so a path does not
    depend on the other streams of its block. Path r is replica
    ``first_replica + r``. Raises NumericalError, naming the replica and
    the time, if a step matrix stops being finite.
    """
    dt = spec.dt
    record_steps = [int(round(t / dt)) for t in spec.t_grid]
    record_rows = {step: row for row, step in enumerate(record_steps)}
    if spec.is_constant_coefficients and spec.projection == "none":
        step_ends = record_steps
    else:
        step_ends = range(record_steps[-1] + 1)

    count = len(streams)
    w = np.tile(np.sort(spec.initial_spectrum), (count, 1))
    spectra = np.empty((count, len(record_steps), spec.n))
    spectra[:, 0] = w
    clamp_events = np.zeros(count, dtype=int)
    first_exit = np.full(count, np.nan)
    info: dict = {}
    for prev, step in zip(step_ends, step_ends[1:]):
        gap = (step - prev) * dt
        dw = np.stack([sample_noise(spec.n, spec.field, gap, stream).dw for stream in streams])
        try:
            w = euler_step(w, spec, NoiseIncrement(spec.n, spec.field, gap, dw), info=info)
        except NumericalError as exc:
            replica = first_replica + exc.replica
            raise NumericalError(
                f"{exc} in replica {replica} at t={step * dt:.6g}", replica=replica
            ) from None
        clamped = info["clamped"]
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
        _warn_if_superlinear_growth(spec, diags.min_eigenvalue, diags.max_eigenvalue)
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
    return _simulate_block(spec, [_as_generator(seed)], 0)[0]


def replica_stream(base_seed: int, replica: int) -> np.random.Generator:
    """The RNG stream of replica ``replica`` under ``base_seed``.

    Streams are derived as SeedSequence(base_seed, spawn_key=(replica,)),
    so they are mutually independent and depend only on (base_seed,
    replica) — never on scheduling.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(base_seed, spawn_key=(replica,)))
    )


def simulate_ensemble(
    spec: FlowSpec,
    replica_count: int,
    base_seed: int,
    threads: int | None = None,
) -> list[EigenPath]:
    """Simulate independent replicas, ordered by replica index.

    Replica r runs on the stream of :func:`replica_stream`. The replicas
    step in consecutive blocks of at most ``_BLOCK_ENTRIES // n^2`` (at
    least one). ``threads`` is accepted for compatibility and has no
    effect.
    """
    if replica_count < 1:
        raise ValidationError("replica_count must be >= 1")
    per_block = max(1, _BLOCK_ENTRIES // spec.n**2)
    paths: list[EigenPath] = []
    for first in range(0, replica_count, per_block):
        stop = min(first + per_block, replica_count)
        streams = [replica_stream(base_seed, r) for r in range(first, stop)]
        paths += _simulate_block(spec, streams, first)
    return paths
