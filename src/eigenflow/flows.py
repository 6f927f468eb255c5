"""Euler-Maruyama integration of matrix-valued stochastic flows.

The state is a Hermitian (complex field, beta = 2) or symmetric (real
field, beta = 1) n x n matrix evolving as

    dX = g(X) dW^(n) h(X) + h(X) d(W^(n))* g(X) + drift(X) dt,

where g, h act spectrally, W^(n) = n^{-1/2} W for a matrix W of i.i.d.
(complex or real) standard Brownian entries, and drift(X) = b(X)/n unless
the drift is supplied prescaled. Only the eigenvalue paths are recorded:
the object of study is the empirical spectral measure.

Noise convention: a standard complex Brownian entry is B^1 + i B^2 with
independent standard real parts, so E|W_ij(t)|^2 = 2t (real case:
E W_ij(t)^2 = t). After the n^{-1/2} scaling an increment entry has second
moment 2 dt/n (complex) or dt/n (real). This normalization is what makes
the flat Dyson flow (g^2 = 1/4, h^2 = 1, b = 0, beta = 2) converge to the
semicircle law with variance t, and is asserted by the test suite.

Reproducibility: a path is a pure function of its RNG stream; ensembles
derive per-replica streams from (base_seed, replica_index) so results are
independent of scheduling and thread count.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
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
    "replica_stream",
    "sample_noise",
    "simulate_ensemble",
    "simulate_path",
]

logger = logging.getLogger(__name__)

_PROJECTIONS = ("none", "nonneg", "unit_interval")
_FIELDS = ("complex", "real")


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
    if dt <= 0:
        raise ValidationError("dt must be positive")
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

    ``g``, ``h``, ``b`` are spectral coefficient functions; ``b`` is the
    finite-n drift b_n (applied as b(X)/n dt) unless ``drift_prescaled``
    is set, in which case it is applied as b(X) dt directly.
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
    drift_prescaled: bool = False
    projection: str = "none"
    name: str = "custom"

    def __post_init__(self):
        if self.field not in _FIELDS:
            raise ValidationError(f"field must be one of {_FIELDS}")
        if self.projection not in _PROJECTIONS:
            raise ValidationError(f"projection must be one of {_PROJECTIONS}")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        grid = np.asarray(self.t_grid, dtype=float)
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
    spectra; ``first_domain_exit`` is the first recorded (or clamped) time
    the spectrum left the projection domain, if any.
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


def _domain_bounds(projection: str) -> tuple[float, float]:
    if projection == "nonneg":
        return 0.0, math.inf
    if projection == "unit_interval":
        return 0.0, 1.0
    return -math.inf, math.inf


def euler_step(
    x: np.ndarray,
    spec: FlowSpec,
    noise: NoiseIncrement,
    info: dict | None = None,
) -> np.ndarray:
    """One Euler-Maruyama step from Hermitian state ``x``.

    Returns hermitize(x + g(x) dW h(x) + h(x) dW* g(x) + drift dt), with
    drift = b(x)/n (or b(x) if the spec's drift is prescaled). If a
    projection is configured, eigenvalues of the result are clamped into
    the domain and the matrix reassembled in the unchanged eigenbasis;
    pass ``info`` (a dict) to receive the number of clamped eigenvalues
    under key ``"clamped"``.
    """
    if noise.n != spec.n:
        raise ValidationError("noise dimension does not match flow dimension")
    dw = noise.dw
    dt = noise.dt
    drift_scale = 1.0 if spec.drift_prescaled else 1.0 / spec.n
    if spec.is_constant_coefficients:
        gv = spec.g.constant_value()
        hv = spec.h.constant_value()
        bv = spec.b.constant_value()
        x_next = x + gv * hv * (dw + dw.conj().T)
        if bv != 0.0:
            x_next = x_next + (bv * drift_scale * dt) * np.eye(spec.n, dtype=x.dtype)
        x_next = hermitize(x_next)
    else:
        w, v = eigen(x)
        gm = apply_spectral((w, v), spec.g)
        hm = apply_spectral((w, v), spec.h)
        bm = apply_spectral((w, v), spec.b)
        x_next = hermitize(x + gm @ dw @ hm + hm @ dw.conj().T @ gm + (drift_scale * dt) * bm)
    if spec.projection != "none":
        lo, hi = _domain_bounds(spec.projection)
        w, v = eigen(x_next)
        clamped = np.clip(w, lo, hi)
        n_clamped = int(np.sum(clamped != w))
        if info is not None:
            info["clamped"] = n_clamped
        if n_clamped:
            x_next = hermitize((v * clamped) @ v.conj().T)
    elif info is not None:
        info["clamped"] = 0
    return x_next


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


def simulate_path(spec: FlowSpec, seed) -> EigenPath:
    """Integrate one path, recording sorted spectra at the grid times.

    Each grid time t is recorded after round(t / dt) steps (FlowSpec
    admits only grid times that are multiples of dt). Deterministic given
    the seed / RNG stream. Raises NumericalError if the state stops being
    finite, reporting the time of failure.
    """
    rng = _as_generator(seed)
    n = spec.n
    dt = spec.dt
    record_steps = [int(round(t / dt)) for t in spec.t_grid]
    total_steps = record_steps[-1]
    dtype = complex if spec.field == "complex" else float
    x = np.diag(np.asarray(spec.initial_spectrum, dtype=float)).astype(dtype)

    diags = PathDiagnostics()
    spectra = np.empty((len(record_steps), n))
    rec_pos = {}
    for idx, step in enumerate(record_steps):
        rec_pos.setdefault(step, []).append(idx)

    info: dict = {}
    lo, hi = _domain_bounds(spec.projection)

    def record(step_index: int) -> None:
        w = np.linalg.eigvalsh(x)
        for idx in rec_pos.get(step_index, ()):
            spectra[idx] = w
        diags.min_eigenvalue = min(diags.min_eigenvalue, float(w[0]))
        diags.max_eigenvalue = max(diags.max_eigenvalue, float(w[-1]))
        if diags.first_domain_exit is None and (w[0] < lo or w[-1] > hi):
            diags.first_domain_exit = step_index * dt

    record(0)
    for step in range(1, total_steps + 1):
        noise = sample_noise(n, spec.field, dt, rng)
        x = euler_step(x, spec, noise, info=info)
        if info.get("clamped"):
            diags.clamp_events += info["clamped"]
            if diags.first_domain_exit is None:
                diags.first_domain_exit = step * dt
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"state exploded (non-finite entries) at t={step * dt:.6g}")
        if step in rec_pos:
            record(step)

    _warn_if_superlinear_growth(spec, diags.min_eigenvalue, diags.max_eigenvalue)
    return EigenPath(
        t_grid=np.asarray(spec.t_grid, dtype=float),
        spectra=spectra,
        diagnostics=diags,
    )


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
    """Simulate independent replicas; result independent of thread count.

    Replica r runs on the stream of :func:`replica_stream`; the returned
    list is ordered by replica index regardless of execution order.
    """
    if replica_count < 1:
        raise ValidationError("replica_count must be >= 1")
    streams = [replica_stream(base_seed, r) for r in range(replica_count)]

    def run(args):
        r, stream = args
        path = simulate_path(spec, stream)
        return EigenPath(
            t_grid=path.t_grid,
            spectra=path.spectra,
            diagnostics=path.diagnostics,
            replica=r,
        )

    jobs = list(enumerate(streams))
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]
