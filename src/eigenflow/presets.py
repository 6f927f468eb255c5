"""Experiment presets and orchestration over the universality classes.

Each preset names a matrix flow family (coefficient functions, field,
starting spectrum, per-n drift) together with its limit law:

========================  =====================================================
``wigner``                flat flow, complex field: g^2 = 1/4, h^2 = 1, b = 0;
                          semicircle limit with variance t
``wigner_real``           the same flow over the real field (beta = 1)
``wishart``               square-root flow g^2 = |x|, h^2 = 1 with constant
                          drift b_n = alpha n, positive start; Marchenko-
                          Pastur limit
``wishart_nonunique``     the same flow started with ceil((n+1-alpha n)/2)
                          eigenvalues just below zero (real field); converges
                          to the two-component mixture, not the MP law —
                          the uniqueness failure made observable
``geometric``             multiplicative flow g = h = sqrt(|x|), drift
                          b_n = alpha n x, start a > 0; moments-only limit
``jacobi``                g^2 = x, h^2 = 1 - x, drift b_n = n (p - (p+q) x),
                          start in [0, 1]; moments-only limit
``free_bm``/``free_ou``   flat flows g^2 = h^2 = sigma/2 with drift theta
                          (resp. theta x); semicircle limits with the free
                          Brownian / free Ornstein-Uhlenbeck parameters
``custom``                coefficient polynomials straight from the config
========================  =====================================================

A preset's ``b`` is the *limiting* drift b(x) and enters the step as
b(x) dt; the per-n drifts b_n listed above are n b.

:func:`run_preset` simulates every (n, replica) pair and emits a flat list
of :class:`ResultRow` entries with a closed statistic vocabulary:

- ``m1`` .. ``m8``: empirical spectral moments, per replica per grid time,
  plus ensemble means with replica ``"ens"``;
- ``w1``, ``ks``: distances to the limit law at each grid time (only for
  laws carrying a CDF);
- ``neg_mass``: empirical mass of (-inf, 0) (``wishart_nonunique`` only);
- ``residual_x1`` .. ``residual_x4``: max-over-grid residuals of the
  limiting evolution equation for f = x^k, per replica, reported at the
  final grid time;
- ``min_eig``, ``max_eig``: extrema over the recorded spectra, per
  replica, reported at the final grid time.

:func:`sweep_report` reduces distance rows to per-n medians, a log-log
slope, and a monotone-decrease flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cauchy import free_bm_law, free_ou_law
from .config import PRESET_NAMES, ExperimentConfig
from .empirical import (
    EmpiricalMeasureProcess,
    ks_distance,
    limit_equation_residual,
    wasserstein1,
)
from .errors import ValidationError
from .flows import FlowSpec, simulate_ensemble
from .limits import (
    GeometricLaw,
    JacobiLaw,
    MarchenkoPastur,
    MPMixtureTwo,
    Semicircle,
)
from .linalg import SpectralFunction

__all__ = [
    "PARAMETER_SCHEMAS",
    "PresetBundle",
    "ResultRow",
    "SweepLine",
    "build_flow_spec",
    "default_config",
    "make_bundle",
    "resolve_config",
    "run_preset",
    "sweep_report",
    "validate_config",
]

_EPS_START = 1e-4  # strictly positive stand-in for a delta_0 start
_MOMENT_COUNT = 8
_RESIDUAL_DEGREES = (1, 2, 3, 4)


def _monomials(degrees) -> np.ndarray:
    """Coefficient rows of x^k for each k in ``degrees``, one residual call's f."""
    return np.eye(max(degrees) + 1)[list(degrees)]


@dataclass(frozen=True)
class ResultRow:
    """One (preset, n, replica, t, statistic) observation."""

    preset: str
    n: int
    replica: str
    t: float
    stat: str
    value: float


@dataclass(frozen=True)
class FreeDiffusionFamily:
    """Time-indexed family of free-diffusion marginals (semicircles)."""

    kind: str  # "free_bm" | "free_ou"
    theta: float
    sigma: float

    def at(self, t: float) -> Semicircle:
        if self.kind == "free_bm":
            return free_bm_law(self.theta, self.sigma, t)
        return free_ou_law(self.theta, self.sigma, t)


@dataclass(frozen=True)
class PresetBundle:
    """A preset resolved into flow ingredients plus its limit law.

    ``law`` exposes ``.at(t)`` (or is None for ``custom``); ``g2_fn``,
    ``h2_fn``, ``b_fn`` evaluate g^2, h^2 and the limiting drift pointwise
    for residual computations.
    """

    name: str
    field: str
    projection: str
    g: SpectralFunction
    h: SpectralFunction
    b: SpectralFunction
    initial_spectrum: Callable[[int], np.ndarray]
    law: object | None

    @property
    def beta(self) -> int:
        return 2 if self.field == "complex" else 1

    @property
    def g2_fn(self) -> Callable:
        g = self.g
        return lambda x: np.asarray(g(x), dtype=float) ** 2

    @property
    def h2_fn(self) -> Callable:
        h = self.h
        return lambda x: np.asarray(h(x), dtype=float) ** 2

    @property
    def b_fn(self) -> Callable:
        b = self.b
        return lambda x: np.asarray(b(x), dtype=float)


_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "wigner": {},
    "wigner_real": {},
    "wishart": {"alpha": 2.5},
    "wishart_nonunique": {"alpha": 0.5},
    "geometric": {"a": 1.0, "alpha": 0.0},
    "jacobi": {"p": 3.0, "q": 3.0, "a": 0.5},
    "free_bm": {"theta": 0.0, "sigma": 1.0},
    "free_ou": {"theta": -1.0, "sigma": 1.0},
    "custom": {"a": 0.0},
}

PARAMETER_SCHEMAS: dict[str, dict[str, str]] = {
    "wigner": {},
    "wigner_real": {},
    "wishart": {
        "alpha": "drift constant, b_n = alpha n; requires alpha n >= beta(n-1)+2 "
        "at every n (default 2.5)",
    },
    "wishart_nonunique": {
        "alpha": "drift constant in [0, 1); the mixture splits mass "
        "(1+alpha)/2 : (1-alpha)/2 (default 0.5)",
    },
    "geometric": {
        "a": "starting point mass position, a > 0 (default 1.0)",
        "alpha": "exponential drift rate, b_n = alpha n x (default 0.0)",
    },
    "jacobi": {
        "p": "limiting drift parameter, b(x) = p - (p+q) x (default 3.0)",
        "q": "limiting drift parameter (default 3.0)",
        "a": "starting point mass in [0, 1] (default 0.5)",
    },
    "free_bm": {
        "theta": "constant drift (default 0.0)",
        "sigma": "diffusion scale, g^2 = h^2 = sigma/2 (default 1.0)",
    },
    "free_ou": {
        "theta": "linear drift rate, b(x) = theta x (default -1.0)",
        "sigma": "diffusion scale, g^2 = h^2 = sigma/2 (default 1.0)",
    },
    "custom": {
        "g2": "ascending coefficients of g^2 (required)",
        "h2": "ascending coefficients of h^2 (required)",
        "b": "ascending coefficients of the limiting drift (default 0)",
        "a": "starting point mass position (default 0.0)",
        "field": "complex (beta=2) or real (beta=1)",
        "projection": "none | nonneg | unit_interval",
    },
}


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill unset class parameters with the preset's defaults."""
    updates = {
        key: value
        for key, value in _DEFAULT_PARAMS[cfg.preset].items()
        if getattr(cfg, key) is None
    }
    return replace(cfg, **updates) if updates else cfg


def default_config(preset: str) -> ExperimentConfig:
    """The default experiment configuration of a preset."""
    if preset not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {preset!r}")
    cfg = ExperimentConfig(preset=preset)
    if preset == "wishart_nonunique":
        cfg = replace(cfg, n_list=(100,))
    return resolve_config(cfg)


def validate_config(cfg: ExperimentConfig) -> None:
    """Preset-specific validation; raises ValidationError before any compute."""
    cfg = resolve_config(cfg)
    name = cfg.preset
    if name == "wishart":
        if cfg.alpha is None or cfg.alpha <= 0:
            raise ValidationError("wishart requires alpha > 0")
        beta = 2
        for n in cfg.n_list:
            lhs = cfg.alpha * n
            rhs = beta * (n - 1) + 2
            if lhs < rhs:
                raise ValidationError(
                    f"wishart drift validation failed at n={n}: "
                    f"alpha*n = {lhs:g} < {rhs:g} = beta*(n-1)+2; positivity of "
                    "the flow needs the log-determinant drift inequality "
                    "alpha*n >= beta*(n-1)+2"
                )
    elif name == "wishart_nonunique":
        if cfg.alpha is None or not 0.0 <= cfg.alpha < 1.0:
            raise ValidationError(
                "wishart_nonunique requires 0 <= alpha < 1 (the mixture regime)"
            )
        if any(n < 2 for n in cfg.n_list):
            raise ValidationError("wishart_nonunique requires n >= 2")
    elif name == "geometric":
        if cfg.a is None or cfg.a <= 0:
            raise ValidationError("geometric requires a starting point a > 0")
    elif name == "jacobi":
        if cfg.p is None or cfg.q is None or cfg.p <= 0 or cfg.q <= 0:
            raise ValidationError("jacobi requires p > 0 and q > 0")
        if cfg.a is None or not 0.0 <= cfg.a <= 1.0:
            raise ValidationError("jacobi requires a starting point in [0, 1]")
        beta = 2
        for n in cfg.n_list:
            lhs = n * min(cfg.p, cfg.q)
            rhs = n - 1 + 2.0 / beta
            if lhs < rhs:
                raise ValidationError(
                    f"jacobi containment validation failed at n={n}: "
                    f"n*min(p,q) = {lhs:g} < {rhs:g} = n-1+2/beta; the [0,1] "
                    "containment needs min(p_n, q_n) >= n-1+2/beta"
                )
    elif name in ("free_bm", "free_ou"):
        if cfg.sigma is None or cfg.sigma < 0:
            raise ValidationError(f"{name} requires sigma >= 0")
    elif name == "custom":
        if cfg.g2 is None or cfg.h2 is None:
            raise ValidationError(
                "custom preset requires g2 and h2 coefficient lists"
            )


def _nonunique_start(n: int, alpha: float) -> np.ndarray:
    """k* = ceil((n+1-alpha n)/2) eigenvalues just below 0, rest just above."""
    k_star = max(0, math.ceil((n + 1 - alpha * n) / 2))
    k_star = min(k_star, n)
    neg = -_EPS_START * np.arange(1, k_star + 1) / n
    pos = _EPS_START * np.arange(1, n - k_star + 1) / n
    return np.sort(np.concatenate([neg, pos]))


def make_bundle(cfg: ExperimentConfig) -> PresetBundle:
    """Resolve a config into flow ingredients and the preset's limit law."""
    cfg = resolve_config(cfg)
    validate_config(cfg)
    name = cfg.preset
    one = SpectralFunction.constant(1.0, name="1")
    zero = SpectralFunction.constant(0.0, name="0")
    if name in ("wigner", "wigner_real"):
        field = "complex" if name == "wigner" else "real"
        return PresetBundle(
            name=name,
            field=field,
            projection="none",
            g=SpectralFunction.constant(0.5, name="1/2"),
            h=one,
            b=zero,
            initial_spectrum=np.zeros,
            law=Semicircle(1.0, beta=2 if field == "complex" else 1),
        )
    if name == "wishart":
        return PresetBundle(
            name=name,
            field="complex",
            projection="none",
            g=SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|"),
            h=one,
            b=SpectralFunction.constant(cfg.alpha, name="alpha"),
            initial_spectrum=lambda n: _EPS_START * np.arange(1, n + 1) / n,
            law=MarchenkoPastur(cfg.alpha, 1.0, beta=2),
        )
    if name == "wishart_nonunique":
        alpha = cfg.alpha
        return PresetBundle(
            name=name,
            field="real",
            projection="none",
            g=SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|"),
            h=one,
            b=SpectralFunction.constant(alpha, name="alpha"),
            initial_spectrum=lambda n: _nonunique_start(n, alpha),
            law=MPMixtureTwo(alpha, 1.0),
        )
    if name == "geometric":
        a = cfg.a
        return PresetBundle(
            name=name,
            field="complex",
            projection="none",
            g=SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|"),
            h=SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|"),
            b=SpectralFunction.from_poly([0.0, cfg.alpha], name="alpha x"),
            initial_spectrum=lambda n: np.full(n, a),
            law=GeometricLaw(a, cfg.alpha, beta=2, t=1.0),
        )
    if name == "jacobi":
        a = cfg.a
        return PresetBundle(
            name=name,
            field="complex",
            projection="none",
            g=SpectralFunction.sqrt_abs_poly([0.0, 1.0], name="sqrt|x|"),
            h=SpectralFunction.sqrt_abs_poly([1.0, -1.0], name="sqrt|1-x|"),
            b=SpectralFunction.from_poly([cfg.p, -(cfg.p + cfg.q)], name="p-(p+q)x"),
            initial_spectrum=lambda n: np.full(n, a),
            law=JacobiLaw(cfg.p, cfg.q, beta=2, a=a, t=1.0, dt=cfg.dt),
        )
    if name in ("free_bm", "free_ou"):
        c = math.sqrt(cfg.sigma / 2.0) if cfg.sigma > 0 else 0.0
        drift = (
            SpectralFunction.constant(cfg.theta, name="theta")
            if name == "free_bm"
            else SpectralFunction.from_poly([0.0, cfg.theta], name="theta x")
        )
        return PresetBundle(
            name=name,
            field="complex",
            projection="none",
            g=SpectralFunction.constant(c, name="sqrt(sigma/2)"),
            h=SpectralFunction.constant(c, name="sqrt(sigma/2)"),
            b=drift,
            initial_spectrum=np.zeros,
            law=FreeDiffusionFamily(name, cfg.theta, cfg.sigma),
        )
    # custom
    a = cfg.a if cfg.a is not None else 0.0
    return PresetBundle(
        name=name,
        field=cfg.field,
        projection=cfg.projection,
        g=SpectralFunction.sqrt_abs_poly(cfg.g2, name="sqrt|g2|"),
        h=SpectralFunction.sqrt_abs_poly(cfg.h2, name="sqrt|h2|"),
        b=SpectralFunction.from_poly(cfg.b if cfg.b is not None else [0.0], name="b"),
        initial_spectrum=lambda n: np.full(n, a),
        law=None,
    )


def build_flow_spec(cfg: ExperimentConfig, n: int) -> FlowSpec:
    """The FlowSpec a preset runs at matrix size n."""
    bundle = make_bundle(cfg)
    cfg = resolve_config(cfg)
    return FlowSpec(
        n=n,
        g=bundle.g,
        h=bundle.h,
        b=bundle.b,
        initial_spectrum=bundle.initial_spectrum(n),
        field=bundle.field,
        dt=cfg.dt,
        t_grid=cfg.t_grid,
        projection=bundle.projection,
        name=bundle.name,
    )


def run_preset(cfg: ExperimentConfig) -> list[ResultRow]:
    """Simulate a preset over its n_list and emit all statistic rows.

    Validation runs before any simulation; row order is deterministic
    (n, then replica, then grid time, then statistic) and independent of
    the thread count.
    """
    cfg = resolve_config(cfg)
    validate_config(cfg)
    bundle = make_bundle(cfg)
    monomials = _monomials(_RESIDUAL_DEGREES)
    rows: list[ResultRow] = []
    for n in cfg.n_list:
        spec = build_flow_spec(cfg, n)
        paths = simulate_ensemble(
            spec, cfg.replica_count, cfg.base_seed, threads=cfg.threads
        )
        t_final = float(spec.t_grid[-1])
        laws_at = {}
        if bundle.law is not None:
            laws_at = {t: bundle.law.at(t) for t in spec.t_grid}
        ens = np.zeros((len(spec.t_grid), _MOMENT_COUNT))
        for path in paths:
            proc = EmpiricalMeasureProcess.from_path(path)
            rep = str(path.replica)
            for ti, t in enumerate(spec.t_grid):
                meas = proc.measures[ti]
                for k in range(1, _MOMENT_COUNT + 1):
                    val = meas.moment(k)
                    ens[ti, k - 1] += val
                    rows.append(ResultRow(cfg.preset, n, rep, t, f"m{k}", val))
                law_t = laws_at.get(t)
                if law_t is not None and getattr(law_t, "has_cdf", False):
                    rows.append(
                        ResultRow(cfg.preset, n, rep, t, "w1", wasserstein1(meas, law_t))
                    )
                    rows.append(
                        ResultRow(cfg.preset, n, rep, t, "ks", ks_distance(meas, law_t))
                    )
                if cfg.preset == "wishart_nonunique":
                    rows.append(
                        ResultRow(cfg.preset, n, rep, t, "neg_mass", meas.mass_below(0.0))
                    )
            residuals = limit_equation_residual(
                proc, monomials, bundle.g2_fn, bundle.h2_fn, bundle.b_fn, beta=bundle.beta
            )
            for k, val in zip(_RESIDUAL_DEGREES, residuals):
                rows.append(ResultRow(cfg.preset, n, rep, t_final, f"residual_x{k}", val))
            rows.append(
                ResultRow(
                    cfg.preset, n, rep, t_final, "min_eig", path.diagnostics.min_eigenvalue
                )
            )
            rows.append(
                ResultRow(
                    cfg.preset, n, rep, t_final, "max_eig", path.diagnostics.max_eigenvalue
                )
            )
        ens /= len(paths)
        for ti, t in enumerate(spec.t_grid):
            for k in range(1, _MOMENT_COUNT + 1):
                rows.append(
                    ResultRow(cfg.preset, n, "ens", t, f"m{k}", float(ens[ti, k - 1]))
                )
    return rows


@dataclass(frozen=True)
class SweepLine:
    """Per-n medians of one distance statistic plus its fitted decay."""

    stat: str
    n_values: tuple
    medians: tuple
    slope: float
    monotone_decreasing: bool


def sweep_report(rows, stats: tuple = ("w1", "ks")) -> dict[str, SweepLine]:
    """Reduce distance rows to per-n medians and a log-log slope.

    Uses the rows at the latest recorded time per n for each requested
    statistic; needs at least two distinct n.
    """
    report: dict[str, SweepLine] = {}
    for stat in stats:
        stat_rows = [r for r in rows if r.stat == stat and r.replica != "ens"]
        if not stat_rows:
            continue
        t_max: dict[int, float] = {}
        for r in stat_rows:
            t_max[r.n] = max(t_max.get(r.n, r.t), r.t)
        per_n: dict[int, list[float]] = {}
        for r in stat_rows:
            if r.t == t_max[r.n]:
                per_n.setdefault(r.n, []).append(r.value)
        ns = sorted(per_n)
        if len(ns) < 2:
            raise ValidationError(
                f"sweep needs at least 2 distinct n with {stat!r} rows, got {len(ns)}"
            )
        medians = [float(np.median(per_n[n])) for n in ns]
        slope = float(
            np.polyfit(np.log(ns), np.log(np.maximum(medians, 1e-300)), 1)[0]
        )
        monotone = all(m2 < m1 for m1, m2 in zip(medians, medians[1:]))
        report[stat] = SweepLine(
            stat=stat,
            n_values=tuple(ns),
            medians=tuple(medians),
            slope=slope,
            monotone_decreasing=monotone,
        )
    if not report:
        raise ValidationError("no distance statistic rows found to sweep")
    return report
