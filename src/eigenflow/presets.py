"""Experiment presets and orchestration over the universality classes.

A class is the flow dX = g dW h + h dW* g + b dt, whose limit equation
sees g and h only through g^2 and h^2. Each preset is one row of
:data:`PRESETS`: its class parameters (default, description) and a map
from the resolved config to the field, the ascending coefficient arrays
``g2``, ``h2`` and ``b``, the start spectrum and the limit law. The stepper
runs g = sqrt|g2|, h = sqrt|h2| and b; the residual sees g^2 and h^2.

=====================  =========  =========  ===============  ==========================
preset                 g2         h2         b                start; limit law
=====================  =========  =========  ===============  ==========================
``wigner``             [1/4]      [1]        [0]              0; semicircle, variance t
``wigner_real``        [1/4]      [1]        [0]              0, real field; semicircle
``wishart``            [0, 1]     [1]        [alpha]          just above 0; Marchenko-
                                                              Pastur
``wishart_nonunique``  [0, 1]     [1]        [alpha]          around 0, real field;
                                                              two-component MP mixture
``geometric``          [0, 1]     [0, 1]     [0, alpha]       a > 0; moments only
``jacobi``             [0, 1]     [1, -1]    [p, -(p+q)]      a in [0, 1]; moments only
``free_bm``            [sigma/2]  [sigma/2]  [theta]          0; free Brownian semicircle
``free_ou``            [sigma/2]  [sigma/2]  [0, theta]       0; free OU semicircle
``custom``             g2         h2         b (default [0])  a; none
=====================  =========  =========  ===============  ==========================

``wishart_nonunique`` starts with ceil((n+1-alpha n)/2) eigenvalues just
below zero and the rest just above: it converges to the mixture, not the
MP law — the uniqueness failure made observable. A preset's ``b`` is the
*limiting* drift b(x) and enters the step as b(x) dt; the per-n drift is
b_n = n b.

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
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .cauchy import free_bm_law, free_ou_law
from .config import ExperimentConfig
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
    "PRESETS",
    "PresetBundle",
    "PresetRow",
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
    """A preset resolved into its coefficient arrays, start and limit law.

    ``g2``, ``h2`` and ``b`` are ascending coefficient arrays, from which
    :meth:`coefficients` builds every function of the class.
    ``initial_spectrum`` maps n to the start; ``law`` exposes ``.at(t)``
    (or is None for ``custom``); ``cfg`` is the resolved config.
    """

    cfg: ExperimentConfig
    field: str
    g2: tuple
    h2: tuple
    b: tuple
    initial_spectrum: Callable[[int], np.ndarray]
    law: object | None
    projection: str = "none"

    @property
    def name(self) -> str:
        return self.cfg.preset

    @property
    def beta(self) -> int:
        return 2 if self.field == "complex" else 1

    def coefficients(self) -> tuple[SpectralFunction, SpectralFunction, SpectralFunction]:
        """The stepper's g = sqrt|g2|, h = sqrt|h2| and drift b."""
        return (
            SpectralFunction.sqrt_abs_poly(self.g2, name="g"),
            SpectralFunction.sqrt_abs_poly(self.h2, name="h"),
            SpectralFunction.from_poly(self.b, name="b"),
        )

    def residual_coefficients(self) -> tuple[Callable, Callable, Callable]:
        """g^2, h^2 and b for the limit-equation residual: the squares of the
        stepper's g and h, so the residual checks the flow that was run."""
        g, h, b = self.coefficients()
        return (lambda x: g(x) ** 2), (lambda x: h(x) ** 2), b

    def flow_spec(self, n: int) -> FlowSpec:
        """The FlowSpec this preset runs at matrix size n."""
        g, h, b = self.coefficients()
        return FlowSpec(
            n, g, h, b, self.initial_spectrum(n), field=self.field, dt=self.cfg.dt,
            t_grid=self.cfg.t_grid, projection=self.projection, name=self.name,
        )


@dataclass(frozen=True)
class PresetRow:
    """One universality class as data.

    ``params`` maps each class parameter to ``(default, description)``; a
    None default fills nothing in. ``build`` maps the resolved config to the
    :class:`PresetBundle` fields other than ``cfg``. ``config_defaults``
    holds the preset's own defaults for common config keys.
    """

    params: dict
    build: Callable[[ExperimentConfig], dict]
    config_defaults: dict = field(default_factory=dict)


_ZERO = (0.0,)
_ONE = (1.0,)
_X = (0.0, 1.0)
_SIGMA = (1.0, "diffusion scale, g^2 = h^2 = sigma/2")


def _near_zero(n: int) -> np.ndarray:
    """n eigenvalues just above 0."""
    return _EPS_START * np.arange(1, n + 1) / n


def _point_mass(a: float) -> Callable[[int], np.ndarray]:
    return lambda n: np.full(n, a)


def _nonunique_start(n: int, alpha: float) -> np.ndarray:
    """k* = ceil((n+1-alpha n)/2) eigenvalues just below 0, rest just above."""
    k_star = max(0, math.ceil((n + 1 - alpha * n) / 2))
    k_star = min(k_star, n)
    neg = -_EPS_START * np.arange(1, k_star + 1) / n
    pos = _EPS_START * np.arange(1, n - k_star + 1) / n
    return np.sort(np.concatenate([neg, pos]))


def _flat(field: str) -> dict:
    return dict(
        field=field, g2=(0.25,), h2=_ONE, b=_ZERO, initial_spectrum=np.zeros,
        law=Semicircle(1.0, beta=2 if field == "complex" else 1),
    )


def _free_diffusion(cfg: ExperimentConfig, b: tuple) -> dict:
    half = (cfg.sigma / 2.0,)
    return dict(
        field="complex", g2=half, h2=half, b=b, initial_spectrum=np.zeros,
        law=FreeDiffusionFamily(cfg.preset, cfg.theta, cfg.sigma),
    )


PRESETS: dict[str, PresetRow] = {
    "wigner": PresetRow({}, lambda c: _flat("complex")),
    "wigner_real": PresetRow({}, lambda c: _flat("real")),
    "wishart": PresetRow(
        {
            "alpha": (2.5, "drift constant, b_n = alpha n; requires alpha n >= "
                      "beta(n-1)+2 at every n"),
        },
        lambda c: dict(
            field="complex", g2=_X, h2=_ONE, b=(c.alpha,), initial_spectrum=_near_zero,
            law=MarchenkoPastur(c.alpha, 1.0, beta=2),
        ),
    ),
    "wishart_nonunique": PresetRow(
        {
            "alpha": (0.5, "drift constant in [0, 1); the mixture splits mass "
                      "(1+alpha)/2 : (1-alpha)/2"),
        },
        lambda c: dict(
            field="real", g2=_X, h2=_ONE, b=(c.alpha,),
            initial_spectrum=lambda n: _nonunique_start(n, c.alpha),
            law=MPMixtureTwo(c.alpha, 1.0),
        ),
        config_defaults={"n_list": (100,)},
    ),
    "geometric": PresetRow(
        {
            "a": (1.0, "starting point mass position, a > 0"),
            "alpha": (0.0, "exponential drift rate, b_n = alpha n x"),
        },
        lambda c: dict(
            field="complex", g2=_X, h2=_X, b=(0.0, c.alpha),
            initial_spectrum=_point_mass(c.a), law=GeometricLaw(c.a, c.alpha, beta=2, t=1.0),
        ),
    ),
    "jacobi": PresetRow(
        {
            "p": (3.0, "limiting drift parameter, b(x) = p - (p+q) x"),
            "q": (3.0, "limiting drift parameter"),
            "a": (0.5, "starting point mass in [0, 1]"),
        },
        lambda c: dict(
            field="complex", g2=_X, h2=(1.0, -1.0), b=(c.p, -(c.p + c.q)),
            initial_spectrum=_point_mass(c.a),
            law=JacobiLaw(c.p, c.q, beta=2, a=c.a, t=1.0, dt=c.dt),
        ),
    ),
    "free_bm": PresetRow(
        {"theta": (0.0, "constant drift"), "sigma": _SIGMA},
        lambda c: _free_diffusion(c, (c.theta,)),
    ),
    "free_ou": PresetRow(
        {"theta": (-1.0, "linear drift rate, b(x) = theta x"), "sigma": _SIGMA},
        lambda c: _free_diffusion(c, (0.0, c.theta)),
    ),
    "custom": PresetRow(
        {
            "g2": (None, "ascending coefficients of g^2 (required)"),
            "h2": (None, "ascending coefficients of h^2 (required)"),
            "b": (None, "ascending coefficients of the limiting drift (default 0)"),
            "a": (0.0, "starting point mass position"),
            "field": (None, "complex (beta=2) or real (beta=1)"),
            "projection": (None, "none | nonneg | unit_interval"),
        },
        lambda c: dict(
            field=c.field, projection=c.projection, g2=c.g2, h2=c.h2,
            b=_ZERO if c.b is None else c.b, initial_spectrum=_point_mass(c.a), law=None,
        ),
    ),
}


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill unset class parameters with the preset's defaults."""
    updates = {
        key: default
        for key, (default, _) in PRESETS[cfg.preset].params.items()
        if default is not None and getattr(cfg, key) is None
    }
    return replace(cfg, **updates) if updates else cfg


def default_config(preset: str) -> ExperimentConfig:
    """The default experiment configuration of a preset."""
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    return resolve_config(ExperimentConfig(preset=preset, **PRESETS[preset].config_defaults))


def validate_config(cfg: ExperimentConfig) -> None:
    """Preset-specific validation; raises ValidationError before any compute."""
    _validate(resolve_config(cfg))


def _validate(cfg: ExperimentConfig) -> None:
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


def make_bundle(cfg: ExperimentConfig) -> PresetBundle:
    """Resolve and validate a config, then build its row of :data:`PRESETS`."""
    cfg = resolve_config(cfg)
    _validate(cfg)
    return PresetBundle(cfg=cfg, **PRESETS[cfg.preset].build(cfg))


def build_flow_spec(cfg: ExperimentConfig, n: int) -> FlowSpec:
    """The FlowSpec a preset runs at matrix size n."""
    return make_bundle(cfg).flow_spec(n)


def run_preset(cfg: ExperimentConfig) -> list[ResultRow]:
    """Simulate a preset over its n_list and emit all statistic rows.

    Validation runs before any simulation; row order is deterministic
    (n, then replica, then grid time, then statistic).
    """
    bundle = make_bundle(cfg)
    cfg = bundle.cfg
    g2, h2, b = bundle.residual_coefficients()
    monomials = _monomials(_RESIDUAL_DEGREES)
    rows: list[ResultRow] = []
    for n in cfg.n_list:
        spec = bundle.flow_spec(n)
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
            residuals = limit_equation_residual(proc, monomials, g2, h2, b, beta=bundle.beta)
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
