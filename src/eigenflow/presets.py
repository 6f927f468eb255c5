"""Experiment presets and orchestration over the universality classes.

A class is the flow dX = g dW h + h dW* g + b dt, whose limit equation
sees g and h only through g^2 and h^2. Each preset is one row of
:data:`PRESETS` (``eigenflow presets`` lists them): its class parameters
(default, description), the check that keeps its eigenvalues in their
domain, and a map from the resolved config to the field, the ascending
coefficient arrays ``g2``, ``h2`` and ``b``, the start spectrum and the
limit law. The stepper runs g = sqrt|g2|, h = sqrt|h2| and b; the residual
sees g^2 and h^2.

``wishart_nonunique`` starts with ceil((n+1-alpha n)/2) eigenvalues just
below zero and the rest just above: it converges to the mixture, not the
MP law — the uniqueness failure made observable. A preset's ``b`` is the
*limiting* drift b(x) and enters the step as b(x) dt; the per-n drift is
b_n = n b.

:func:`run_preset` simulates every (n, replica) pair and returns its
:class:`Results`: per n, the statistic columns of that n's spectra, computed
as one (replicas, record times, n) array, with a closed statistic
vocabulary (the CLI writes the columns; iterating them as
:class:`ResultRow` entries serves the tests and the benchmark):

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

:func:`sweep_report` reduces the distance columns to per-n medians, a
log-log slope, and a monotone-decrease flag.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .config import ExperimentConfig
from .empirical import _moment_table, ks_distance, limit_equation_residual, wasserstein1
from .errors import ValidationError
from .flows import _DYSON_INDEX, FlowSpec, simulate_ensemble
from .limits import FreeDiffusion, HierarchyLaw, MarchenkoPastur, Semicircle, mp_mixture_two
from .linalg import SpectralFunction

__all__ = [
    "PRESETS",
    "PresetBundle",
    "PresetRow",
    "ResultRow",
    "Results",
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


_MOMENT_STATS = tuple(f"m{k}" for k in range(1, _MOMENT_COUNT + 1))
_FINAL_STATS = (*(f"residual_x{k}" for k in _RESIDUAL_DEGREES), "min_eig", "max_eig")


@dataclass(frozen=True, eq=False)  # its blocks hold arrays, which have no one truth value
class Results:
    """A preset run as columns: ``blocks`` maps each n, ascending, to its
    ``(stats, cells, final, ens)`` over R replicas and the T times of ``t_grid``.

    ``cells`` is the (R, T, S) array of the S statistics that ``stats`` names
    in order (``m1`` .. ``m8``, then ``w1`` and ``ks``, then ``neg_mass``, as
    present); ``final`` the (R, 6) ``residual_x1`` .. ``residual_x4``,
    ``min_eig`` and ``max_eig`` at the last time; ``ens`` the (T, 8)
    ensemble means of ``m1`` .. ``m8``. :meth:`sections` gives them in row
    order, which the CLI writes from. Iterating yields a :class:`ResultRow`
    per value in that order, as often as asked; only the tests and the
    benchmark's output checks iterate.
    """

    preset: str
    t_grid: tuple
    blocks: dict

    def column(self, n: int, stat: str) -> np.ndarray:
        """The (R, T) values of one of the statistics ``stats`` at size n."""
        stats, cells = self.blocks[n][:2]
        return cells[..., stats.index(stat)]

    def sections(self, times=None):
        """``(n, replica, times, stats, values)`` in row order, ``values`` a
        (len(times), len(stats)) array: per n, each replica's cells, then its
        ``final`` row at the last time, then the ``ens`` means. ``times``
        labels the grid (default ``t_grid``): a writer passes its texts."""
        times = self.t_grid if times is None else times
        last = times[-1:]
        for n, (stats, cells, final, ens) in self.blocks.items():
            for rep, (rep_cells, rep_final) in enumerate(zip(cells, final)):
                yield n, str(rep), times, stats, rep_cells
                yield n, str(rep), last, _FINAL_STATS, rep_final[None]
            yield n, "ens", times, _MOMENT_STATS, ens

    def __iter__(self):
        for n, replica, times, stats, values in self.sections():
            for t, row in zip(times, values.tolist()):
                for stat, value in zip(stats, row):
                    yield ResultRow(self.preset, n, replica, t, stat, value)


@dataclass(frozen=True)
class PresetBundle:
    """A preset resolved into its coefficient arrays, start and limit law.

    ``g2``, ``h2`` and ``b`` are ascending coefficient arrays, from which
    :meth:`coefficients` builds every function of the class.
    ``initial_spectrum`` maps n to the start; ``cfg`` is the resolved config.
    ``law`` is None for ``custom``; otherwise a family in time, whose one base
    ``limits._Family`` gives ``at(t)`` (its time-t law, with ``moments(k)``
    and ``has_density``), ``has_cdf`` and ``moment_table(times, k)``.
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
        return _DYSON_INDEX[self.field]

    def coefficients(self) -> tuple[SpectralFunction, SpectralFunction, SpectralFunction]:
        """The stepper's g = sqrt|g2|, h = sqrt|h2| and drift b."""
        return (
            SpectralFunction.sqrt_abs_poly(self.g2),
            SpectralFunction.sqrt_abs_poly(self.h2),
            SpectralFunction.from_poly(self.b),
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
    None default fills nothing in. ``check`` raises ValidationError when the
    resolved config breaks one of the class's rules, such as the condition
    that keeps its eigenvalues in their domain. ``build`` maps the resolved
    config to the :class:`PresetBundle` fields other than ``cfg``.
    ``config_defaults`` holds the preset's own defaults for common config keys.
    """

    params: dict
    build: Callable[[ExperimentConfig], dict]
    check: Callable[[ExperimentConfig], None] = lambda cfg: None
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
        law=Semicircle(1.0, beta=_DYSON_INDEX[field]),
    )


def _free_diffusion(cfg: ExperimentConfig, b: tuple) -> dict:
    half = (cfg.sigma / 2.0,)
    return dict(
        field="complex", g2=half, h2=half, b=b, initial_spectrum=np.zeros,
        law=FreeDiffusion(cfg.preset, cfg.theta, cfg.sigma),
    )


def _moments_only(g2: tuple, h2: tuple, b: tuple, a: float) -> dict:
    """A complex flow from a point mass at a, whose law is the closed moment
    hierarchy of the very arrays it steps with."""
    return dict(
        field="complex", g2=g2, h2=h2, b=b, initial_spectrum=_point_mass(a),
        law=HierarchyLaw(b, g2, h2, beta=2, a=a),
    )


def _check_wishart(cfg: ExperimentConfig) -> None:
    if cfg.alpha <= 0:
        raise ValidationError("wishart requires alpha > 0")
    beta = 2
    for n in cfg.n_list:
        lhs, rhs = cfg.alpha * n, beta * (n - 1) + 2
        if lhs < rhs:
            raise ValidationError(
                f"wishart drift validation failed at n={n}: "
                f"alpha*n = {lhs:g} < {rhs:g} = beta*(n-1)+2; positivity of "
                "the flow needs the log-determinant drift inequality "
                "alpha*n >= beta*(n-1)+2"
            )


def _check_wishart_nonunique(cfg: ExperimentConfig) -> None:
    if not 0.0 <= cfg.alpha < 1.0:
        raise ValidationError("wishart_nonunique requires 0 <= alpha < 1 (the mixture regime)")
    if any(n < 2 for n in cfg.n_list):
        raise ValidationError("wishart_nonunique requires n >= 2")


def _check_geometric(cfg: ExperimentConfig) -> None:
    if cfg.a <= 0:
        raise ValidationError("geometric requires a starting point a > 0")


def _check_jacobi(cfg: ExperimentConfig) -> None:
    if cfg.p <= 0 or cfg.q <= 0:
        raise ValidationError("jacobi requires p > 0 and q > 0")
    if not 0.0 <= cfg.a <= 1.0:
        raise ValidationError("jacobi requires a starting point in [0, 1]")
    beta = 2
    for n in cfg.n_list:
        lhs, rhs = n * min(cfg.p, cfg.q), n - 1 + 2.0 / beta
        if lhs < rhs:
            raise ValidationError(
                f"jacobi containment validation failed at n={n}: "
                f"n*min(p,q) = {lhs:g} < {rhs:g} = n-1+2/beta; the [0,1] "
                "containment needs min(p_n, q_n) >= n-1+2/beta"
            )


def _check_sigma(cfg: ExperimentConfig) -> None:
    if cfg.sigma < 0:
        raise ValidationError(f"{cfg.preset} requires sigma >= 0")


def _check_custom(cfg: ExperimentConfig) -> None:
    if cfg.g2 is None or cfg.h2 is None:
        raise ValidationError("custom preset requires g2 and h2 coefficient lists")


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
        check=_check_wishart,
    ),
    "wishart_nonunique": PresetRow(
        {
            "alpha": (0.5, "drift constant in [0, 1); the mixture splits mass "
                      "(1+alpha)/2 : (1-alpha)/2"),
        },
        lambda c: dict(
            field="real", g2=_X, h2=_ONE, b=(c.alpha,),
            initial_spectrum=lambda n: _nonunique_start(n, c.alpha),
            law=mp_mixture_two(c.alpha),
        ),
        check=_check_wishart_nonunique,
        config_defaults={"n_list": (100,)},
    ),
    "geometric": PresetRow(
        {
            "a": (1.0, "starting point mass position, a > 0"),
            "alpha": (0.0, "exponential drift rate, b_n = alpha n x"),
        },
        lambda c: _moments_only(_X, _X, (0.0, c.alpha), c.a),
        check=_check_geometric,
    ),
    "jacobi": PresetRow(
        {
            "p": (3.0, "limiting drift parameter, b(x) = p - (p+q) x"),
            "q": (3.0, "limiting drift parameter"),
            "a": (0.5, "starting point mass in [0, 1]"),
        },
        lambda c: _moments_only(_X, (1.0, -1.0), (c.p, -(c.p + c.q)), c.a),
        check=_check_jacobi,
    ),
    "free_bm": PresetRow(
        {"theta": (0.0, "constant drift"), "sigma": _SIGMA},
        lambda c: _free_diffusion(c, (c.theta,)),
        check=_check_sigma,
    ),
    "free_ou": PresetRow(
        {"theta": (-1.0, "linear drift rate, b(x) = theta x"), "sigma": _SIGMA},
        lambda c: _free_diffusion(c, (0.0, c.theta)),
        check=_check_sigma,
    ),
    "custom": PresetRow(
        {
            "g2": (None, "ascending coefficients of g^2 (required)"),
            "h2": (None, "ascending coefficients of h^2 (required)"),
            "b": (None, "ascending coefficients of the limiting drift (default 0)"),
            "a": (0.0, "starting point mass position"),
            "field": ("complex", "complex (beta=2) or real (beta=1)"),
            "projection": ("none", "none | nonneg | unit_interval"),
        },
        lambda c: dict(
            field=c.field, projection=c.projection, g2=c.g2, h2=c.h2,
            b=_ZERO if c.b is None else c.b, initial_spectrum=_point_mass(c.a), law=None,
        ),
        check=_check_custom,
    ),
}


# the class parameters, in ExperimentConfig's field order: each key that a row takes
_CLASS_KEYS = tuple(
    f.name for f in fields(ExperimentConfig)
    if any(f.name in row.params for row in PRESETS.values())
)


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Refuse a set class parameter that the preset does not take, then fill
    unset ones with the preset's defaults, in a copy that is not validated
    again: the table's defaults are finite and among their key's values."""
    params = PRESETS[cfg.preset].params
    for key in _CLASS_KEYS:
        if key not in params and getattr(cfg, key) is not None:
            raise ValidationError(f"preset {cfg.preset!r} does not take {key!r}")
    updates = {
        key: default
        for key, (default, _) in params.items()
        if default is not None and getattr(cfg, key) is None
    }
    if not updates:
        return cfg
    resolved = copy.copy(cfg)
    vars(resolved).update(updates)
    return resolved


def default_config(preset: str) -> ExperimentConfig:
    """The default experiment configuration of a preset."""
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    return resolve_config(ExperimentConfig(preset=preset, **PRESETS[preset].config_defaults))


def validate_config(cfg: ExperimentConfig) -> None:
    """Preset-specific validation; raises ValidationError before any compute."""
    cfg = resolve_config(cfg)
    PRESETS[cfg.preset].check(cfg)


def make_bundle(cfg: ExperimentConfig) -> PresetBundle:
    """Resolve a config, run its row's check, then build its row of :data:`PRESETS`."""
    cfg = resolve_config(cfg)
    row = PRESETS[cfg.preset]
    row.check(cfg)
    return PresetBundle(cfg=cfg, **row.build(cfg))


def build_flow_spec(cfg: ExperimentConfig, n: int) -> FlowSpec:
    """The FlowSpec a preset runs at matrix size n."""
    return make_bundle(cfg).flow_spec(n)


def run_preset(cfg: ExperimentConfig) -> Results:
    """Simulate a preset over its n_list and return its :class:`Results`.

    Validation runs before any simulation. ``cfg.threads`` sets the replica
    worker processes of each n's ensemble
    (:func:`~eigenflow.flows.simulate_ensemble`); the results do not depend
    on it. The law is one ``at_times`` table over the grid, and each n's
    spectra stay one (R, T, n) array through one pass per statistic over
    the whole grid: the moments by one running product x^k = x^(k-1) x,
    W1 and KS by one call each against the table, and the residual by one
    stacked call over every replica. These arrays are the result's blocks;
    every value has the bits of the one-measure
    :class:`~eigenflow.empirical.EmpiricalMeasure` computation at its time.
    """
    bundle = make_bundle(cfg)
    cfg = bundle.cfg
    g2, h2, b = bundle.residual_coefficients()
    monomials = _monomials(_RESIDUAL_DEGREES)
    law = bundle.law
    laws = law.at_times(cfg.t_grid) if law is not None and law.has_cdf else None
    blocks = {}
    for n in cfg.n_list:
        paths = simulate_ensemble(
            bundle.flow_spec(n), cfg.replica_count, cfg.base_seed, threads=cfg.threads
        )
        spectra = np.stack([path.spectra for path in paths])  # (R, T, n)
        moments = _moment_table(spectra, _MOMENT_COUNT)[..., 1:]
        stats = _MOMENT_STATS
        columns = [moments]  # (R, T, stats)
        if laws is not None:
            stats += ("w1", "ks")
            columns += [wasserstein1(spectra, laws)[..., None], ks_distance(spectra, laws)[..., None]]
        if cfg.preset == "wishart_nonunique":
            stats += ("neg_mass",)
            columns.append(np.count_nonzero(spectra < 0.0, axis=-1)[..., None] / n)
        residuals = limit_equation_residual(paths, monomials, g2, h2, b, beta=bundle.beta)
        extrema = [(p.diagnostics.min_eigenvalue, p.diagnostics.max_eigenvalue) for p in paths]
        ens = sum(moments) / len(paths)  # summed in replica order
        final = np.column_stack([residuals.T, extrema])
        blocks[n] = (stats, np.concatenate(columns, axis=-1), final, ens)
    return Results(cfg.preset, cfg.t_grid, blocks)


@dataclass(frozen=True)
class SweepLine:
    """Per-n medians of one distance statistic plus its fitted decay."""

    stat: str
    n_values: tuple
    medians: tuple
    slope: float
    monotone_decreasing: bool


def sweep_report(results: Results, stats: tuple = ("w1", "ks")) -> dict[str, SweepLine]:
    """Reduce distance columns to per-n medians and a log-log slope.

    Uses each requested statistic's values at the latest recorded time, at
    every n that has it; needs at least two distinct n.
    """
    report: dict[str, SweepLine] = {}
    for stat in stats:
        ns = [n for n, (names, *_) in results.blocks.items() if stat in names]
        if len(ns) == 1:
            raise ValidationError(f"sweep needs at least 2 distinct n with {stat!r} rows, got 1")
        if ns:
            medians = [float(np.median(results.column(n, stat)[:, -1])) for n in ns]
            slope = float(np.polyfit(np.log(ns), np.log(np.maximum(medians, 1e-300)), 1)[0])
            monotone = all(m2 < m1 for m1, m2 in zip(medians, medians[1:]))
            report[stat] = SweepLine(stat, tuple(ns), tuple(medians), slope, monotone)
    if not report:
        raise ValidationError("no distance statistic rows found to sweep")
    return report
