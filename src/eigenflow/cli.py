"""``eigenflow`` command-line interface.

Subcommands
-----------

``presets``
    List preset names and their parameter schemas.
``simulate --config CFG``
    Run the configured preset and write every statistic row to
    ``simulate.csv``.
``moments --config CFG``
    Evaluate the preset's *limit-law* moments m_1..m_8 on the configured
    time grid (``moments.csv``).
``compare --config CFG``
    Simulate, then compare ensemble moments (and W1/KS where the law has a
    CDF) against the limit law (``compare.csv`` + per-n ``*_w1_vs_t.dat``
    plot data).
``sweep --config CFG``
    Simulate over ``n_list`` and report per-n medians, log-log slopes and
    monotonicity of the distance statistics (``sweep.csv`` +
    ``sweep_<stat>.dat`` plot data).
``invert --config CFG``
    Recover the limit law's density from its Cauchy transform by
    vanishing-imaginary-part extrapolation (``invert.csv`` +
    ``invert_density.dat``).
``residual --config CFG``
    Evaluate limiting-equation residuals on a quantile discretization of
    the limit law itself (``residual.csv``).

Flags (all subcommands): ``--config PATH``, ``--out DIR`` (overrides the
config's ``out_dir``), ``--seed U64`` (overrides ``base_seed``),
``--threads N`` (accepted for compatibility; it has no effect, since the
replicas of each n step together as stacked blocks in one thread).

CSV format: one comment line ``# timestamp=...`` (excluded from
reproducibility comparisons), a header ``preset,n,replica,t,stat,value``,
then data rows with floats rendered to 17 significant digits. Law-side
rows (no matrix dimension) carry ``n=0`` and ``replica=law``. Plot files
are two-column ``x y`` text.

Exit codes: 0 success; 2 validation failure; 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cauchy import cauchy_transform, stieltjes_invert
from .config import ExperimentConfig, load_config
from .empirical import EmpiricalMeasureProcess, limit_equation_residual
from .errors import NumericalError, ValidationError
from .presets import (
    _MOMENT_COUNT,
    PRESETS,
    _monomials,
    ResultRow,
    make_bundle,
    run_preset,
    sweep_report,
)

__all__ = ["main"]

_INVERT_POINTS = 201
_INVERT_EPS = (0.05, 0.025, 0.0125, 0.00625)
_RESIDUAL_ATOMS = 400
_RESIDUAL_DEGREES = (1, 2, 3, 4, 5, 6)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, rows) -> None:
    lines = [f"# timestamp={datetime.now(timezone.utc).isoformat()}"]
    lines.append("preset,n,replica,t,stat,value")
    for r in rows:
        lines.append(f"{r.preset},{r.n},{r.replica},{_fmt(r.t)},{r.stat},{_fmt(r.value)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {path}")


def _write_plot(path: Path, xs, ys) -> None:
    lines = ["# x y"]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(x)} {_fmt(y)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote plot data to {path}")


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ValidationError("this subcommand requires --config PATH")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _law_or_fail(args):
    """The resolved preset of the subcommand's config, which must have a law."""
    bundle = make_bundle(_load_config(args))
    if bundle.law is None:
        raise ValidationError(f"preset {bundle.name!r} has no limit law for this subcommand")
    return bundle


def _law_moment_rows(cfg: ExperimentConfig, law) -> list[ResultRow]:
    # a law whose moments come from an ODE integrates it once along the grid
    if hasattr(law, "moments_at"):
        seqs = law.moments_at(cfg.t_grid, _MOMENT_COUNT)
    else:
        seqs = [law.at(t).moments(_MOMENT_COUNT) for t in cfg.t_grid]
    rows = []
    for t, ms in zip(cfg.t_grid, seqs):
        for k in range(1, _MOMENT_COUNT + 1):
            rows.append(ResultRow(cfg.preset, 0, "law", float(t), f"m{k}", ms[k]))
    return rows


def cmd_presets(args) -> int:
    print("available presets:")
    for name, row in PRESETS.items():
        print(f"  {name}")
        for key, (default, desc) in row.params.items():
            print(f"    {key}: {desc}" + ("" if default is None else f" (default {default!r})"))
        if not row.params:
            print("    (no class parameters)")
    print(
        "common keys: n_list, replica_count, base_seed, dt, t_grid, out_dir, threads"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rows = run_preset(cfg)
    _write_csv(_out_dir(cfg) / "simulate.csv", rows)
    return 0


def cmd_moments(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    rows = _law_moment_rows(cfg, bundle.law)
    final = [r for r in rows if r.t == cfg.t_grid[-1]]
    print(f"limit-law moments of {cfg.preset} at t={cfg.t_grid[-1]:g}:")
    for r in final:
        print(f"  {r.stat} = {r.value:.12g}")
    _write_csv(_out_dir(cfg) / "moments.csv", rows)
    return 0


def cmd_compare(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    sim_rows = run_preset(cfg)
    out = _out_dir(cfg)
    t_final = cfg.t_grid[-1]
    law_rows = _law_moment_rows(cfg, bundle.law)
    law_final = {r.stat: r.value for r in law_rows if r.t == t_final}
    rows = [r for r in sim_rows if r.replica == "ens"] + law_rows
    for n in cfg.n_list:
        ens_final = {
            r.stat: r.value
            for r in sim_rows
            if r.replica == "ens" and r.n == n and r.t == t_final
        }
        moment_errs = []
        for k in range(1, _MOMENT_COUNT + 1):
            err = abs(ens_final[f"m{k}"] - law_final[f"m{k}"])
            moment_errs.append(err)
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, f"m{k}_err", err))
        w1_by_t = {
            t: [
                r.value
                for r in sim_rows
                if r.stat == "w1" and r.n == n and r.replica != "ens" and r.t == t
            ]
            for t in cfg.t_grid
        }
        if all(len(vals) > 0 for vals in w1_by_t.values()):
            medians = [float(np.median(w1_by_t[t])) for t in cfg.t_grid]
            rows.append(
                ResultRow(cfg.preset, n, "ens", t_final, "w1_median", medians[-1])
            )
            ks_vals = [
                r.value
                for r in sim_rows
                if r.stat == "ks" and r.n == n and r.replica != "ens" and r.t == t_final
            ]
            rows.append(
                ResultRow(
                    cfg.preset, n, "ens", t_final, "ks_median", float(np.median(ks_vals))
                )
            )
            _write_plot(out / f"{cfg.preset}_n{n}_w1_vs_t.dat", cfg.t_grid, medians)
            print(f"n={n}: median w1(t={t_final:g}) = {medians[-1]:.6g}")
        else:
            print(f"n={n}: moment-only comparison, max |m_k error| = {max(moment_errs):.6g}")
    _write_csv(out / "compare.csv", rows)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sim_rows = run_preset(cfg)
    report = sweep_report(sim_rows)
    out = _out_dir(cfg)
    rows = []
    t_final = cfg.t_grid[-1]
    for stat, line in report.items():
        for n, med in zip(line.n_values, line.medians):
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, f"{stat}_median", med))
        n_top = line.n_values[-1]
        rows.append(ResultRow(cfg.preset, n_top, "ens", t_final, f"{stat}_slope", line.slope))
        rows.append(
            ResultRow(
                cfg.preset,
                n_top,
                "ens",
                t_final,
                f"{stat}_monotone",
                1.0 if line.monotone_decreasing else 0.0,
            )
        )
        _write_plot(out / f"sweep_{stat}.dat", line.n_values, line.medians)
        print(
            f"{stat}: medians {dict(zip(line.n_values, [round(m, 6) for m in line.medians]))}, "
            f"slope {line.slope:.3f}, monotone decreasing: {line.monotone_decreasing}"
        )
    _write_csv(out / "sweep.csv", rows)
    return 0


def cmd_invert(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    t_final = cfg.t_grid[-1]
    law_t = bundle.law.at(t_final)
    # a law that is all atoms (up to the rounding of its summed weights) has no density
    if not getattr(law_t, "has_density", False) or law_t.continuous_mass() <= 1e-12:
        raise ValidationError(
            f"preset {cfg.preset!r} has no continuous density at t={t_final:g} to invert"
        )
    lo, hi = law_t.bounds()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, _INVERT_POINTS)
    est = stieltjes_invert(lambda z: cauchy_transform(law_t, z), grid, _INVERT_EPS)
    out = _out_dir(cfg)
    rows = [
        ResultRow(cfg.preset, 0, "law", float(x), "density_est", float(v))
        for x, v in zip(grid, est)
    ]
    _write_csv(out / "invert.csv", rows)
    _write_plot(out / "invert_density.dat", grid, est)
    exact = np.asarray(law_t.density(grid), dtype=float)
    sup_err = float(np.max(np.abs(est - exact)))
    print(f"sup |recovered - exact| density error on the plotted grid: {sup_err:.6g}")
    return 0


def cmd_residual(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    if not getattr(bundle.law.at(cfg.t_grid[-1]), "has_cdf", False):
        raise ValidationError(
            f"preset {cfg.preset!r} exposes moments only; its law cannot be "
            "quantile-discretized for residual evaluation"
        )
    proc = EmpiricalMeasureProcess.from_law(bundle.law, cfg.t_grid, _RESIDUAL_ATOMS)
    rows = []
    t_final = cfg.t_grid[-1]
    vals = limit_equation_residual(
        proc, _monomials(_RESIDUAL_DEGREES), *bundle.residual_coefficients(), beta=bundle.beta
    )
    for k, val in zip(_RESIDUAL_DEGREES, vals):
        rows.append(ResultRow(cfg.preset, 0, "law", t_final, f"residual_x{k}", val))
        print(f"residual (f = x^{k}): {val:.6g}")
    _write_csv(_out_dir(cfg) / "residual.csv", rows)
    return 0


_COMMANDS = {
    "presets": (cmd_presets, "list presets and their parameter schemas"),
    "simulate": (cmd_simulate, "run a preset and write all statistic rows"),
    "moments": (cmd_moments, "evaluate the preset's limit-law moments"),
    "compare": (cmd_compare, "compare simulation against the limit law"),
    "sweep": (cmd_sweep, "convergence sweep over n with slope estimates"),
    "invert": (cmd_invert, "recover the limit density from its transform"),
    "residual": (cmd_residual, "limit-equation residuals of the law itself"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenflow",
        description="simulation and verification toolkit for matrix-valued stochastic flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="experiment config file")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--seed", type=int, metavar="U64", help="base seed override")
        p.add_argument("--threads", type=int, metavar="N", help="accepted; has no effect (replicas step as blocks)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
