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
``--threads N`` (split each n's replicas into up to N contiguous ranges,
one per usable CPU; the first steps in this process and each other one in
a forked worker process; the outputs do not depend on N; the workers need a
single-threaded BLAS, such as ``OPENBLAS_NUM_THREADS=1``, or each one's BLAS
threads compete for the same CPUs).

CSV format: one comment line ``# timestamp=...`` (excluded from
reproducibility comparisons), a header ``preset,n,replica,t,stat,value``,
then data rows with floats rendered to 17 significant digits. Law-side
rows (no matrix dimension) carry ``n=0`` and ``replica=law``. Plot files
are two-column ``x y`` text.

Exit codes: 0 success; 2 validation failure, including a config that
cannot be read and an output path that cannot be created or written;
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cauchy import cauchy_transform, stieltjes_invert
from .config import ExperimentConfig, load_config
from .empirical import EmpiricalMeasureProcess, limit_equation_residual
from .errors import NumericalError, ValidationError
from .presets import (
    _MOMENT_COUNT,
    _MOMENT_STATS,
    PRESETS,
    _monomials,
    make_bundle,
    run_preset,
    sweep_report,
)

__all__ = ["main"]

_INVERT_POINTS = 201
_INVERT_EPS = (0.05, 0.025, 0.0125, 0.00625)
_RESIDUAL_ATOMS = 400
_RESIDUAL_DEGREES = (1, 2, 3, 4, 5, 6)
_ERR_STATS = tuple(f"{stat}_err" for stat in _MOMENT_STATS)


def _texts(values) -> list[str]:
    """Each value of an array or sequence, flattened, as ``format(v, ".17g")``
    of its float (so -0.0, nan and inf read ``-0``, ``nan`` and ``inf``)."""
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).ravel().tolist()]


def _write_lines(path: Path, lines) -> None:
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, preset: str, sections) -> None:
    """Write ``sections`` as rows ``preset,n,replica,t,stat,value``: each
    ``(n, replica, times, stats, values)`` is a row per time and statistic,
    time-major, its times and values texts from :func:`_texts`."""
    lines = [f"# timestamp={datetime.now(timezone.utc).isoformat()}"]
    lines.append("preset,n,replica,t,stat,value")
    keys = {}
    for n, replica, times, stats, values in sections:
        pair = (tuple(times), stats)
        if pair not in keys:
            keys[pair] = [f"{t},{stat}," for t in times for stat in stats]
        head = f"{preset},{n},{replica},"
        lines += [f"{head}{key}{v}" for key, v in zip(keys[pair], values, strict=True)]
    _write_lines(path, lines)
    print(f"wrote {len(lines) - 2} rows to {path}")


def _write_plot(path: Path, xs, ys) -> None:
    _write_lines(path, ["# x y", *(f"{x} {y}" for x, y in zip(xs, ys))])
    print(f"wrote plot data to {path}")


def _load_config(args) -> ExperimentConfig:
    """The config file with the flags' overrides, built and validated once."""
    if not args.config:
        raise ValidationError("this subcommand requires --config PATH")
    flags = {"base_seed": args.seed, "threads": args.threads, "out_dir": args.out}
    cfg = load_config(args.config, **{k: v for k, v in flags.items() if v is not None})
    _check_out_dir(Path(cfg.out_dir))
    return cfg


def _check_out_dir(out: Path) -> None:
    """Reject an output path that cannot become a directory, before any work.

    Only inspects the file system: the directory is created when the first
    output is written.
    """
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(
                    f"output directory {out} is unusable: {path} exists and is not a directory"
                )
            return


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {out}: {exc.strerror or exc}"
        ) from exc
    return out


def _law_or_fail(args, cdf_for: str | None = None):
    """The resolved preset of the subcommand's config, which must have a law;
    when ``cdf_for`` names a use, one with a CDF. Both are read off the
    bundle, before any simulation."""
    bundle = make_bundle(_load_config(args))
    if bundle.law is None:
        raise ValidationError(f"preset {bundle.name!r} has no limit law for this subcommand")
    if cdf_for and not bundle.law.has_cdf:
        raise ValidationError(
            f"preset {bundle.name!r} exposes moments only; its law has no CDF for {cdf_for}"
        )
    return bundle


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
    results = run_preset(cfg)
    sections = [
        (n, replica, times, stats, _texts(values))
        for n, replica, times, stats, values in results.sections(_texts(cfg.t_grid))
    ]
    _write_csv(_out_dir(cfg) / "simulate.csv", cfg.preset, sections)
    return 0


def cmd_moments(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    table = bundle.law.moment_table(cfg.t_grid, _MOMENT_COUNT)[:, 1:]
    print(f"limit-law moments of {cfg.preset} at t={cfg.t_grid[-1]:g}:")
    for stat, value in zip(_MOMENT_STATS, table[-1].tolist()):
        print(f"  {stat} = {value:.12g}")
    section = (0, "law", _texts(cfg.t_grid), _MOMENT_STATS, _texts(table))
    _write_csv(_out_dir(cfg) / "moments.csv", cfg.preset, [section])
    return 0


def cmd_compare(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    results = run_preset(cfg)
    out = _out_dir(cfg)
    times = _texts(cfg.t_grid)
    law = bundle.law.moment_table(cfg.t_grid, _MOMENT_COUNT)[:, 1:]
    law_final = law[-1].tolist()
    ens_by_n = {n: ens for n, (*_, ens) in results.blocks.items()}
    sections = [(n, "ens", times, _MOMENT_STATS, _texts(ens)) for n, ens in ens_by_n.items()]
    sections.append((0, "law", times, _MOMENT_STATS, _texts(law)))
    for n, ens in ens_by_n.items():
        moment_errs = [abs(e - m) for e, m in zip(ens[-1].tolist(), law_final)]
        stats, values = _ERR_STATS, _texts(moment_errs)
        if bundle.law.has_cdf:  # then run_preset gave w1 and ks columns
            medians = np.median(results.column(n, "w1"), axis=0).tolist()
            w1_texts = _texts(medians)
            stats += ("w1_median", "ks_median")
            values += [w1_texts[-1], *_texts(np.median(results.column(n, "ks")[:, -1]))]
            _write_plot(out / f"{cfg.preset}_n{n}_w1_vs_t.dat", times, w1_texts)
            print(f"n={n}: median w1(t={cfg.t_grid[-1]:g}) = {medians[-1]:.6g}")
        else:
            print(f"n={n}: moment-only comparison, max |m_k error| = {max(moment_errs):.6g}")
        sections.append((n, "ens", times[-1:], stats, values))
    _write_csv(out / "compare.csv", cfg.preset, sections)
    return 0


def cmd_sweep(args) -> int:
    cfg = _law_or_fail(args, cdf_for="distance statistics to sweep").cfg
    report = sweep_report(run_preset(cfg))
    out = _out_dir(cfg)
    t_final = _texts(cfg.t_grid[-1:])
    sections = []
    for stat, line in report.items():
        medians = _texts(line.medians)
        for n, med in zip(line.n_values, medians):
            sections.append((n, "ens", t_final, (f"{stat}_median",), [med]))
        tail = (f"{stat}_slope", f"{stat}_monotone")
        values = _texts([line.slope, line.monotone_decreasing])
        sections.append((line.n_values[-1], "ens", t_final, tail, values))
        _write_plot(out / f"sweep_{stat}.dat", _texts(line.n_values), medians)
        print(
            f"{stat}: medians {dict(zip(line.n_values, [round(m, 6) for m in line.medians]))}, "
            f"slope {line.slope:.3f}, monotone decreasing: {line.monotone_decreasing}"
        )
    _write_csv(out / "sweep.csv", cfg.preset, sections)
    return 0


def cmd_invert(args) -> int:
    bundle = _law_or_fail(args)
    cfg = bundle.cfg
    t_final = cfg.t_grid[-1]
    law_t = bundle.law.at(t_final)
    if not law_t.has_density:
        raise ValidationError(
            f"preset {cfg.preset!r} has no continuous density at t={t_final:g} to invert"
        )
    lo, hi = law_t.bounds()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, _INVERT_POINTS)
    est = stieltjes_invert(lambda z: cauchy_transform(law_t, z), grid, _INVERT_EPS)
    out = _out_dir(cfg)
    xs, ys = _texts(grid), _texts(est)
    _write_csv(out / "invert.csv", cfg.preset, [(0, "law", xs, ("density_est",), ys)])
    _write_plot(out / "invert_density.dat", xs, ys)
    exact = np.asarray(law_t.density(grid), dtype=float)
    sup_err = float(np.max(np.abs(est - exact)))
    print(f"sup |recovered - exact| density error on the plotted grid: {sup_err:.6g}")
    return 0


def cmd_residual(args) -> int:
    bundle = _law_or_fail(args, cdf_for="quantile-discretized residuals")
    cfg = bundle.cfg
    proc = EmpiricalMeasureProcess.from_law(bundle.law, cfg.t_grid, _RESIDUAL_ATOMS)
    vals = limit_equation_residual(
        proc, _monomials(_RESIDUAL_DEGREES), *bundle.residual_coefficients(), beta=bundle.beta
    )
    for k, val in zip(_RESIDUAL_DEGREES, vals):
        print(f"residual (f = x^{k}): {val:.6g}")
    stats = tuple(f"residual_x{k}" for k in _RESIDUAL_DEGREES)
    section = (0, "law", _texts(cfg.t_grid[-1:]), stats, _texts(vals))
    _write_csv(_out_dir(cfg) / "residual.csv", cfg.preset, [section])
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call
    (parsing leaves it unchanged: each call gets a fresh namespace)."""
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
        p.add_argument(
            "--threads", type=int, metavar="N",
            help="replica processes per n, capped by the usable CPUs (outputs do not depend on N);"
            " the workers need a single-threaded BLAS, e.g. OPENBLAS_NUM_THREADS=1",
        )
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
