"""The CLI's row-by-row output path, kept as the oracle of its columnar writer.

Each subcommand once built one :class:`~eigenflow.presets.ResultRow` per
value and formatted the rows one at a time. These builders rebuild those
rows, the simulated ones from the per-cell loop of
:func:`empirical_oracles.run_preset` rather than from ``Results``, and
:func:`csv_body` and :func:`plot_body` render them exactly as the
row-by-row writers did, so a test can hold every CSV and ``.dat`` body the
CLI writes to them byte for byte.
"""

from __future__ import annotations

import numpy as np

import empirical_oracles
from eigenflow import (
    EmpiricalMeasureProcess,
    cauchy_transform,
    limit_equation_residual,
    make_bundle,
    run_preset,
    stieltjes_invert,
    sweep_report,
)
from eigenflow.presets import ResultRow, _monomials

MOMENT_COUNT = 8
INVERT_POINTS = 201
INVERT_EPS = (0.05, 0.025, 0.0125, 0.00625)
RESIDUAL_ATOMS = 400
RESIDUAL_DEGREES = (1, 2, 3, 4, 5, 6)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_body(rows) -> str:
    """A CSV's text after its timestamp line, one row at a time."""
    lines = ["preset,n,replica,t,stat,value"]
    for r in rows:
        lines.append(f"{r.preset},{r.n},{r.replica},{fmt(r.t)},{r.stat},{fmt(r.value)}")
    return "\n".join(lines) + "\n"


def plot_body(xs, ys) -> str:
    """A ``.dat`` file's text, one point at a time."""
    lines = ["# x y"]
    for x, y in zip(xs, ys):
        lines.append(f"{fmt(x)} {fmt(y)}")
    return "\n".join(lines) + "\n"


def _law_moment_rows(cfg, law) -> list[ResultRow]:
    table = law.moment_table(cfg.t_grid, MOMENT_COUNT)
    return [
        ResultRow(cfg.preset, 0, "law", float(t), f"m{k}", float(row[k]))
        for t, row in zip(cfg.t_grid, table)
        for k in range(1, MOMENT_COUNT + 1)
    ]


def simulate(cfg) -> dict[str, str]:
    """{file name: body} of ``simulate``."""
    return {"simulate.csv": csv_body(empirical_oracles.run_preset(cfg))}


def moments(cfg) -> dict[str, str]:
    bundle = make_bundle(cfg)
    return {"moments.csv": csv_body(_law_moment_rows(bundle.cfg, bundle.law))}


def compare(cfg) -> dict[str, str]:
    bundle = make_bundle(cfg)
    cfg = bundle.cfg
    sim_rows = empirical_oracles.run_preset(cfg)
    t_final = cfg.t_grid[-1]
    law_rows = _law_moment_rows(cfg, bundle.law)
    law_final = law_rows[-MOMENT_COUNT:]
    rows = [r for r in sim_rows if r.replica == "ens"] + law_rows
    cells, files = {}, {}
    for r in sim_rows:
        cells.setdefault((r.n, r.replica == "ens", r.t, r.stat), []).append(r.value)
    for n in cfg.n_list:
        for k, law_row in enumerate(law_final, start=1):
            (ens,) = cells[n, True, t_final, f"m{k}"]
            err = abs(ens - law_row.value)
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, f"m{k}_err", err))
        if bundle.law.has_cdf:
            medians = [float(np.median(cells[n, False, t, "w1"])) for t in cfg.t_grid]
            ks_median = float(np.median(cells[n, False, t_final, "ks"]))
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, "w1_median", medians[-1]))
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, "ks_median", ks_median))
            files[f"{cfg.preset}_n{n}_w1_vs_t.dat"] = plot_body(cfg.t_grid, medians)
    files["compare.csv"] = csv_body(rows)
    return files


def sweep(cfg) -> dict[str, str]:
    cfg = make_bundle(cfg).cfg
    rows, files = [], {}
    t_final = cfg.t_grid[-1]
    for stat, line in sweep_report(run_preset(cfg)).items():
        for n, med in zip(line.n_values, line.medians):
            rows.append(ResultRow(cfg.preset, n, "ens", t_final, f"{stat}_median", med))
        n_top = line.n_values[-1]
        rows.append(ResultRow(cfg.preset, n_top, "ens", t_final, f"{stat}_slope", line.slope))
        monotone = float(line.monotone_decreasing)
        rows.append(ResultRow(cfg.preset, n_top, "ens", t_final, f"{stat}_monotone", monotone))
        files[f"sweep_{stat}.dat"] = plot_body(line.n_values, line.medians)
    files["sweep.csv"] = csv_body(rows)
    return files


def invert(cfg) -> dict[str, str]:
    bundle = make_bundle(cfg)
    law_t = bundle.law.at(bundle.cfg.t_grid[-1])
    lo, hi = law_t.bounds()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, INVERT_POINTS)
    est = stieltjes_invert(lambda z: cauchy_transform(law_t, z), grid, INVERT_EPS)
    rows = [
        ResultRow(bundle.cfg.preset, 0, "law", float(x), "density_est", float(v))
        for x, v in zip(grid, est)
    ]
    return {"invert.csv": csv_body(rows), "invert_density.dat": plot_body(grid, est)}


def residual(cfg) -> dict[str, str]:
    bundle = make_bundle(cfg)
    cfg = bundle.cfg
    proc = EmpiricalMeasureProcess.from_law(bundle.law, cfg.t_grid, RESIDUAL_ATOMS)
    vals = limit_equation_residual(
        proc, _monomials(RESIDUAL_DEGREES), *bundle.residual_coefficients(), beta=bundle.beta
    )
    rows = [
        ResultRow(cfg.preset, 0, "law", cfg.t_grid[-1], f"residual_x{k}", val)
        for k, val in zip(RESIDUAL_DEGREES, vals)
    ]
    return {"residual.csv": csv_body(rows)}


COMMANDS = {
    "simulate": simulate,
    "compare": compare,
    "sweep": sweep,
    "moments": moments,
    "invert": invert,
    "residual": residual,
}
