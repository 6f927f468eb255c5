"""Where the tracer wraps eigenflow, and the per-layer metrics it yields.

Each wrapped name is the module-level binding through which one layer calls
the next (for example ``flows.eigen`` is how the stepper reaches
``linalg.eigen``), so a span measures exactly the calls that path makes.
``simulate_path`` calls ``np.linalg.eigvalsh`` directly to record spectra;
there is no package seam there, so recording lands in
``flows.simulate_path``'s self time.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import Tracer

SIZES = (25, 50, 100, 200)

SELF_TIMED = (
    "linalg.eigen",
    "linalg.apply_spectral",
    "linalg.hermitize",
    "flows.euler_step",
    "flows.sample_noise",
    "flows.simulate_path",
    "empirical.limit_equation_residual",
    "empirical.from_law",
    "empirical.wasserstein1",
    "empirical.ks_distance",
    "empirical.moment",
    "presets.run_preset",
    "cli.main",
    "cli.write_csv",
    "limits.generic_moment_ode",
    "cauchy.cauchy_transform",
    "cauchy.stieltjes_invert",
)


def _metric_units() -> dict[str, str]:
    # Times are per pass, per call, per step or per path; a layer a workload
    # never reaches reads 0 there.
    units = {f"{name}.self_s": "s/pass" for name in SELF_TIMED}
    units["linalg.eigen.calls_per_step"] = "1/step"
    units["linalg.apply_spectral.calls_per_step"] = "1/step"
    for layer in ("flows.euler_step", "flows.sample_noise"):
        for n in SIZES:
            units[f"{layer}.us_n{n}"] = "us/call"
    units.update(
        {
            "flows.steps": "count",
            "flows.path_s_p50": "s/path",
            "flows.path_s_p90": "s/path",
            "flows.ensemble.parallel_eff": "ratio",
            "empirical.limit_equation_residual.calls": "count",
            "limits.rk4_steps": "count",
            "cauchy.cauchy_transform.calls": "count",
            "cli.csv_bytes": "bytes",
        }
    )
    for n in SIZES:
        units[f"step_us_n{n}"] = "us/step"
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER_UNITS = _metric_units()
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes", "1/step"))


def _rk4_steps(sig: inspect.Signature):
    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        t_final, dt = bound.arguments["t_final"], bound.arguments["dt"]
        return {"limits.rk4_steps": max(1, int(round(t_final / dt))) if t_final > 0 else 0}

    return count


def install(tracer: Tracer) -> None:
    """Rebind every traced seam; :meth:`Tracer.restore` undoes it."""
    from eigenflow import cli, empirical, flows, limits, presets

    tracer.patch(flows, "sample_noise", "flows.sample_noise", tag=lambda a, k: a[0])
    tracer.patch(flows, "euler_step", "flows.euler_step", tag=lambda a, k: a[1].n)
    tracer.patch(flows, "eigen", "linalg.eigen")
    tracer.patch(flows, "apply_spectral", "linalg.apply_spectral")
    tracer.patch(flows, "hermitize", "linalg.hermitize")
    tracer.patch(flows, "simulate_path", "flows.simulate_path")
    tracer.patch(
        presets, "simulate_ensemble", "flows.simulate_ensemble",
        tag=lambda a, k: k.get("threads") or 1,
    )
    tracer.patch(presets, "wasserstein1", "empirical.wasserstein1")
    tracer.patch(presets, "ks_distance", "empirical.ks_distance")
    tracer.patch(presets, "limit_equation_residual", "empirical.limit_equation_residual")
    tracer.patch(cli, "run_preset", "presets.run_preset")
    tracer.patch(cli, "_write_csv", "cli.write_csv")
    tracer.patch(cli, "cauchy_transform", "cauchy.cauchy_transform")
    tracer.patch(cli, "stieltjes_invert", "cauchy.stieltjes_invert")
    tracer.patch(cli, "limit_equation_residual", "empirical.limit_equation_residual")
    tracer.patch(
        limits, "generic_moment_ode", "limits.generic_moment_ode",
        count=_rk4_steps(inspect.signature(limits.generic_moment_ode)),
    )
    tracer.patch(empirical.EmpiricalMeasure, "moment", "empirical.moment")
    tracer.patch(empirical.EmpiricalMeasureProcess, "from_law", "empirical.from_law")


def _mean_us_by_size(spans, n: int) -> float:
    durations = [s.duration for s in spans if s.tag == n]
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (no untraced or overhead figures)."""
    spans = tracer.by_name()
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    steps = calls["flows.euler_step"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    for layer in ("linalg.eigen", "linalg.apply_spectral"):
        out[f"{layer}.calls_per_step"] = calls[layer] / steps if steps else 0.0
    for layer in ("flows.euler_step", "flows.sample_noise"):
        for n in SIZES:
            out[f"{layer}.us_n{n}"] = _mean_us_by_size(spans.get(layer, ()), n)
    paths = [s.duration for s in spans.get("flows.simulate_path", ())]
    p50, p90 = np.percentile(paths, (50, 90)) if paths else (0.0, 0.0)
    busy = sum(s.tag * s.duration for s in spans.get("flows.simulate_ensemble", ()))
    out.update(
        {
            "flows.steps": steps,
            "flows.path_s_p50": float(p50),
            "flows.path_s_p90": float(p90),
            "flows.ensemble.parallel_eff": sum(paths) / busy if busy else 0.0,
            "empirical.limit_equation_residual.calls": calls["empirical.limit_equation_residual"],
            "limits.rk4_steps": tracer.counters["limits.rk4_steps"],
            "cauchy.cauchy_transform.calls": calls["cauchy.cauchy_transform"],
        }
    )
    return out
