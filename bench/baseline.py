"""Per-step cost of ``simulate_path`` and the eigh share of a wishart run.

Reproduces the figures of the ROADMAP "Baseline" section so that they can be
set side by side (see ``BASELINE.md``). Run from the repository root::

    python3 bench/baseline.py

Prints one JSON object: µs per step at n = 25, 50, 100 for ``wigner``,
``wishart`` and ``jacobi`` (one path, one thread; median, min and max of
five paths), and the share of ``linalg.eigen`` in a traced ``run_preset`` of
``wishart`` at n = 50.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import run  # noqa: F401  (pins the BLAS thread environment before numpy loads)

sys.path.insert(0, str(run.SRC))

from eigenflow.config import ExperimentConfig  # noqa: E402
from eigenflow.flows import replica_stream, simulate_path  # noqa: E402
from eigenflow.presets import build_flow_spec, run_preset  # noqa: E402

from layers import install  # noqa: E402
from tracer import Tracer  # noqa: E402

PRESETS = {"wigner": {}, "wishart": {"alpha": 2.5}, "jacobi": {"p": 3.0, "q": 3.0, "a": 0.5}}
STEPS = {25: 400, 50: 200, 100: 100}


def us_per_step(preset: str, n: int) -> list[float]:
    steps = STEPS[n]
    cfg = ExperimentConfig(preset=preset, n_list=(n,), t_grid=(0.0, steps * 1e-3), **PRESETS[preset])
    spec = build_flow_spec(cfg, n)
    times = []
    for rep in range(5):
        start = perf_counter()
        simulate_path(spec, replica_stream(2024, rep))
        times.append(perf_counter() - start)
    return [round(1e6 * t / steps, 1) for t in (statistics.median(times), min(times), max(times))]


def eigh_share_wishart_n50() -> float:
    cfg = ExperimentConfig(preset="wishart", alpha=2.5, n_list=(50,), replica_count=4,
                           t_grid=(0.0, 0.25))
    with Tracer() as tracer:
        install(tracer)
        tracer.call("presets.run_preset", run_preset, cfg)
    spans = tracer.by_name()
    total = sum(s.duration for s in spans["presets.run_preset"])
    return sum(s.duration for s in spans["linalg.eigen"]) / total


def main() -> None:
    table = {p: {n: us_per_step(p, n) for n in STEPS} for p in PRESETS}
    print(json.dumps({"us_per_step": table, "eigh_share_wishart_n50": round(eigh_share_wishart_n50(), 3)}))


if __name__ == "__main__":
    main()
