"""Benchmark workloads: generated eigenflow configs and their output checks.

A workload is a fixed list of CLI invocations. Every config is generated
from the benchmark seed, which becomes the config's ``base_seed``; the
program sees nothing but the config file and its command-line flags.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DT = 1e-3

# Statistical checks accept |ensemble - law| <= K_SE * (SE + |law| / n). SE is
# the standard error over replicas; |law| / n floors it at the O(1/n) size of
# a linear eigenvalue statistic's fluctuation, so that a two-replica SE that
# comes out small by chance cannot trip the check.
K_SE = 8.0
RESIDUAL_TOL = 2e-2  # criterion 6(a)
INVERT_TOL = 5e-3  # criterion 9's inversion tolerance
JACOBI_M1_TOL = 1e-6  # RK4 at dt = 1e-3 against the closed form


@dataclass(frozen=True)
class Invocation:
    """One ``eigenflow <command> --config <label>.cfg`` call."""

    label: str
    command: str
    config: dict
    threads: int | None = None
    n: int | None = None  # the single matrix size this call simulates, if any

    @property
    def replica_steps(self) -> int:
        """Replicas x Euler steps over the whole n_list (0 on the law side)."""
        if self.command not in ("simulate", "compare", "sweep"):
            return 0
        steps = int(round(self.config["t_grid"][-1] / self.config["dt"]))
        return self.config["replica_count"] * steps * len(self.config["n_list"])

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        return argv


@dataclass
class Outcome:
    """What one invocation left behind: exit code, files, stdout, rows."""

    exit_code: int
    files: dict = field(default_factory=dict)  # file name -> bytes
    stdout: str = ""
    rows: list | None = None  # run_preset's rows, when the command simulated


def _grid(t_end: float, count: int) -> tuple:
    return tuple(t_end * i / (count - 1) for i in range(count))


def _cfg(preset: str, seed: int, n_list, replicas: int, t_grid, **params) -> dict:
    cfg = {"preset": preset, **params}
    cfg.update(
        n_list=tuple(n_list),
        replica_count=replicas,
        base_seed=seed,
        dt=DT,
        t_grid=tuple(t_grid),
    )
    return cfg


def sde_generic(seed: int, threads: int) -> list[Invocation]:
    """Non-constant coefficients: the eigh branch of euler_step, threaded."""
    shapes = ((25, 8, 0.25), (50, 4, 0.25), (100, 4, 0.1), (200, 2, 0.05))
    invs = [
        Invocation(
            f"compare-wishart-n{n}",
            "compare",
            _cfg("wishart", seed, (n,), reps, (0.0, t_end), alpha=2.5),
            threads=threads,
            n=n,
        )
        for n, reps, t_end in shapes
    ]
    invs.append(
        Invocation(
            "compare-jacobi-n50",
            "compare",
            _cfg("jacobi", seed, (50,), 4, _grid(0.2, 5), p=3.0, q=3.0, a=0.5),
            threads=threads,
        )
    )
    return invs


def sde_flat(seed: int, threads: int) -> list[Invocation]:
    """Constant coefficients: noise draw, recording, statistics, CSV."""
    grid = _grid(1.0, 21)
    invs = [
        Invocation(f"simulate-wigner-n{n}", "simulate", _cfg("wigner", seed, (n,), 2, grid), n=n)
        for n in (25, 50, 100)
    ]
    invs.append(
        Invocation("sweep-wigner_real", "sweep", _cfg("wigner_real", seed, (25, 50, 100), 2, grid))
    )
    return invs


def law_side(seed: int, threads: int) -> list[Invocation]:
    """No simulation: residual kernel, Cauchy quadrature, RK4 moment ODE."""
    return [
        Invocation(
            "residual-wishart_nonunique",
            "residual",
            _cfg("wishart_nonunique", seed, (100,), 1, _grid(1.0, 201), alpha=0.5),
        ),
        Invocation(
            "invert-wishart",
            "invert",
            _cfg("wishart", seed, (25,), 1, (0.0, 1.0), alpha=2.5),
        ),
        Invocation(
            "moments-jacobi",
            "moments",
            _cfg("jacobi", seed, (50,), 1, _grid(1.0, 21), p=3.0, q=3.0, a=0.5),
        ),
    ]


WORKLOADS = {"sde_generic": sde_generic, "sde_flat": sde_flat, "law_side": law_side}


# -- output checks ------------------------------------------------------------


def read_csv_rows(data: bytes) -> list[dict]:
    """Data rows of an eigenflow CSV (the timestamp comment line skipped)."""
    lines = data.decode("utf-8").splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _stat_check(name: str, vals, law: float, n: int) -> tuple[str, bool, str]:
    vals = np.asarray(vals, dtype=float)
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    err = abs(float(np.mean(vals)) - law)
    tol = K_SE * (se + abs(law) / n)
    return name, err <= tol, f"|{np.mean(vals):.6g} - {law:.6g}| = {err:.3g} (tol {tol:.3g})"


def _replica_values(rows, stat: str, n: int, t: float) -> list[float]:
    return [r.value for r in rows if r.stat == stat and r.n == n and r.replica != "ens" and r.t == t]


def check(inv: Invocation, out: Outcome) -> list[tuple[str, bool, str]]:
    """Statistical and exact checks of one invocation's outputs."""
    cfg = inv.config
    results = []
    if inv.command == "compare" and cfg["preset"] == "wishart":
        (n,) = cfg["n_list"]
        t_final = cfg["t_grid"][-1]
        rows = read_csv_rows(out.files["compare.csv"])
        law = {r["stat"]: float(r["value"]) for r in rows
               if r["replica"] == "law" and float(r["t"]) == t_final}
        min_eig = _replica_values(out.rows, "min_eig", n, t_final)
        results.append((f"{inv.label}: min_eig > 0", min(min_eig) > 0.0, f"min {min(min_eig):.3g}"))
        for k in (1, 2):
            vals = _replica_values(out.rows, f"m{k}", n, t_final)
            results.append(_stat_check(f"{inv.label}: m{k} vs MP", vals, law[f"m{k}"], n))
    elif inv.command == "compare" and cfg["preset"] == "jacobi":
        lo = min(r.value for r in out.rows if r.stat == "min_eig")
        hi = max(r.value for r in out.rows if r.stat == "max_eig")
        results.append((f"{inv.label}: spectra in [0, 1]", lo >= 0.0 and hi <= 1.0, f"[{lo:.4g}, {hi:.4g}]"))
    elif inv.command in ("simulate", "sweep") and cfg["preset"] in ("wigner", "wigner_real"):
        beta = 2 if cfg["preset"] == "wigner" else 1
        for n in cfg["n_list"]:
            for t in cfg["t_grid"][1:]:
                vals = _replica_values(out.rows, "m2", n, t)
                name = f"{inv.label}: m2(n={n}, t={t:g}) = beta t / 2"
                results.append(_stat_check(name, vals, beta * t / 2.0, n))
    elif inv.command == "residual":
        vals = [float(r["value"]) for r in read_csv_rows(out.files["residual.csv"])]
        worst = max(vals)
        results.append((f"{inv.label}: residuals <= {RESIDUAL_TOL:g}", worst <= RESIDUAL_TOL, f"max {worst:.3g}"))
    elif inv.command == "invert":
        from eigenflow.presets import make_bundle, resolve_config
        from eigenflow.config import ExperimentConfig

        law = make_bundle(resolve_config(ExperimentConfig(**cfg))).law.at(cfg["t_grid"][-1])
        rows = read_csv_rows(out.files["invert.csv"])
        xs = np.array([float(r["t"]) for r in rows])
        est = np.array([float(r["value"]) for r in rows])
        err = float(np.max(np.abs(est - law.density(xs))))
        results.append((f"{inv.label}: sup density error <= {INVERT_TOL:g}", err <= INVERT_TOL, f"{err:.3g}"))
    elif inv.command == "moments" and cfg["preset"] == "jacobi":
        rows = read_csv_rows(out.files["moments.csv"])
        p, q, a = cfg["p"], cfg["q"], cfg["a"]
        by_t: dict[float, dict[int, float]] = {}
        for r in rows:
            by_t.setdefault(float(r["t"]), {})[int(r["stat"][1:])] = float(r["value"])
        ordered = all(
            -1e-9 <= ms[k + 1] <= ms[k] + 1e-9 and ms[1] <= 1.0 + 1e-9
            for ms in by_t.values()
            for k in range(1, len(ms))
        )
        results.append((f"{inv.label}: 0 <= m_(k+1) <= m_k <= 1", ordered, ""))
        fixed = p / (p + q)
        m1_err = max(
            abs(ms[1] - (fixed + (a - fixed) * math.exp(-(p + q) * t))) for t, ms in by_t.items()
        )
        results.append((f"{inv.label}: m1(t) closed form", m1_err <= JACOBI_M1_TOL, f"{m1_err:.3g}"))
    return results
