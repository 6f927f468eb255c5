"""Benchmark of the eigenflow CLI: three workloads, outside-in per-layer tracing.

Usage (from the repository root)::

    python3 bench/run.py --workload sde_generic --seed 1 --seconds 30 --trace 0

Every invocation goes through ``eigenflow.cli.main`` inside this process,
with the BLAS/OpenMP thread pools pinned to one thread. The run repeats the
workload's invocations ("passes") for about ``--seconds`` seconds and checks
every output. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)  # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3


class Run:
    """One benchmark run of one workload: configs, passes and checks."""

    def __init__(self, invocations, work: Path):
        self.invocations = invocations
        self.work = work
        self.config_paths = {}
        self.checks: list[tuple[str, bool, str]] = []
        work.mkdir(parents=True)
        for inv in invocations:
            path = work / f"{inv.label}.cfg"
            path.write_text(inv.config_text(), encoding="utf-8")
            self.config_paths[inv.label] = path

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            print(f"check failed: {name} {detail}", file=sys.stderr)

    def setup_seconds(self) -> list[float]:
        """Wall times of fresh processes that import eigenflow and validate the configs."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
        argv += [str(p) for p in self.config_paths.values()]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(SETUP_PROBES):
            start = perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            times.append(perf_counter() - start)
            self.record("setup probe exits 0", proc.returncode == 0, proc.stderr[-500:])
        return times

    def run_pass(self, index: int, tracer=None):
        """Run every invocation once; return (wall, per-label walls, outcomes)."""
        from eigenflow import cli
        from layers import install
        from workloads import Outcome

        out_root = self.work / f"pass{index}"
        walls, results = {}, {}
        if tracer is not None:
            install(tracer)
        try:
            start = perf_counter()
            for inv in self.invocations:
                sink: list = []
                argv = inv.argv(self.config_paths[inv.label], out_root / inv.label)
                stdout = io.StringIO()
                t0 = perf_counter()
                with _capture_rows(cli, sink), contextlib.redirect_stdout(stdout):
                    code = _invoke(cli.main, argv, tracer)
                walls[inv.label] = perf_counter() - t0
                results[inv.label] = (code, stdout.getvalue(), sink[0] if sink else None)
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        outcomes = {
            label: Outcome(code, _read_outputs(out_root / label), text, rows)
            for label, (code, text, rows) in results.items()
        }
        return wall, walls, outcomes

    def check_pass(self, outcomes, reference=None, what: str = "") -> None:
        """Exit codes, statistical checks (first pass) or byte identity (later)."""
        from workloads import check

        for inv in self.invocations:
            out = outcomes[inv.label]
            self.record(f"{inv.label}: exits 0", out.exit_code == 0, out.stdout[-500:])
            if out.exit_code != 0:
                continue
            if reference is None:
                try:
                    for name, ok, detail in check(inv, out):
                        self.record(name, ok, detail)
                except (KeyError, ValueError, TypeError) as exc:
                    self.record(f"{inv.label}: outputs readable", False, repr(exc))
            else:
                same = _canonical(out.files) == _canonical(reference[inv.label].files)
                self.record(f"{inv.label}: {what}", same)


@contextlib.contextmanager
def _capture_rows(cli, sink: list):
    """Keep run_preset's rows for the checks; the CLI's own result is untouched."""
    original = cli.run_preset

    def capturing(cfg):
        rows = original(cfg)
        sink.append(rows)
        return rows

    cli.run_preset = capturing
    try:
        yield
    finally:
        cli.run_preset = original


def _invoke(main, argv, tracer) -> int:
    try:
        if tracer is None:
            return main(argv)
        return tracer.call("cli.main", main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed check, not the end of the run
        traceback.print_exc()
        return 1


def _read_outputs(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _canonical(files: dict) -> dict:
    """Outputs with each CSV's leading timestamp comment removed."""
    out = {}
    for name, data in files.items():
        if name.endswith(".csv") and data.startswith(b"# timestamp="):
            data = data.split(b"\n", 1)[1]
        out[name] = data
    return out


def _median_by_key(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def step_us(invocations, walls: list[dict]) -> dict[str, float]:
    """Invocation wall / (replicas x steps) at each size a single-n call runs."""
    from layers import SIZES

    out = {f"step_us_n{n}": 0.0 for n in SIZES}
    for inv in invocations:
        if inv.n is not None:
            out[f"step_us_n{inv.n}"] = 1e6 * statistics.median(
                w[inv.label] for w in walls
            ) / inv.replica_steps
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def manifest(args, nproc: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
    }


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Repeat passes for about ``seconds``; return the metrics of this run."""
    from layers import COUNT_METRICS, layer_metrics
    from tracer import Tracer

    walls, label_walls, traced_walls, layer_runs = [], [], [], []
    reference = None
    start = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        tracer = Tracer() if traced else None
        wall, per_label, outcomes = run.run_pass(index, tracer)
        if reference is None:
            run.check_pass(outcomes)
            reference = outcomes
        else:
            run.check_pass(
                outcomes, reference,
                "traced outputs identical to untraced" if traced else "rerun outputs identical",
            )
        if traced:
            traced_walls.append(wall)
            layer = layer_metrics(tracer)
            layer["cli.csv_bytes"] = sum(
                len(data)
                for out in outcomes.values()
                for name, data in _canonical(out.files).items()
                if name.endswith(".csv")
            )
            layer_runs.append(layer)
        else:
            walls.append(wall)
            label_walls.append(per_label)
        shutil.rmtree(run.work / f"pass{index}")
        index += 1
        elapsed = perf_counter() - start
        per_pass = elapsed / index
        if trace:
            enough = len(walls) >= 2 and len(traced_walls) >= 2
        else:
            enough = len(walls) >= MIN_PASSES
        if enough and elapsed + per_pass > seconds:
            break
    metrics = {"wall_s": statistics.median(walls), **step_us(run.invocations, label_walls)}
    metrics["pass_walls_s"] = walls
    if trace:
        for name in COUNT_METRICS:
            if name in layer_runs[0]:
                values = {r[name] for r in layer_runs}
                run.record(f"count {name} repeats across traced passes", len(values) == 1, str(values))
        metrics.update(_median_by_key(layer_runs))
        metrics["trace.overhead"] = statistics.median(traced_walls) / metrics["wall_s"] - 1.0
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "eigenflow" / "__init__.py").is_file():
        print(f"error: eigenflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eigenflow

    if Path(eigenflow.__file__).resolve().parent != SRC / "eigenflow":
        print(f"error: imported eigenflow from {eigenflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from layers import PER_LAYER_UNITS

    nproc = len(os.sched_getaffinity(0))
    invocations = WORKLOADS[args.workload](args.seed, nproc)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(invocations, work)
    try:
        setup = run.setup_seconds() if not args.trace else []
        measured = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    failed = sum(1 for _, ok, _ in run.checks if not ok)
    attempted = len(run.checks)
    info = {
        "manifest": manifest(args, nproc),
        "pass_walls_s": measured["pass_walls_s"],
        "error_rate": failed / attempted,
        **{k: v for k, v in measured.items() if k.startswith("step_us_n")},
    }
    if setup:
        info["setup_s_samples"] = setup
    print(json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": measured["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
