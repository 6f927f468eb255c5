"""Tests for the experiment harness: config parsing, preset validation,
run_preset row contracts, sweep reduction, the CLI subcommands, and CSV
reproducibility (byte-identical modulo the timestamp comment line).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import eigenflow
import eigenflow.presets as presets_mod
from eigenflow import (
    ExperimentConfig,
    ValidationError,
    load_config,
    parse_config_text,
    run_preset,
    sweep_report,
)
import eigenflow.flows as flows_mod
from eigenflow import SpectralFunction, Semicircle, build_flow_spec, make_bundle
from eigenflow.cli import main as cli_main
from eigenflow.config import PRESET_NAMES
from eigenflow.presets import (
    PRESETS,
    ResultRow,
    default_config,
    resolve_config,
    validate_config,
)

TINY_WIGNER = """\
# smallest useful wigner run
preset = wigner
n_list = 4, 8
replica_count = 3
base_seed = 11
dt = 0.02
t_grid = 0.0, 0.1
"""


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# timestamp=")
    assert lines[1] == "preset,n,replica,t,stat,value"
    return lines[2:]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_roundtrip():
    cfg = parse_config_text(
        """
        # full wishart experiment
        preset = wishart
        alpha = 2.5
        n_list = 25, 50
        replica_count = 20
        base_seed = 2024
        dt = 0.001
        t_grid = 0.0, 0.25, 0.5, 0.75, 1.0  # inline comment
        threads = 2
        """
    )
    assert cfg.preset == "wishart"
    assert cfg.alpha == 2.5
    assert cfg.n_list == (25, 50)
    assert cfg.replica_count == 20
    assert cfg.base_seed == 2024
    assert cfg.t_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert cfg.threads == 2


def test_parse_config_unknown_key_reports_line():
    with pytest.raises(ValidationError, match="line 3.*frobnicate"):
        parse_config_text("preset = wigner\n# fine\nfrobnicate = 1\n")


def test_parse_config_duplicate_key_reports_line():
    with pytest.raises(ValidationError, match="line 3.*duplicate.*'dt'"):
        parse_config_text("preset = wigner\ndt = 0.01\ndt = 0.02\n")


def test_parse_config_bad_value_reports_line():
    with pytest.raises(ValidationError, match="line 2.*'dt'"):
        parse_config_text("preset = wigner\ndt = smallish\n")


def test_parse_config_requires_preset():
    with pytest.raises(ValidationError, match="preset"):
        parse_config_text("dt = 0.01\n")


def test_parse_config_missing_equals():
    with pytest.raises(ValidationError, match="line 1"):
        parse_config_text("just some words\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_experiment_config_validation():
    with pytest.raises(ValidationError, match="unknown preset"):
        ExperimentConfig(preset="circular")
    with pytest.raises(ValidationError, match="ascending"):
        ExperimentConfig(preset="wigner", n_list=(50, 25))
    with pytest.raises(ValidationError, match="start at 0"):
        ExperimentConfig(preset="wigner", t_grid=(0.5, 1.0))
    with pytest.raises(ValidationError, match="dt"):
        ExperimentConfig(preset="wigner", dt=-1e-3)
    with pytest.raises(ValidationError, match="replica_count"):
        ExperimentConfig(preset="wigner", replica_count=0)
    with pytest.raises(ValidationError, match="base_seed"):
        ExperimentConfig(preset="wigner", base_seed=-1)
    assert ExperimentConfig(preset="wigner", base_seed=0).base_seed == 0


def test_version_has_one_source():
    """pyproject.toml names the package and reads its version from
    eigenflow.__version__ (plain-text checks: no TOML parser needed)."""
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nname = "eigenflow"\n' in pyproject
    assert '\ndynamic = ["version"]\n' in pyproject
    assert '\nversion = {attr = "eigenflow.__version__"}\n' in pyproject
    assert not re.search(r'^version = "', pyproject, re.MULTILINE)
    init = (root / "src" / "eigenflow" / "__init__.py").read_text(encoding="utf-8")
    assert f'\n__version__ = "{eigenflow.__version__}"\n' in init


# ---------------------------------------------------------------------------
# preset validation


def test_wishart_drift_inequality_message():
    cfg = ExperimentConfig(preset="wishart", alpha=1.5, n_list=(50,))
    with pytest.raises(ValidationError) as err:
        validate_config(cfg)
    msg = str(err.value)
    assert "alpha*n" in msg and "75" in msg and "100" in msg
    assert "n=50" in msg


def test_wishart_validation_precedes_simulation(monkeypatch):
    calls = []
    monkeypatch.setattr(
        presets_mod, "simulate_ensemble", lambda *a, **k: calls.append(1)
    )
    cfg = ExperimentConfig(preset="wishart", alpha=1.5, n_list=(50,))
    with pytest.raises(ValidationError):
        run_preset(cfg)
    assert calls == []


def test_wishart_default_alpha_passes():
    validate_config(default_config("wishart"))


def test_jacobi_containment_validation():
    cfg = ExperimentConfig(preset="jacobi", p=0.5, q=0.5, a=0.5, n_list=(100,))
    with pytest.raises(ValidationError, match="min"):
        validate_config(cfg)


def test_nonunique_alpha_range():
    with pytest.raises(ValidationError, match="alpha"):
        validate_config(ExperimentConfig(preset="wishart_nonunique", alpha=1.0))


def test_custom_requires_coefficients():
    with pytest.raises(ValidationError, match="g2"):
        validate_config(ExperimentConfig(preset="custom"))


def test_default_config_fills_parameters():
    cfg = default_config("wishart")
    assert cfg.alpha == 2.5
    assert default_config("wishart_nonunique").n_list == (100,)
    assert resolve_config(ExperimentConfig(preset="geometric")).a == 1.0
    with pytest.raises(ValidationError):
        default_config("bogus")


# ---------------------------------------------------------------------------
# the preset table


def _oracle_coefficients(cfg):
    """g, h and b of a preset, written out per class (the form the presets
    had before they became table rows)."""
    name = cfg.preset
    one = SpectralFunction.constant(1.0)
    sqrt_x = SpectralFunction.sqrt_abs_poly([0.0, 1.0])
    if name in ("wigner", "wigner_real"):
        return SpectralFunction.constant(0.5), one, SpectralFunction.constant(0.0)
    if name in ("wishart", "wishart_nonunique"):
        return sqrt_x, one, SpectralFunction.constant(cfg.alpha)
    if name == "geometric":
        return sqrt_x, sqrt_x, SpectralFunction.from_poly([0.0, cfg.alpha])
    if name == "jacobi":
        return (
            sqrt_x,
            SpectralFunction.sqrt_abs_poly([1.0, -1.0]),
            SpectralFunction.from_poly([cfg.p, -(cfg.p + cfg.q)]),
        )
    if name == "custom":
        return (
            SpectralFunction.sqrt_abs_poly(cfg.g2),
            SpectralFunction.sqrt_abs_poly(cfg.h2),
            SpectralFunction.from_poly(cfg.b if cfg.b is not None else [0.0]),
        )
    c = SpectralFunction.constant(math.sqrt(cfg.sigma / 2.0) if cfg.sigma > 0 else 0.0)
    if name == "free_bm":
        return c, c, SpectralFunction.constant(cfg.theta)
    return c, c, SpectralFunction.from_poly([0.0, cfg.theta])


_NAMED = PRESET_NAMES[:-1]
_NON_DEFAULT = {
    "wigner": {"dt": 0.01},
    "wigner_real": {"dt": 0.01},
    "wishart": {"alpha": 3.7},
    "wishart_nonunique": {"alpha": 0.0},
    "geometric": {"a": 2.0, "alpha": -0.3},
    "jacobi": {"p": 2.0, "q": 5.0, "a": 0.1},
    "free_bm": {"theta": 0.4, "sigma": 0.3},
    "free_ou": {"theta": 0.5, "sigma": 0.0},
}
_CUSTOM = {"g2": (0.5, -1.0, 2.0), "h2": (1.0, 0.0, -0.25), "b": (0.3, -2.0)}
_TABLE_CASES = [(name, {}) for name in _NAMED] + list(_NON_DEFAULT.items()) + [
    ("custom", _CUSTOM),
    ("custom", {"g2": (0.25,), "h2": (1.0,)}),
]
_GRID = np.concatenate([np.linspace(-3.0, 3.0, 61), [-1e3, -0.5, 1e-9, 1.5, 7.25, 1e3]])


_TABLE_IDS = [f"{name}-{'set' if p else 'default'}-{i}" for i, (name, p) in enumerate(_TABLE_CASES)]


@pytest.mark.parametrize("name, params", _TABLE_CASES, ids=_TABLE_IDS)
def test_table_coefficients_match_oracle(name, params):
    cfg = ExperimentConfig(preset=name, **params)
    spec = build_flow_spec(cfg, 5)
    for got, want in zip((spec.g, spec.h, spec.b), _oracle_coefficients(resolve_config(cfg))):
        assert np.array_equal(got(_GRID), want(_GRID))


def test_constant_coefficient_presets_step_as_before():
    # free_ou is flat too, but its drift theta x is linear: it steps every dt
    flat = {
        name for name in _NAMED
        if build_flow_spec(default_config(name), 3).is_constant_coefficients
    }
    assert flat == {"wigner", "wigner_real", "free_bm"}
    for name, params in _TABLE_CASES:
        cfg = resolve_config(ExperimentConfig(preset=name, **params))
        oracle = all(f.is_constant for f in _oracle_coefficients(cfg))
        assert build_flow_spec(cfg, 3).is_constant_coefficients == oracle


@pytest.mark.parametrize("name, params", _TABLE_CASES[:len(_NAMED)] + [("custom", _CUSTOM)])
def test_residual_coefficients_are_the_squared_stepper_coefficients(name, params):
    bundle = make_bundle(ExperimentConfig(preset=name, **params))
    g2, h2, b = bundle.residual_coefficients()
    poly = np.polynomial.polynomial.polyval
    np.testing.assert_allclose(g2(_GRID), np.abs(poly(_GRID, bundle.g2)), rtol=1e-15, atol=0)
    np.testing.assert_allclose(h2(_GRID), np.abs(poly(_GRID, bundle.h2)), rtol=1e-15, atol=0)
    assert np.array_equal(b(_GRID), poly(_GRID, bundle.b))


def test_table_rows_follow_preset_names():
    assert tuple(PRESETS) == PRESET_NAMES


def test_run_preset_resolves_validates_and_builds_once(monkeypatch):
    counts = {"resolve_config": 0, "_validate": 0, "make_bundle": 0}
    for key in counts:
        original = getattr(presets_mod, key)

        def counted(*args, _original=original, _key=key):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(presets_mod, key, counted)
    run_preset(parse_config_text(TINY_WIGNER))
    assert counts == {"resolve_config": 1, "_validate": 1, "make_bundle": 1}


def _count_noise_draws(monkeypatch):
    draws = []
    original = flows_mod.sample_noise

    def counted(*args, **kwargs):
        draws.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flows_mod, "sample_noise", counted)
    return draws


def test_one_coefficient_custom_flow_steps_once_per_record_gap(monkeypatch):
    draws = _count_noise_draws(monkeypatch)
    cfg = ExperimentConfig(
        preset="custom", g2=(0.25,), h2=(1.0,), n_list=(40,), replica_count=30,
        t_grid=(0.0, 0.5, 1.0), base_seed=17,
    )
    rows = run_preset(cfg)
    assert len(draws) == 30 * 2
    m2 = np.array([r.value for r in rows if r.stat == "m2" and r.t == 1.0 and r.replica != "ens"])
    se = m2.std(ddof=1) / math.sqrt(m2.size)
    assert abs(m2.mean() - Semicircle(1.0).moments(2)[2]) <= 4.0 * se


def test_degree_one_custom_flow_steps_every_dt(monkeypatch):
    draws = _count_noise_draws(monkeypatch)
    cfg = ExperimentConfig(
        preset="custom", g2=(0.0, 1.0), h2=(1.0,), b=(2.0,), a=0.5, n_list=(4,),
        replica_count=1, dt=0.01, t_grid=(0.0, 0.1, 0.2),
    )
    assert not build_flow_spec(cfg, 4).is_constant_coefficients
    run_preset(cfg)
    assert len(draws) == 20


def test_cli_presets_prints_each_default_once(capsys):
    assert cli_main(["presets"]) == 0
    sections, current = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  ") and not line.startswith("    "):
            current = sections.setdefault(line.strip(), [])
        elif current is not None and line.startswith("    "):
            current.append(line.strip())
    assert list(sections) == list(PRESETS)
    for name, row in PRESETS.items():
        for key, (default, desc) in row.params.items():
            line = f"{key}: {desc}" + ("" if default is None else f" (default {default!r})")
            assert sections[name].count(line) == 1
        if row.params:
            assert len(sections[name]) == len(row.params)


# ---------------------------------------------------------------------------
# run_preset row contract


def test_run_preset_row_shapes():
    cfg = parse_config_text(TINY_WIGNER)
    rows = run_preset(cfg)
    # per n: 3 replicas x (8 moments x 2 times + w1/ks x 2 times + 4
    # residuals + min/max eig) + 8 ensemble moments x 2 times
    per_n = 3 * (16 + 4 + 4 + 2) + 16
    assert len(rows) == 2 * per_n
    for n in (4, 8):
        m2 = [r for r in rows if r.n == n and r.stat == "m2" and r.t == 0.1]
        reps = sorted(r.replica for r in m2)
        assert reps == ["0", "1", "2", "ens"]
        path_vals = [r.value for r in m2 if r.replica != "ens"]
        ens_val = next(r.value for r in m2 if r.replica == "ens")
        assert np.isclose(ens_val, np.mean(path_vals), atol=1e-12)
    # residuals and extrema are reported at the final grid time only
    assert all(
        r.t == 0.1 for r in rows if r.stat.startswith("residual_") or r.stat.endswith("_eig")
    )


def test_run_preset_nonunique_reports_negative_mass():
    cfg = ExperimentConfig(
        preset="wishart_nonunique",
        alpha=0.5,
        n_list=(8,),
        replica_count=2,
        dt=0.02,
        t_grid=(0.0, 0.1),
        base_seed=3,
    )
    rows = run_preset(cfg)
    neg = [r for r in rows if r.stat == "neg_mass"]
    assert len(neg) == 4  # 2 replicas x 2 grid times
    assert all(0.0 <= r.value <= 1.0 for r in neg)


def test_run_preset_moments_only_law_has_no_distance_rows():
    cfg = ExperimentConfig(
        preset="geometric", n_list=(6,), replica_count=2, dt=0.02,
        t_grid=(0.0, 0.1), base_seed=5,
    )
    rows = run_preset(cfg)
    assert not [r for r in rows if r.stat in ("w1", "ks")]
    assert [r for r in rows if r.stat == "m1"]


# ---------------------------------------------------------------------------
# sweep reduction


def test_sweep_recovers_synthetic_decay_slope():
    rows = []
    for n in (25, 50, 100, 200):
        for r in range(10):
            value = 2.0 / np.sqrt(n) * (1.0 + 0.01 * np.sin(3.0 * r + n))
            rows.append(ResultRow("wigner", n, str(r), 1.0, "w1", value))
    line = sweep_report(rows, stats=("w1",))["w1"]
    assert abs(line.slope - (-0.5)) <= 0.05
    assert line.monotone_decreasing
    assert line.n_values == (25, 50, 100, 200)


def test_sweep_flat_table_has_zero_slope():
    rows = []
    for n in (25, 50, 100, 200):
        for r in range(10):
            value = 0.3 + 5e-4 * ((n + 3 * r) % 7)
            rows.append(ResultRow("wigner", n, str(r), 1.0, "w1", value))
    line = sweep_report(rows, stats=("w1",))["w1"]
    assert abs(line.slope) <= 0.05
    assert not line.monotone_decreasing


def test_sweep_uses_latest_time_only():
    rows = [
        ResultRow("wigner", 25, "0", 0.5, "w1", 9.0),
        ResultRow("wigner", 25, "0", 1.0, "w1", 1.0),
        ResultRow("wigner", 50, "0", 1.0, "w1", 0.5),
    ]
    line = sweep_report(rows, stats=("w1",))["w1"]
    assert line.medians == (1.0, 0.5)


def test_sweep_needs_two_sizes():
    rows = [ResultRow("wigner", 25, "0", 1.0, "w1", 1.0)]
    with pytest.raises(ValidationError, match="2 distinct n"):
        sweep_report(rows, stats=("w1",))
    with pytest.raises(ValidationError):
        sweep_report([])


# ---------------------------------------------------------------------------
# CLI behaviour


def test_cli_presets_lists_everything(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_cli_simulate_writes_csv(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    assert len(rows) == 2 * (3 * 26 + 16)
    assert rows[0].startswith("wigner,4,0,0,m1,")


def test_cli_simulate_csv_reproducible(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert _read_rows(tmp_path / "a" / "simulate.csv") == _read_rows(
        tmp_path / "b" / "simulate.csv"
    )


def test_cli_simulate_thread_count_invariant(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    assert cli_main(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "t1"), "--threads", "1"]
    ) == 0
    assert cli_main(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "t8"), "--threads", "8"]
    ) == 0
    assert _read_rows(tmp_path / "t1" / "simulate.csv") == _read_rows(
        tmp_path / "t8" / "simulate.csv"
    )


def test_cli_seed_override_changes_rows(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "s1")])
    cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "99"])
    assert _read_rows(tmp_path / "s1" / "simulate.csv") != _read_rows(
        tmp_path / "s2" / "simulate.csv"
    )


def test_cli_validation_failure_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = wishart\nalpha = 1.5\nn_list = 50\n")
    assert cli_main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "alpha*n" in err


def test_cli_simulate_rejects_record_times_off_the_step_grid(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "preset = wigner\nn_list = 4\ndt = 0.001\nt_grid = 0.0, 0.0004, 0.0015\n"
    )
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "multiples of dt" in err
    assert not (tmp_path / "o" / "simulate.csv").exists()


def test_cli_negative_seed_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "base_seed must be >= 0" in capsys.readouterr().err
    neg = _write_cfg(tmp_path, TINY_WIGNER.replace("base_seed = 11", "base_seed = -1"), "neg.cfg")
    assert cli_main(["simulate", "--config", neg, "--out", str(tmp_path / "o")]) == 2
    assert "base_seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("simulate", "preset = wigner\nt_grid = 0.0, nan\n", "t_grid entries must be finite"),
        ("simulate", "preset = wigner\ndt = nan\n", "dt must be positive and finite"),
        ("simulate", "preset = wigner\nt_grid = 0.0, inf\n", "t_grid entries must be finite"),
        ("moments", "preset = wishart\nalpha = nan\n", "alpha must be finite"),
        ("invert", "preset = wishart\nalpha = nan\n", "alpha must be finite"),
        ("simulate", "preset = free_ou\ntheta = -inf\n", "theta must be finite"),
        ("simulate", "preset = custom\ng2 = 0.25, nan\nh2 = 1.0\n", "g2 coefficients must be finite"),
    ],
    ids=["t_grid_nan", "dt_nan", "t_grid_inf", "moments_alpha_nan", "invert_alpha_nan",
         "theta_inf", "g2_nan"],
)
def test_cli_rejects_non_finite_config_values(tmp_path, capsys, command, text, message):
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert message in err
    assert not out.exists()


def _tiny_flow_spec(**overrides):
    kwargs = dict(
        n=3,
        g=eigenflow.SpectralFunction.constant(0.5),
        h=eigenflow.SpectralFunction.constant(1.0),
        b=eigenflow.SpectralFunction.constant(0.0),
        initial_spectrum=np.zeros(3),
        dt=0.01,
        t_grid=(0.0, 0.1),
    )
    kwargs.update(overrides)
    return eigenflow.FlowSpec(**kwargs)


def _measures(count):
    return (eigenflow.EmpiricalMeasure(np.zeros(2)),) * count


@pytest.mark.parametrize(
    "build",
    [
        lambda: _tiny_flow_spec(dt=float("nan")),
        lambda: _tiny_flow_spec(dt=float("inf")),
        lambda: _tiny_flow_spec(t_grid=(0.0, float("nan"))),
        lambda: eigenflow.sample_noise(3, "complex", float("nan"), np.random.default_rng(0)),
        lambda: eigenflow.sample_noise(3, "real", float("inf"), np.random.default_rng(0)),
        lambda: eigenflow.MarchenkoPastur(float("nan"), 1.0),
        lambda: eigenflow.MarchenkoPastur(2.0, float("nan")),
        lambda: eigenflow.MarchenkoPastur(float("inf"), 1.0),
        lambda: eigenflow.Semicircle(float("nan")),
        lambda: eigenflow.Semicircle(1.0, center=float("nan")),
        lambda: eigenflow.mp_mixture_two(0.5, float("nan")),
        lambda: eigenflow.mp_mixture_three(1.5, float("inf")),
        lambda: eigenflow.mp_mixture_three(1.5, 2.0, float("inf")),
        lambda: eigenflow.EmpiricalMeasureProcess((0.0, float("nan")), _measures(2)),
    ],
    ids=["flow_dt_nan", "flow_dt_inf", "flow_t_grid_nan", "noise_dt_nan", "noise_dt_inf",
         "mp_alpha_nan", "mp_t_nan", "mp_alpha_inf", "semicircle_t_nan",
         "semicircle_center_nan", "mixture_two_t_nan", "mixture_three_alpha_inf",
         "mixture_three_t_inf", "process_t_grid_nan"],
)
def test_python_api_rejects_non_finite_inputs(build):
    with pytest.raises(ValidationError, match="finite"):
        build()


def test_cli_missing_config_exit_code(tmp_path, capsys):
    assert cli_main(["simulate"]) == 2
    assert "requires --config" in capsys.readouterr().err
    assert cli_main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_moments_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = geometric\nt_grid = 0.0, 1.0\n")
    assert cli_main(["moments", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "m1" in out
    rows = _read_rows(tmp_path / "m" / "moments.csv")
    law_rows = [r for r in rows if r.split(",")[2] == "law"]
    assert law_rows and all(r.split(",")[1] == "0" for r in law_rows)


def test_cli_moments_rejects_lawless_preset(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = custom\ng2 = 0.25\nh2 = 1.0\n")
    assert cli_main(["moments", "--config", cfg]) == 2
    assert "no limit law" in capsys.readouterr().err


def test_cli_compare_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    out = tmp_path / "cmp"
    assert cli_main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "compare.csv").is_file()
    assert (out / "wigner_n4_w1_vs_t.dat").is_file()
    assert (out / "wigner_n8_w1_vs_t.dat").is_file()


def test_cli_sweep_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").is_file()
    assert (out / "sweep_w1.dat").is_file()
    assert (out / "sweep_ks.dat").is_file()


def test_cli_invert_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = free_bm\nt_grid = 0.0, 0.5\n")
    out = tmp_path / "inv"
    assert cli_main(["invert", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "invert.csv").is_file()
    assert (out / "invert_density.dat").is_file()
    assert "sup |recovered - exact|" in capsys.readouterr().out


def test_cli_invert_rejects_moments_only_law(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = geometric\n")
    assert cli_main(["invert", "--config", cfg]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "preset = wishart_nonunique\nt_grid = 0.0\n",
        "preset = wishart\nt_grid = 0.0\n",
        "preset = free_bm\nsigma = 0.0\n",
    ],
    ids=["mixture_at_0", "mp_at_0", "free_bm_sigma_0"],
)
def test_cli_invert_rejects_law_without_continuous_part(tmp_path, capsys, text):
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "inv"
    assert cli_main(["invert", "--config", cfg, "--out", str(out)]) == 2
    assert "no continuous density" in capsys.readouterr().err
    assert not (out / "invert.csv").exists()


def test_cli_residual_subcommand(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "preset = wishart\nn_list = 4, 8\nt_grid = 0.0, 0.5, 1.0\n"
    )
    out = tmp_path / "res"
    assert cli_main(["residual", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "residual.csv").is_file()
    printed = capsys.readouterr().out
    assert "residual (f = x^1)" in printed
