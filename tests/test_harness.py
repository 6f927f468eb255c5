"""Tests for the experiment harness: config parsing, preset validation,
run_preset row contracts, sweep reduction, the CLI subcommands, and CSV
reproducibility (byte-identical modulo the timestamp comment line).
"""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import csv_oracles
import empirical_oracles

import eigenflow
import eigenflow.cli as cli_mod
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
    Results,
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


_SURFACE_MODULES = (
    "errors", "linalg", "sympoly", "flows", "limits", "empirical", "cauchy", "config", "presets",
)

# The top level before it re-exported every module's ``__all__``.
_NAMED_SURFACE = set("""
    EigenflowError EigenPath EmpiricalMeasure EmpiricalMeasureProcess ExperimentConfig
    FlowSpec HierarchyLaw MarchenkoPastur MomentPath MomentSequence MPMixture
    NoiseIncrement NumericalError PathDiagnostics PointMass ResultRow Semicircle
    SpectralFunction TruncationError UnsupportedLawOperation ValidationError
    apply_spectral build_flow_spec cauchy_transform ct_evolution_rhs default_config eigen
    elementary_symmetric em_sde_decomposition euler_step free_bm_law free_bm_transform
    free_ou_law free_ou_transform free_ou_variance free_pde_residual generic_moment_ode
    geometric_moments geometric_w hermitize incomplete_elementary
    incomplete_elementary_pairs jacobi_moments ks_distance limit_equation_residual
    load_config log_det_drift make_bundle matrix_euler_step mp_mixture_three
    mp_mixture_two mp_moments mp_params newton_residual pairwise_drift_identity_residual
    parse_config_text power_sums replica_stream run_preset sample_noise
    semicircle_moments simulate_ensemble simulate_path stieltjes_invert sweep_report
    validate_config wasserstein1
""".split())


def test_package_surface_is_its_modules_all():
    """``eigenflow.__all__`` is the nine modules' ``__all__`` in order, every
    name resolves on the package to the module's own object, and a star
    import defines each one."""
    modules = [importlib.import_module(f"eigenflow.{name}") for name in _SURFACE_MODULES]
    assert eigenflow.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(eigenflow, name) is getattr(module, name)
    namespace = {}
    exec("from eigenflow import *", namespace)
    assert set(eigenflow.__all__) <= namespace.keys()


def test_package_surface_only_gains_what_its_modules_declare():
    """Against the hand-kept list it replaced, the top level loses no name
    and gains exactly the eight names their modules have declared since."""
    surface = set(eigenflow.__all__)
    assert len(_NAMED_SURFACE) == 67 and _NAMED_SURFACE <= surface
    assert surface - _NAMED_SURFACE == {
        "FreeDiffusion", "PRESET_NAMES", "PRESETS", "PresetBundle", "PresetRow",
        "Results", "SweepLine", "resolve_config",
    }


# ---------------------------------------------------------------------------
# preset validation


# Each module's ``from .x import`` lines; the package ``__init__`` imports
# every module but ``cli`` and is pinned by the surface tests above.
_IMPORT_GRAPH = {
    "errors": set(),
    "linalg": set(),
    "sympoly": {"errors"},
    "flows": {"errors", "linalg"},
    "limits": {"errors", "linalg"},
    "config": {"errors", "flows"},
    "empirical": {"errors", "flows", "limits", "linalg"},
    "cauchy": {"errors", "limits", "linalg"},
    "presets": {"config", "empirical", "errors", "flows", "limits", "linalg"},
    "cli": {"cauchy", "config", "empirical", "errors", "presets"},
}


def test_package_import_graph():
    """Which module imports which: ``cauchy`` names no measure class, so it
    does not import ``empirical``, and no module imports one above it."""
    src = Path(eigenflow.__file__).parent
    graph = {}
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            graph[path.stem] = {
                node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            }
    assert graph == _IMPORT_GRAPH


_ARRAY_HOLDERS = {
    "NoiseIncrement": lambda: flows_mod.sample_noise(3, "complex", 0.1, np.random.default_rng(0)),
    "FlowSpec": lambda: build_flow_spec(default_config("wigner"), 3),
    "EigenPath": lambda: eigenflow.simulate_path(
        build_flow_spec(ExperimentConfig(preset="wigner", t_grid=(0.0, 0.01)), 3), 0
    ),
    "MomentSequence": lambda: eigenflow.mp_moments(1.0, 2.0, 1.0, 4),
    "MomentPath": lambda: eigenflow.MomentPath(np.array([0.0, 1.0]), np.ones((2, 3))),
    "EmpiricalMeasure": lambda: eigenflow.EmpiricalMeasure([0.0, 1.0]),
    "EmpiricalMeasureProcess": lambda: eigenflow.EmpiricalMeasureProcess(
        [0.0, 1.0], [[0.0, 1.0], [0.5, 2.0]]
    ),
}


@pytest.mark.parametrize("name", list(_ARRAY_HOLDERS))
def test_dataclasses_holding_arrays_compare_by_identity(name):
    """A generated ``__eq__`` would compare the array fields as a tuple and
    raise; these classes set ``eq=False``, so ``==`` is identity and
    ``hash()`` works, for two instances built alike too."""
    one, two = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(one).__name__ == name
    assert one == one and one != two and not (one == two)
    assert hash(one) == hash(one) and len({one, two}) == 2


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


# One config per rule of a row's check, with its message.
_CHECK_CASES = {
    "wishart-alpha": ("preset = wishart\nalpha = 0\n", "wishart requires alpha > 0"),
    "wishart-threshold": (
        "preset = wishart\nalpha = 1.5\nn_list = 50\n",
        "wishart drift validation failed at n=50: alpha*n = 75 < 100 = beta*(n-1)+2; "
        "positivity of the flow needs the log-determinant drift inequality "
        "alpha*n >= beta*(n-1)+2",
    ),
    "wishart_nonunique-alpha-high": (
        "preset = wishart_nonunique\nalpha = 1\n",
        "wishart_nonunique requires 0 <= alpha < 1 (the mixture regime)",
    ),
    "wishart_nonunique-alpha-low": (
        "preset = wishart_nonunique\nalpha = -0.5\n",
        "wishart_nonunique requires 0 <= alpha < 1 (the mixture regime)",
    ),
    "wishart_nonunique-n": (
        "preset = wishart_nonunique\nn_list = 1, 8\n", "wishart_nonunique requires n >= 2"
    ),
    "geometric-a": ("preset = geometric\na = 0\n", "geometric requires a starting point a > 0"),
    "jacobi-p": ("preset = jacobi\np = 0\n", "jacobi requires p > 0 and q > 0"),
    "jacobi-q": ("preset = jacobi\nq = -1\n", "jacobi requires p > 0 and q > 0"),
    "jacobi-a-low": ("preset = jacobi\na = -0.1\n", "jacobi requires a starting point in [0, 1]"),
    "jacobi-a-high": ("preset = jacobi\na = 1.5\n", "jacobi requires a starting point in [0, 1]"),
    "jacobi-containment": (
        "preset = jacobi\np = 0.5\nq = 0.5\nn_list = 100\n",
        "jacobi containment validation failed at n=100: n*min(p,q) = 50 < 100 = n-1+2/beta; "
        "the [0,1] containment needs min(p_n, q_n) >= n-1+2/beta",
    ),
    "free_bm-sigma": ("preset = free_bm\nsigma = -1\n", "free_bm requires sigma >= 0"),
    "free_ou-sigma": ("preset = free_ou\nsigma = -0.5\n", "free_ou requires sigma >= 0"),
    "custom-none": ("preset = custom\n", "custom preset requires g2 and h2 coefficient lists"),
    "custom-no-h2": (
        "preset = custom\ng2 = 0.25\n", "custom preset requires g2 and h2 coefficient lists"
    ),
}


@pytest.mark.parametrize("text, message", _CHECK_CASES.values(), ids=_CHECK_CASES.keys())
def test_each_row_check_refuses_before_any_step(tmp_path, capsys, monkeypatch, text, message):
    """The row's check gives one message through the API and the CLI, and
    ``simulate`` exits 2 before any step and before making its directory."""

    def no_steps(*args, **kwargs):
        raise AssertionError("simulated before the row's check refused the config")

    monkeypatch.setattr(presets_mod, "simulate_ensemble", no_steps)
    cfg = parse_config_text(text)
    for call in (validate_config, make_bundle):
        with pytest.raises(ValidationError) as err:
            call(cfg)
        assert str(err.value) == message
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


# A config that sets a class parameter its preset does not take, with the
# first such key in ExperimentConfig's field order.
_FOREIGN_KEY_CASES = {
    "wigner-three-keys": ("preset = wigner\nalpha = 5\nfield = real\np = -3\n", "wigner", "alpha"),
    "wigner_real-field": ("preset = wigner_real\nfield = real\n", "wigner_real", "field"),
    "wishart-a": ("preset = wishart\na = 1\n", "wishart", "a"),
    "geometric-projection": (
        "preset = geometric\nprojection = nonneg\n", "geometric", "projection"
    ),
    "jacobi-alpha": ("preset = jacobi\nalpha = 1\n", "jacobi", "alpha"),
    "free_ou-g2": ("preset = free_ou\ng2 = 0.5\n", "free_ou", "g2"),
    "free_bm-field-default": ("preset = free_bm\nfield = complex\n", "free_bm", "field"),
    "custom-theta": ("preset = custom\ng2 = 0.25\nh2 = 1\ntheta = 2\n", "custom", "theta"),
}


@pytest.mark.parametrize(
    "text, preset, key", _FOREIGN_KEY_CASES.values(), ids=_FOREIGN_KEY_CASES.keys()
)
@pytest.mark.parametrize("command", ["simulate", "moments"])
def test_a_key_the_preset_does_not_take_is_refused(tmp_path, capsys, text, preset, key, command):
    """A set class parameter that is not in the row's ``params`` is refused,
    naming the preset and the key, even at the value a default would give:
    through the API, and through the CLI with exit 2, one stderr line and
    no output directory."""
    message = f"preset {preset!r} does not take {key!r}"
    cfg = parse_config_text(text)
    for call in (resolve_config, validate_config, make_bundle):
        with pytest.raises(ValidationError) as err:
            call(cfg)
        assert str(err.value) == message
    out = tmp_path / "o"
    assert cli_main([command, "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_field_and_projection_are_unset_until_custom_fills_them():
    """A config leaves ``field`` and ``projection`` unset; ``custom``'s row
    fills in complex and none, and a value that is no choice is refused
    whatever the preset."""
    cfg = ExperimentConfig(preset="custom", g2=(0.25,), h2=(1.0,))
    assert (cfg.field, cfg.projection) == (None, None)
    resolved = resolve_config(cfg)
    assert (resolved.field, resolved.projection) == ("complex", "none")
    bundle = make_bundle(cfg)
    assert (bundle.field, bundle.projection) == ("complex", "none")
    with pytest.raises(ValidationError, match=r"^field must be one of \('complex', 'real'\)$"):
        ExperimentConfig(preset="wigner", field="quaternion")
    with pytest.raises(ValidationError, match=r"^projection must be one of \('none', "):
        ExperimentConfig(preset="custom", projection="box")


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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_resolved_defaults_pass_the_config_checks(name):
    """resolve_config fills the table's defaults into a copy that it does
    not validate again; built afresh, that copy passes and comes out equal,
    and the config it resolved keeps its unset parameters."""
    unset = ExperimentConfig(preset=name, **PRESETS[name].config_defaults)
    before = dict(vars(unset))
    cfg = resolve_config(unset)
    assert ExperimentConfig(**vars(cfg)) == cfg
    assert vars(unset) == before


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
    """Each row's coefficients are the oracle's, and its law family (none
    for custom) declares the has_cdf of its time-t law at every grid time."""
    cfg = ExperimentConfig(preset=name, **params)
    spec = build_flow_spec(cfg, 5)
    for got, want in zip((spec.g, spec.h, spec.b), _oracle_coefficients(resolve_config(cfg))):
        assert np.array_equal(got(_GRID), want(_GRID))
    law = make_bundle(cfg).law
    for t in () if law is None else cfg.t_grid:
        assert law.has_cdf == law.at(t).has_cdf


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
    """One resolution, one run of the row's check and one bundle per run."""
    counts = {"resolve_config": 0, "check": 0, "make_bundle": 0}

    def counter(key, original):
        def counted(*args):
            counts[key] += 1
            return original(*args)

        return counted

    for key in ("resolve_config", "make_bundle"):
        monkeypatch.setattr(presets_mod, key, counter(key, getattr(presets_mod, key)))
    row = PRESETS["wigner"]
    monkeypatch.setitem(PRESETS, "wigner", replace(row, check=counter("check", row.check)))
    run_preset(parse_config_text(TINY_WIGNER))
    assert counts == {"resolve_config": 1, "check": 1, "make_bundle": 1}


def _count_noise_draws(monkeypatch):
    """One entry per replica per block draw of the stepper."""
    draws = []
    original = flows_mod._draw_normals

    def counted(streams, z):
        draws.extend([1] * len(streams))
        original(streams, z)

    monkeypatch.setattr(flows_mod, "_draw_normals", counted)
    return draws


def test_one_coefficient_custom_flow_steps_once_per_record_gap(monkeypatch):
    """Trailing zero coefficients do not raise the degree: a g^2 of
    (0.25, 0) and a free OU drift theta x with theta = 0 are flat too."""
    draws = _count_noise_draws(monkeypatch)
    common = dict(n_list=(40,), replica_count=30, t_grid=(0.0, 0.5, 1.0), base_seed=17)
    for cfg in (
        ExperimentConfig(preset="custom", g2=(0.25,), h2=(1.0,), **common),
        ExperimentConfig(preset="custom", g2=(0.25, 0.0), h2=(1.0, 0.0, 0.0), **common),
        ExperimentConfig(preset="free_ou", theta=0.0, **common),
    ):
        draws.clear()
        assert build_flow_spec(cfg, 4).is_constant_coefficients
        rows = run_preset(cfg)
        assert len(draws) == 30 * 2
        m2 = np.array(
            [r.value for r in rows if r.stat == "m2" and r.t == 1.0 and r.replica != "ens"]
        )
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


def test_cli_presets_common_keys_are_the_fields_no_row_takes(capsys):
    """The ``common keys:`` line lists ExperimentConfig's fields but
    ``preset`` and the class parameters (the union of the rows' params,
    which the refusal of a foreign key reads), in field order."""
    assert cli_main(["presets"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "common keys: n_list, replica_count, base_seed, dt, t_grid, out_dir, threads"
    class_keys = set().union(*(row.params for row in PRESETS.values()))
    assert set(presets_mod._CLASS_KEYS) == class_keys
    names = [f.name for f in fields(ExperimentConfig)]
    common = [name for name in names if name != "preset" and name not in class_keys]
    assert last == f"common keys: {', '.join(common)}"


# ---------------------------------------------------------------------------
# run_preset row contract


def test_run_preset_row_shapes():
    cfg = parse_config_text(TINY_WIGNER)
    rows = run_preset(cfg)
    # per n: 3 replicas x (8 moments x 2 times + w1/ks x 2 times + 4
    # residuals + min/max eig) + 8 ensemble moments x 2 times
    per_n = 3 * (16 + 4 + 4 + 2) + 16
    assert len(list(rows)) == 2 * per_n
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


@pytest.mark.parametrize("threads", [None, 2], ids=["serial", "threads2"])
@pytest.mark.parametrize("name", _NAMED)
def test_run_preset_rows_equal_the_per_cell_loop(name, threads):
    """The stacked statistics give today's rows, in order and bit for bit,
    against the (replica, time) loop of one-measure calls; this covers
    neg_mass, the moments-only laws and the t = 0 point-mass law."""
    n_list = (8,) if name == "wishart_nonunique" else (6, 9)
    cfg = replace(
        default_config(name), n_list=n_list, replica_count=3, dt=0.01,
        t_grid=(0.0, 0.03, 0.05), base_seed=7, threads=threads,
    )
    if name == "wishart":
        cfg = replace(cfg, alpha=3.0)  # the drift inequality at n = 9
    rows = run_preset(cfg)
    expected = empirical_oracles.run_preset(cfg)
    assert [(r.preset, r.n, r.replica, r.t, r.stat) for r in rows] == [
        (r.preset, r.n, r.replica, r.t, r.stat) for r in expected
    ]
    assert [r.value for r in rows] == [r.value for r in expected]


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


def _w1_results(values_by_n: dict, t_grid=(1.0,)) -> Results:
    """Results holding one ``w1`` column per n: the (R, T) values given."""
    blocks = {}
    for n, values in values_by_n.items():
        cells = np.asarray(values, dtype=float).reshape(-1, len(t_grid), 1)
        blocks[n] = (("w1",), cells, np.zeros((len(cells), 6)), np.zeros((len(t_grid), 8)))
    return Results("wigner", tuple(t_grid), blocks)


def test_sweep_recovers_synthetic_decay_slope():
    results = _w1_results({
        n: [2.0 / np.sqrt(n) * (1.0 + 0.01 * np.sin(3.0 * r + n)) for r in range(10)]
        for n in (25, 50, 100, 200)
    })
    line = sweep_report(results, stats=("w1",))["w1"]
    assert abs(line.slope - (-0.5)) <= 0.05
    assert line.monotone_decreasing
    assert line.n_values == (25, 50, 100, 200)


def test_sweep_flat_table_has_zero_slope():
    results = _w1_results({
        n: [0.3 + 5e-4 * ((n + 3 * r) % 7) for r in range(10)] for n in (25, 50, 100, 200)
    })
    line = sweep_report(results, stats=("w1",))["w1"]
    assert abs(line.slope) <= 0.05
    assert not line.monotone_decreasing


def test_sweep_uses_latest_time_only():
    results = _w1_results({25: [[9.0, 1.0]], 50: [[9.0, 0.5]]}, t_grid=(0.5, 1.0))
    line = sweep_report(results, stats=("w1",))["w1"]
    assert line.medians == (1.0, 0.5)


def test_sweep_needs_two_sizes():
    with pytest.raises(ValidationError, match="2 distinct n"):
        sweep_report(_w1_results({25: [1.0]}), stats=("w1",))
    moments_only = {
        n: (("m1",), np.ones((2, 1, 1)), np.zeros((2, 6)), np.zeros((1, 8))) for n in (25, 50)
    }
    with pytest.raises(ValidationError, match="no distance statistic"):
        sweep_report(Results("geometric", (1.0,), moments_only))


def _scanned_compare_and_sweep(rows, cfg):
    """compare's and sweep's values by the row scans that once derived them:
    {(n, stat): value} of compare's derived rows, each n's W1 medians over
    the grid, and {stat: (n_values, medians, slope, monotone)} of sweep."""
    t_final = cfg.t_grid[-1]
    law = make_bundle(cfg).law.moment_table(cfg.t_grid, 8)[-1]
    derived, w1_vs_t, sweep = {}, {}, {}
    for n in cfg.n_list:
        ens_final = {
            r.stat: r.value for r in rows if r.replica == "ens" and r.n == n and r.t == t_final
        }
        for k in range(1, 9):
            derived[n, f"m{k}_err"] = abs(ens_final[f"m{k}"] - float(law[k]))
        by_cell = {}
        for r in rows:
            if r.n == n and r.replica != "ens":
                by_cell.setdefault((r.stat, r.t), []).append(r.value)
        w1_vs_t[n] = [float(np.median(by_cell["w1", t])) for t in cfg.t_grid]
        derived[n, "w1_median"] = w1_vs_t[n][-1]
        derived[n, "ks_median"] = float(np.median(by_cell["ks", t_final]))
    for stat in ("w1", "ks"):
        stat_rows = [r for r in rows if r.stat == stat and r.replica != "ens"]
        t_max = {}
        for r in stat_rows:
            t_max[r.n] = max(t_max.get(r.n, r.t), r.t)
        per_n = {}
        for r in stat_rows:
            if r.t == t_max[r.n]:
                per_n.setdefault(r.n, []).append(r.value)
        ns = sorted(per_n)
        medians = [float(np.median(per_n[n])) for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(np.maximum(medians, 1e-300)), 1)[0])
        sweep[stat] = (ns, medians, slope, all(b < a for a, b in zip(medians, medians[1:])))
    return derived, w1_vs_t, sweep


def _plot_points(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# x y"
    return [tuple(float(v) for v in line.split()) for line in lines[1:]]


@pytest.mark.parametrize(
    "extra", ["preset = wigner\n", "preset = wishart_nonunique\nalpha = 0.5\n"],
    ids=["wigner", "wishart_nonunique"],
)
def test_cli_compare_and_sweep_values_equal_the_row_scans(tmp_path, extra):
    """Every value compare and sweep derive, as written, equals the row scans
    over run_preset's iterated rows; ``wishart_nonunique``'s extra
    ``neg_mass`` column shows a wrong column index."""
    text = extra + "n_list = 4, 8\nreplica_count = 3\nbase_seed = 11\ndt = 0.02\n"
    text += "t_grid = 0, 0.04, 0.1\n"
    cfg = parse_config_text(text)
    results = run_preset(cfg)
    rows = list(results)
    assert list(results) == rows  # iterable more than once
    derived, w1_vs_t, sweep = _scanned_compare_and_sweep(rows, cfg)
    path = _write_cfg(tmp_path, text)
    assert cli_main(["compare", "--config", path, "--out", str(tmp_path / "cmp")]) == 0
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "sw")]) == 0

    written = {}
    for line in _read_rows(tmp_path / "cmp" / "compare.csv"):
        _, n, replica, t, stat, value = line.split(",")
        if stat.endswith(("_err", "_median")):
            assert (replica, float(t)) == ("ens", cfg.t_grid[-1])
            written[int(n), stat] = float(value)
    assert written == derived
    for n in cfg.n_list:
        points = _plot_points(tmp_path / "cmp" / f"{cfg.preset}_n{n}_w1_vs_t.dat")
        assert points == list(zip(cfg.t_grid, w1_vs_t[n]))

    written = {}
    for line in _read_rows(tmp_path / "sw" / "sweep.csv"):
        _, n, _, _, stat, value = line.split(",")
        written[int(n), stat] = float(value)
    expected = {}
    for stat, (ns, medians, slope, monotone) in sweep.items():
        expected.update({(n, f"{stat}_median"): m for n, m in zip(ns, medians)})
        expected[ns[-1], f"{stat}_slope"] = slope
        expected[ns[-1], f"{stat}_monotone"] = float(monotone)
        assert _plot_points(tmp_path / "sw" / f"sweep_{stat}.dat") == list(zip(ns, medians))
    assert written == expected


# ---------------------------------------------------------------------------
# the columnar writer against the row-by-row oracle

_ORACLE_TINY = "n_list = 4, 8\nreplica_count = 3\nbase_seed = 11\ndt = 0.02\n"
_ORACLE_TINY += "t_grid = 0, 0.04, 0.1\n"
_ORACLE_SIMULATED = {"wigner": "", "wigner_real": "", "wishart_nonunique": "alpha = 0.5\n"}
_ORACLE_CASES = {
    **{
        f"{command}-{name}": (command, f"preset = {name}\n{extra}{_ORACLE_TINY}")
        for name, extra in _ORACLE_SIMULATED.items()
        for command in ("simulate", "compare", "sweep")
    },
    "compare-jacobi": ("compare", f"preset = jacobi\n{_ORACLE_TINY}"),
    "moments-jacobi": ("moments", "preset = jacobi\nt_grid = 0, 0.25, 0.5, 1\n"),
    "moments-wishart": ("moments", "preset = wishart\nt_grid = 0, 0.5, 1\n"),
    "invert-wishart": ("invert", "preset = wishart\nt_grid = 0, 1\n"),
    "invert-free_ou": ("invert", "preset = free_ou\nt_grid = 0, 0.5\n"),
    "residual-wishart_nonunique": ("residual", "preset = wishart_nonunique\nt_grid = 0, 0.5, 1\n"),
    "residual-wigner": ("residual", "preset = wigner\nt_grid = 0, 0.5\n"),
}


@pytest.mark.parametrize("command, text", list(_ORACLE_CASES.values()), ids=list(_ORACLE_CASES))
def test_cli_files_equal_the_row_by_row_rendering(tmp_path, command, text):
    """Every CSV and ``.dat`` body a subcommand writes from its arrays equals
    the row-by-row rendering of the ResultRows it once built."""
    path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli_main([command, "--config", path, "--out", str(out)]) == 0
    written = {}
    for file in sorted(out.iterdir()):
        body = file.read_text(encoding="utf-8")
        if file.suffix == ".csv":
            stamp, body = body.split("\n", 1)
            assert stamp.startswith("# timestamp=")
        written[file.name] = body
    assert written == csv_oracles.COMMANDS[command](parse_config_text(text))


def test_writers_spell_special_values_as_the_row_oracle(tmp_path, capsys):
    """-0.0, nan and the infinities, in a time or a value, read as the row
    renderer wrote them, and the row count counts the rows."""
    values = np.array([[-0.0, 0.0, np.nan, np.inf, -np.inf], [5e-324, 0.1, 1 / 3, 1e300, -2.5]])
    times, stats = (-0.0, 0.5), ("a", "b", "c", "d", "e")
    sections = [
        (3, "ens", cli_mod._texts(times), stats, cli_mod._texts(values)),
        (0, "law", cli_mod._texts(times[-1:]), ("z",), cli_mod._texts(np.float64(-0.0))),
        (3, "0", cli_mod._texts(times), stats[:1], cli_mod._texts(values[:, 2])),
    ]
    path = tmp_path / "x.csv"
    cli_mod._write_csv(path, "p", sections)
    rows = [
        ResultRow("p", 3, "ens", t, stat, v)
        for t, row in zip(times, values.tolist())
        for stat, v in zip(stats, row)
    ]
    rows += [ResultRow("p", 0, "law", 0.5, "z", -0.0)]
    rows += [ResultRow("p", 3, "0", t, "a", v) for t, v in zip(times, values[:, 2].tolist())]
    stamp, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert stamp.startswith("# timestamp=")
    assert body == csv_oracles.csv_body(rows)
    assert "p,3,ens,-0,a,-0\np,3,ens,-0,b,0\np,3,ens,-0,c,nan\np,3,ens,-0,d,inf\n" in body
    assert "p,3,ens,-0,e,-inf\n" in body
    assert capsys.readouterr().out == f"wrote 13 rows to {path}\n"
    flat = values.ravel().tolist()
    cli_mod._write_plot(tmp_path / "x.dat", cli_mod._texts(flat), cli_mod._texts(flat[::-1]))
    body = (tmp_path / "x.dat").read_text(encoding="utf-8")
    assert body == csv_oracles.plot_body(flat, flat[::-1])
    assert "-0 -2.5\n0 1.0000000000000001e+300\nnan 0.33333333333333331\n" in body


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


_FRESH_MAIN = "import sys; from eigenflow.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cli_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    """One cached parser serves every main() call: a flag given to one call
    must not reach the next, so each in-process output equals the same call
    run first in a fresh interpreter."""
    assert cli_mod.build_parser() is cli_mod.build_parser()
    sim = _write_cfg(tmp_path, TINY_WIGNER, "sim.cfg")
    inv = _write_cfg(
        tmp_path,
        "preset = wishart\nalpha = 2.5\nn_list = 25\nreplica_count = 1\n"
        "dt = 0.01\nt_grid = 0.0, 1.0\n",
        "inv.cfg",
    )
    calls = [
        (["simulate", "--config", sim, "--seed", "7", "--threads", "2"], "simulate.csv"),
        (["simulate", "--config", sim], "simulate.csv"),
        (["invert", "--config", inv], "invert.csv"),
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    for i, (argv, name) in enumerate(calls):
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_MAIN, *argv, "--out", str(tmp_path / f"fresh{i}")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
    for i, (argv, name) in enumerate(calls):
        assert cli_main([*argv, "--out", str(tmp_path / f"here{i}")]) == 0
    for i, (argv, name) in enumerate(calls):
        here = _read_rows(tmp_path / f"here{i}" / name)
        assert here == _read_rows(tmp_path / f"fresh{i}" / name), argv
    assert _read_rows(tmp_path / "here0" / "simulate.csv") != _read_rows(
        tmp_path / "here1" / "simulate.csv"
    )


# jacobi with p, q and a unset: the preset table fills them in
_COUNTED_CASES = {
    **{command: (command, TINY_WIGNER) for command in csv_oracles.COMMANDS},
    **{
        f"{command}-jacobi": (command, TINY_WIGNER.replace("wigner", "jacobi"))
        for command in ("simulate", "compare", "moments")
    },
}


@pytest.mark.parametrize(
    "command, text", list(_COUNTED_CASES.values()), ids=list(_COUNTED_CASES)
)
def test_cli_validates_its_config_once_with_the_flags_applied(
    tmp_path, monkeypatch, command, text
):
    """``--seed``, ``--threads`` and ``--out`` override the parsed values
    before the one construction, and the preset's defaults fill unset class
    parameters without a second one, so a subcommand validates one config."""
    built = []
    post_init = ExperimentConfig.__post_init__

    def counted(self):
        post_init(self)
        built.append((self.base_seed, self.threads, self.out_dir))

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "o")
    argv = [command, "--config", cfg, "--seed", "5", "--threads", "2", "--out", out]
    assert cli_main(argv) == 0
    assert built == [(5, 2, out)]
    built.clear()
    assert cli_main([command, "--config", cfg, "--out", out]) == 0
    assert built == [(11, None, out)]


@pytest.mark.parametrize(
    "flags, message",
    [(["--seed", "-1"], "base_seed must be >= 0"), (["--threads", "0"], "threads must be >= 1")],
    ids=["seed", "threads"],
)
def test_cli_rejects_a_bad_override_with_its_message(tmp_path, capsys, flags, message):
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


# The bindings that bench/layers.py rebinds through Tracer.patch, which reads
# ``owner.__dict__[attr]``: a rename here is a KeyError in a traced run.
_BENCH_SEAMS = {
    "cli": ("_write_csv", "run_preset", "cauchy_transform", "stieltjes_invert",
            "limit_equation_residual"),
    "presets": ("simulate_ensemble", "wasserstein1", "ks_distance", "limit_equation_residual"),
    "flows": ("euler_step", "sample_noise", "eigen", "apply_spectral", "hermitize",
              "simulate_path"),
    "limits": ("generic_moment_ode",),
    "empirical.EmpiricalMeasure": ("moment",),
    "empirical.EmpiricalMeasureProcess": ("from_law",),
}
# Tracer.patch keeps a staticmethod static and wraps any other binding as a
# plain function, so these must stay staticmethods: a classmethod or a plain
# method there would break every traced pass.
_BENCH_STATIC_SEAMS = {"empirical.EmpiricalMeasureProcess": ("from_law",)}


@pytest.mark.parametrize("owner", list(_BENCH_SEAMS))
def test_bench_tracer_seams_are_bound_where_it_patches_them(owner):
    module, _, cls = owner.partition(".")
    target = importlib.import_module(f"eigenflow.{module}")
    if cls:
        target = getattr(target, cls)
    for name in _BENCH_SEAMS[owner]:
        assert name in target.__dict__, f"{owner}.{name}"
    for name in _BENCH_STATIC_SEAMS.get(owner, ()):
        assert isinstance(target.__dict__[name], staticmethod), f"{owner}.{name}"


def test_run_preset_rows_carry_what_the_bench_checks_read():
    """bench/workloads.py::check iterates run_preset's result and reads
    ``.stat``, ``.n``, ``.replica``, ``.t`` and ``.value`` of each row."""
    rows = list(run_preset(parse_config_text(TINY_WIGNER)))
    assert rows
    for row in rows:
        assert isinstance(row.stat, str) and isinstance(row.replica, str)
        assert isinstance(row.n, int) and isinstance(row.t, float)
        assert isinstance(row.value, float)


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


def test_cli_simulate_names_the_off_step_time_as_written(tmp_path, capsys):
    """The off-step message gives the time's repr: 0.5000001 is not a
    multiple of dt = 0.001, though it prints as 0.5 in ``%g``. ``moments``
    never steps, so the same grid passes there."""
    cfg = _write_cfg(tmp_path, "preset = jacobi\nn_list = 4\nt_grid = 0.0, 0.5000001\n")
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "validation error: t_grid times must be multiples of dt=0.001; t=0.5000001 is not\n"
    )
    assert not (tmp_path / "o" / "simulate.csv").exists()
    assert cli_main(["moments", "--config", cfg, "--out", str(tmp_path / "m")]) == 0


def test_cli_simulate_rejects_record_times_that_share_a_step(tmp_path, capsys):
    """0.5 and 0.500000000001 are both multiples of dt within tolerance but
    round to one step, which would leave the row of 0.5 unwritten."""
    cfg = _write_cfg(
        tmp_path,
        "preset = wishart\nn_list = 25\nreplica_count = 2\nt_grid = 0.0, 0.5, 0.500000000001\n",
    )
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "validation error: t_grid times 0.5 and 0.500000000001 fall on the same step "
        "of dt=0.001; each record time needs a step of its own\n"
    )
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: _tiny_flow_spec(dt=float("nan")),
        lambda: _tiny_flow_spec(dt=float("inf")),
        lambda: _tiny_flow_spec(t_grid=(0.0, float("nan"))),
        lambda: eigenflow.sample_noise(3, "complex", float("nan"), np.random.default_rng(0)),
        lambda: eigenflow.sample_noise(3, "real", float("inf"), np.random.default_rng(0)),
        lambda: _tiny_flow_spec(n=0, initial_spectrum=np.zeros(0)),
        lambda: _tiny_flow_spec(n=-1),
        lambda: _tiny_flow_spec(n=2.5),
        lambda: eigenflow.sample_noise(0, "complex", 0.01, np.random.default_rng(0)),
        lambda: eigenflow.sample_noise(-1, "complex", 0.01, np.random.default_rng(0)),
        lambda: eigenflow.sample_noise(2.5, "real", 0.01, np.random.default_rng(0)),
        lambda: eigenflow.MarchenkoPastur(float("nan"), 1.0),
        lambda: eigenflow.MarchenkoPastur(2.0, float("nan")),
        lambda: eigenflow.MarchenkoPastur(float("inf"), 1.0),
        lambda: eigenflow.Semicircle(float("nan")),
        lambda: eigenflow.Semicircle(1.0, center=float("nan")),
        lambda: eigenflow.mp_mixture_two(0.5, float("nan")),
        lambda: eigenflow.mp_mixture_three(1.5, float("inf")),
        lambda: eigenflow.mp_mixture_three(1.5, 2.0, float("inf")),
        lambda: eigenflow.mp_mixture_two(0.5).at(float("nan")),
        lambda: eigenflow.mp_mixture_three(2.0, 3.0).at(float("inf")),
        lambda: eigenflow.PointMass(float("nan")),
        lambda: eigenflow.EmpiricalMeasureProcess((0.0, float("nan")), np.zeros((2, 2))),
        lambda: eigenflow.EmpiricalMeasure([0.1, float("nan"), 0.3]),
        lambda: eigenflow.EmpiricalMeasure([float("-inf"), 0.2]),
        lambda: eigenflow.mp_moments(float("nan"), 2, 1.0, 4),
        lambda: eigenflow.mp_moments(2.5, 2, float("nan"), 4),
        lambda: eigenflow.semicircle_moments(float("nan"), 2, 4),
        lambda: eigenflow.semicircle_moments(float("inf"), 2, 4),
        lambda: eigenflow.geometric_moments(float("nan"), 0.0, 2.0, 1.0, 4),
        lambda: eigenflow.geometric_moments(1.0, 0.0, 2.0, float("nan"), 4),
        lambda: eigenflow.mp_params(float("nan")),
        lambda: eigenflow.free_ou_variance(float("nan"), 1.0, 1.0),
        lambda: eigenflow.cauchy_transform(Semicircle(1.0), complex(float("nan"), 1.0)),
        lambda: eigenflow.cauchy_transform(Semicircle(1.0), complex(1.0, float("nan"))),
        lambda: eigenflow.cauchy_transform(
            eigenflow.EmpiricalMeasure([0.0, 1.0]), complex(1.0, math.inf)
        ),
        lambda: eigenflow.ct_evolution_rhs(
            Semicircle(1.0), complex(float("nan"), 1.0), np.ones_like, np.ones_like, np.ones_like
        ),
        lambda: eigenflow.stieltjes_invert(
            lambda z: eigenflow.cauchy_transform(Semicircle(1.0), z), [0.0, float("nan")], [0.1, 0.05]
        ),
    ],
    ids=["flow_dt_nan", "flow_dt_inf", "flow_t_grid_nan", "noise_dt_nan", "noise_dt_inf",
         "flow_n_zero", "flow_n_negative", "flow_n_fractional", "noise_n_zero",
         "noise_n_negative", "noise_n_fractional",
         "mp_alpha_nan", "mp_t_nan", "mp_alpha_inf", "semicircle_t_nan",
         "semicircle_center_nan", "mixture_two_t_nan", "mixture_three_alpha_inf",
         "mixture_three_t_inf", "mixture_two_at_nan", "mixture_three_at_inf", "point_mass_nan",
         "process_t_grid_nan", "empirical_atoms_nan",
         "empirical_atoms_inf", "mp_moments_alpha_nan", "mp_moments_t_nan",
         "semicircle_moments_t_nan", "semicircle_moments_t_inf", "geometric_moments_a_nan",
         "geometric_moments_t_nan", "mp_params_alpha_nan", "free_ou_variance_theta_nan",
         "transform_z_real_nan", "transform_z_imag_nan", "transform_z_imag_inf",
         "ct_evolution_rhs_z_nan", "stieltjes_invert_x_nan"],
)
def test_python_api_rejects_non_finite_inputs(build):
    with pytest.raises(ValidationError, match="finite"):
        build()


def test_cli_missing_config_exit_code(tmp_path, capsys):
    assert cli_main(["simulate"]) == 2
    assert "requires --config" in capsys.readouterr().err
    assert cli_main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_unreadable_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xff\xfe\x00")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot read config file")
    assert str(cfg) in err
    assert not (tmp_path / "o").exists()


_OUT_COMMANDS = {
    "simulate": TINY_WIGNER,
    "compare": TINY_WIGNER,
    "sweep": TINY_WIGNER,
    "invert": "preset = free_bm\nt_grid = 0.0, 0.5\n",
}


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_cli_out_path_that_is_a_file_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, nested
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli_mod, "run_preset", no_work)
    monkeypatch.setattr(cli_mod, "make_bundle", no_work)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "sub" if nested else taken
    cfg = _write_cfg(tmp_path, _OUT_COMMANDS[command])
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: output directory")
    assert f"{taken} exists and is not a directory" in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_cli_output_write_failure_exits_2_naming_the_path(tmp_path, capsys, command):
    out = tmp_path / "o"
    blocker = out / f"{command}.csv"
    blocker.mkdir(parents=True)
    cfg = _write_cfg(tmp_path, _OUT_COMMANDS[command])
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write output file {blocker}:")


def test_cli_output_mkdir_failure_exits_2_naming_the_path(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path, TINY_WIGNER)
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot create output directory {out}:")
    assert "Permission denied" in err


# Runs in a fresh interpreter: every subcommand on a tiny config of every
# preset (``threads`` unset) and the weighted transforms of the laws (a free
# PDE residual and ct_evolution_rhs of an MP law and a mixture), then
# reports the exit codes, any SciPy module that got loaded, and the
# process-pool modules loaded by the import alone and by the end.
_COLD_PATH_CHILD = """\
import contextlib, io, json, sys, tempfile
from pathlib import Path

def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))

from eigenflow.cli import main
from eigenflow.config import PRESET_NAMES
pools_at_import = pool_modules()

tiny = "n_list = 4, 8\\nreplica_count = 2\\nbase_seed = 3\\ndt = 0.05\\nt_grid = 0.0, 0.1\\n"
codes = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
    io.StringIO()
), contextlib.redirect_stderr(io.StringIO()):
    codes["presets"] = main(["presets"])
    for name in PRESET_NAMES:
        cfg = Path(tmp) / (name + ".cfg")
        extra = "g2 = 0.25\\nh2 = 1.0\\n" if name == "custom" else ""
        cfg.write_text("preset = " + name + "\\n" + tiny + extra, encoding="utf-8")
        for cmd in ("simulate", "compare", "sweep", "moments", "invert", "residual"):
            out = Path(tmp) / name / cmd
            codes[cmd + " " + name] = main([cmd, "--config", str(cfg), "--out", str(out)])
from eigenflow import MarchenkoPastur, ct_evolution_rhs, free_pde_residual, mp_mixture_three
free_pde_residual("free_ou", 0.5, 1.0 + 1.0j, theta=-1.0)
for law in (MarchenkoPastur(2.5, 1.0), mp_mixture_three(2.0, 3.0)):
    ct_evolution_rhs(law, 1.0 + 0.5j, abs, abs, abs)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
pools = {"import": pools_at_import, "end": pool_modules()}
print(json.dumps({"codes": codes, "scipy": scipy, "pools": pools}))
"""


@pytest.fixture(scope="module")
def cold_path_report():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_CHILD],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_subcommand_imports_scipy(cold_path_report):
    report = cold_path_report
    # laws without a CDF (geometric, jacobi) have no sweep, density or
    # residual; the custom flow has no law at all
    expected_2 = {
        f"{cmd} {name}"
        for name in ("geometric", "jacobi")
        for cmd in ("sweep", "invert", "residual")
    } | {f"{cmd} custom" for cmd in ("compare", "sweep", "moments", "invert", "residual")}
    assert len(report["codes"]) == 1 + 6 * len(PRESET_NAMES)
    assert {k for k, code in report["codes"].items() if code == 2} == expected_2
    assert {k for k, code in report["codes"].items() if code not in (0, 2)} == set()
    assert report["scipy"] == []


def test_serial_runs_import_no_process_pool(cold_path_report):
    """With ``threads`` unset no subcommand loads multiprocessing or
    concurrent.futures, and neither does importing the CLI."""
    assert cold_path_report["pools"] == {"import": [], "end": []}


def test_cli_failure_in_a_replica_worker_exits_3(tmp_path, capsys, monkeypatch):
    """Every normal drawn in a worker process is NaN: at --threads 2 the
    worker's range {1, 2} fails at its first step, and the CLI exits 3
    naming replica 1 and the time."""
    parent, real_draw = os.getpid(), flows_mod._draw_normals

    def worker_poisoned_draw(streams, z):
        real_draw(streams, z)
        if os.getpid() != parent:
            z[...] = np.nan

    monkeypatch.setattr(flows_mod, "_draw_normals", worker_poisoned_draw)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _write_cfg(tmp_path, TINY_WIGNER.replace("n_list = 4, 8", "n_list = 4"))
    code = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip() == (
        "numerical error: flow 'wigner' (n=4): step matrix is not finite in replica 1 at t=0.1"
    )


def test_cli_never_calls_numpy_polyval(tmp_path, monkeypatch):
    """Every polynomial the package evaluates goes through its one Horner
    helper: no module holds numpy's polyval, and with polyval patched to
    raise, the law residual and a simulation still exit 0."""
    polyval = np.polynomial.polynomial.polyval
    for name, module in list(sys.modules.items()):
        if name.startswith("eigenflow"):
            assert all(value is not polyval for value in vars(module).values()), name

    def broken(*args, **kwargs):
        raise AssertionError("numpy polyval called")

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", broken)
    res = _write_cfg(tmp_path, "preset = wishart_nonunique\nt_grid = 0.0, 0.5, 1.0\n", "r.cfg")
    sim = _write_cfg(tmp_path, TINY_WIGNER.replace("wigner", "wishart"), "s.cfg")
    assert cli_main(["residual", "--config", res, "--out", str(tmp_path / "r")]) == 0
    assert cli_main(["simulate", "--config", sim, "--out", str(tmp_path / "s")]) == 0


def test_cli_moments_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "preset = geometric\nt_grid = 0.0, 1.0\n")
    assert cli_main(["moments", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "m1" in out
    rows = _read_rows(tmp_path / "m" / "moments.csv")
    law_rows = [r for r in rows if r.split(",")[2] == "law"]
    assert law_rows and all(r.split(",")[1] == "0" for r in law_rows)


def test_cli_law_moments_do_not_depend_on_dt(tmp_path):
    """The law side steps its own hierarchy: the simulation dt never enters."""
    texts = []
    for dt in ("0.001", "0.01"):
        cfg = _write_cfg(tmp_path, f"preset = jacobi\ndt = {dt}\nt_grid = 0.0, 0.5, 1.0\n")
        assert cli_main(["moments", "--config", cfg, "--out", str(tmp_path / dt)]) == 0
        texts.append(_read_rows(tmp_path / dt / "moments.csv"))
    assert len(texts[0]) == 3 * 8
    assert texts[0] == texts[1]


def test_cli_moments_checks_its_grid_with_one_stacked_eigvalsh(tmp_path, monkeypatch):
    """``moments`` on a hierarchy law checks its whole (21, 9) table with one
    stacked Hankel eigvalsh, not one per time."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    grid = ", ".join(f"{0.05 * i:g}" for i in range(21))
    cfg = _write_cfg(tmp_path, f"preset = jacobi\nt_grid = {grid}\n")
    assert cli_main(["moments", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    assert shapes == [(21, 5, 5)]


@pytest.mark.parametrize("name", ["geometric", "jacobi"])
def test_cli_residual_of_a_moments_only_law_exits_2(tmp_path, capsys, name):
    cfg = _write_cfg(tmp_path, f"preset = {name}\n")
    assert cli_main(["residual", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"validation error: preset {name!r} exposes moments only; its law has no CDF"
        " for quantile-discretized residuals\n"
    )
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["geometric", "jacobi"])
def test_moments_only_presets_take_the_hierarchy_law_of_their_own_arrays(name):
    bundle = make_bundle(default_config(name))
    law = bundle.law
    assert isinstance(law, eigenflow.HierarchyLaw)
    assert (law.b, law.g2, law.h2) == (bundle.b, bundle.g2, bundle.h2)
    assert (law.beta, law.a) == (bundle.beta, bundle.cfg.a)


@pytest.mark.parametrize(
    "text",
    ["preset = geometric\n", "preset = jacobi\n", "preset = custom\ng2 = 0.25\nh2 = 1.0\n"],
    ids=["geometric", "jacobi", "custom"],
)
def test_cli_sweep_without_a_law_cdf_fails_before_any_step(tmp_path, capsys, monkeypatch, text):
    def no_steps(*args, **kwargs):
        raise AssertionError("sweep simulated before finding that it has no distance to sweep")

    monkeypatch.setattr(presets_mod, "simulate_ensemble", no_steps)
    cfg = _write_cfg(tmp_path, text + "n_list = 4, 8\n")
    assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 2
    assert capsys.readouterr().err.startswith("validation error: preset")
    assert not (tmp_path / "sw").exists()


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
