"""Experiment configuration: a flat ``key = value`` text format.

One key per line, ``#`` starts a comment, list values are comma-separated.
Example::

    # converging Wishart flow
    preset = wishart
    alpha = 2.5
    n_list = 25, 50
    replica_count = 20
    base_seed = 2024
    t_grid = 0.0, 0.25, 0.5, 0.75, 1.0

Every key maps to a field of :class:`ExperimentConfig`; unknown keys are
rejected. Class parameters left unset are filled with the preset's
defaults when the experiment runs (see :mod:`eigenflow.presets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .flows import _FIELDS, _PROJECTIONS

__all__ = [
    "PRESET_NAMES",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
]

PRESET_NAMES = (
    "wigner",
    "wigner_real",
    "wishart",
    "wishart_nonunique",
    "geometric",
    "jacobi",
    "free_bm",
    "free_ou",
    "custom",
)


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, preset defaults not yet applied.

    ``alpha``, ``a``, ``p``, ``q``, ``theta``, ``sigma`` are the class
    parameters (each preset uses a subset; ``None`` means "preset
    default"). ``g2``, ``h2``, ``b`` are ascending polynomial coefficient
    arrays used only by the ``custom`` preset (squared coefficient
    functions and the limiting drift). ``field`` and ``projection`` are
    likewise only consulted by ``custom`` — the named presets fix their
    own.
    """

    preset: str
    n_list: tuple = (25, 50, 100)
    replica_count: int = 20
    base_seed: int = 2024
    dt: float = 1e-3
    t_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    alpha: float | None = None
    a: float | None = None
    p: float | None = None
    q: float | None = None
    theta: float | None = None
    sigma: float | None = None
    g2: tuple | None = None
    h2: tuple | None = None
    b: tuple | None = None
    field: str = "complex"
    projection: str = "none"
    out_dir: str = "."
    threads: int | None = None

    def __post_init__(self):
        if self.preset not in PRESET_NAMES:
            raise ValidationError(
                f"unknown preset {self.preset!r}; valid presets: {', '.join(PRESET_NAMES)}"
            )
        n_list = tuple(int(n) for n in self.n_list)
        if not n_list or any(n < 1 for n in n_list):
            raise ValidationError("n_list must be a nonempty list of positive integers")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValidationError("n_list must be strictly ascending")
        self.n_list = n_list
        if self.replica_count < 1:
            raise ValidationError("replica_count must be >= 1")
        if self.base_seed < 0:
            raise ValidationError("base_seed must be >= 0")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive and finite")
        t_grid = tuple(float(t) for t in self.t_grid)
        if not all(math.isfinite(t) for t in t_grid):
            raise ValidationError("t_grid entries must be finite")
        if not t_grid or t_grid[0] != 0.0 or any(
            t2 <= t1 for t1, t2 in zip(t_grid, t_grid[1:])
        ):
            raise ValidationError("t_grid must be ascending and start at 0")
        self.t_grid = t_grid
        for key in ("alpha", "a", "p", "q", "theta", "sigma"):
            val = getattr(self, key)
            if val is not None and not math.isfinite(val):
                raise ValidationError(f"{key} must be finite")
        if self.field not in _FIELDS:
            raise ValidationError(f"field must be one of {_FIELDS}")
        if self.projection not in _PROJECTIONS:
            raise ValidationError(f"projection must be one of {_PROJECTIONS}")
        if self.threads is not None and self.threads < 1:
            raise ValidationError("threads must be >= 1")
        for key in ("g2", "h2", "b"):
            val = getattr(self, key)
            if val is not None:
                coeffs = tuple(float(c) for c in val)
                if not all(math.isfinite(c) for c in coeffs):
                    raise ValidationError(f"{key} coefficients must be finite")
                setattr(self, key, coeffs)


_INT_KEYS = {"replica_count", "base_seed", "threads"}
_FLOAT_KEYS = {"dt", "alpha", "a", "p", "q", "theta", "sigma"}
_INT_LIST_KEYS = {"n_list"}
_FLOAT_LIST_KEYS = {"t_grid", "g2", "h2", "b"}
_STR_KEYS = {"preset", "field", "projection", "out_dir"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _INT_LIST_KEYS | _FLOAT_LIST_KEYS | _STR_KEYS


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_LIST_KEYS:
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        if key in _FLOAT_LIST_KEYS:
            return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
        return raw
    except ValueError as exc:
        raise ValidationError(f"config line {lineno}: bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """Parse config text into an :class:`ExperimentConfig`, validated once
    with ``overrides`` (field values) in place of the parsed ones."""
    data: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in data:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        data[key] = _parse_value(key, raw, lineno)
    if "preset" not in data:
        raise ValidationError("config must set 'preset'")
    return ExperimentConfig(**{**data, **overrides})


def load_config(path, **overrides) -> ExperimentConfig:
    """Read and parse a config file, ``overrides`` as in :func:`parse_config_text`."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {p}: {exc}") from exc
    return parse_config_text(text, **overrides)
