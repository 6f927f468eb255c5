"""Empirical spectral measures, distances to limit laws, and residuals.

An empirical measure puts mass 1/n on each recorded eigenvalue. This
module quantifies weak convergence (Kolmogorov-Smirnov and Wasserstein-1
distances against limit laws, honoring atoms) and provides numerical
residuals of the limiting measure-evolution equation

    d<mu_t, f>/dt = int b f' dmu_t
                    + (beta/2) iint (f'(x) - f'(y))/(x - y) G(x, y)
                      dmu_t(x) dmu_t(y),

with G(x, y) = g^2(x) h^2(y) + g^2(y) h^2(x) and the divided difference
equal to f'' on the diagonal (automatic for polynomial f), together with
the finite-n decomposition of d<mu, f> into drift, (2-beta)/(2n)
correction, interaction, and martingale parts.

The double integral is never formed atom pair by atom pair. For
polynomial f it separates into power sums,

    iint (f'(x) - f'(y))/(x - y) G dmu dmu = 2 sum_j f'_j (P_g * P_h)[j-1],

with P_g[l] = <mu, x^l g^2>, P_h[l] = <mu, x^l h^2> and * discrete
convolution, exact at coincident atoms and for any g^2, h^2 (see
:func:`eigenflow.limits._interaction_kernel`): O(n deg f) per measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import UnsupportedLawOperation, ValidationError
from .flows import EigenPath, FlowSpec
from .limits import _cumtrapz, _interaction_kernel

__all__ = [
    "EmpiricalMeasure",
    "EmpiricalMeasureProcess",
    "em_sde_decomposition",
    "ks_distance",
    "limit_equation_residual",
    "wasserstein1",
]

_W1_GRID = 4000  # fixed for test determinism


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform probability measure on a finite sorted atom set."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.sort(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValidationError("empirical measure needs a nonempty 1-d atom array")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.atoms.size

    def moment(self, k: int) -> float:
        """k-th moment (1/n) sum atoms^k; moment(0) = 1."""
        if k < 0:
            raise ValidationError("k must be >= 0")
        if k == 0:
            return 1.0
        return float(np.mean(self.atoms**k))

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF."""
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.atoms, x, side="right") / self.n
        return out if out.ndim else float(out)

    def cdf_left(self, x) -> np.ndarray:
        """Left limit of the CDF."""
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.atoms, x, side="left") / self.n
        return out if out.ndim else float(out)

    def mass_below(self, x0: float) -> float:
        """Mass of (-inf, x0)."""
        return float(self.cdf_left(x0))


@dataclass(frozen=True)
class EmpiricalMeasureProcess:
    """Empirical measures aligned with an ascending time grid."""

    t_grid: np.ndarray
    measures: tuple

    def __post_init__(self):
        grid = np.asarray(self.t_grid, dtype=float)
        measures = tuple(self.measures)
        if grid.size != len(measures) or grid.size == 0:
            raise ValidationError("t_grid and measures must align and be nonempty")
        if not np.all(np.isfinite(grid)):
            raise ValidationError("t_grid entries must be finite")
        if np.any(np.diff(grid) <= 0) and grid.size > 1:
            raise ValidationError("t_grid must be strictly ascending")
        counts = {m.n for m in measures}
        if len(counts) != 1:
            raise ValidationError("all measures must have the same atom count")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "measures", measures)

    @staticmethod
    def from_path(path: EigenPath) -> "EmpiricalMeasureProcess":
        return EmpiricalMeasureProcess(
            t_grid=path.t_grid,
            measures=tuple(EmpiricalMeasure(s) for s in path.spectra),
        )

    @staticmethod
    def from_law(law, t_grid, atom_count: int) -> "EmpiricalMeasureProcess":
        """Quantile discretization of a limit-law family along a grid."""
        return EmpiricalMeasureProcess(
            t_grid=np.asarray(t_grid, dtype=float),
            measures=tuple(
                EmpiricalMeasure(law.at(t).quantile_atoms(atom_count)) for t in t_grid
            ),
        )

    def __len__(self) -> int:
        return len(self.measures)


def _require_cdf(law) -> None:
    if not getattr(law, "has_cdf", True):
        raise UnsupportedLawOperation(
            f"{type(law).__name__} exposes moments only (no CDF); "
            "distance statistics are undefined"
        )


def _law_atoms(law) -> list[tuple[float, float]]:
    getter = getattr(law, "atoms", None)
    return list(getter()) if callable(getter) else []


def ks_distance(m: EmpiricalMeasure, law) -> float:
    """Kolmogorov-Smirnov distance sup_x |F_emp(x) - F_law(x)|.

    Both CDFs are right-continuous step/absolutely-continuous mixtures;
    the supremum is attained at an atom of either measure, approached from
    the left or the right, so it suffices to compare both one-sided limits
    at every empirical atom and every law atom.
    """
    _require_cdf(law)
    pts = np.concatenate([m.atoms, [p for p, _ in _law_atoms(law)]])
    pts = np.unique(pts)
    f_law = np.asarray(law.cdf(pts), dtype=float)
    mass = np.zeros_like(pts)
    for pos, mas in _law_atoms(law):
        mass[np.searchsorted(pts, pos)] += mas
    f_law_left = f_law - mass
    f_emp = np.asarray(m.cdf(pts))
    f_emp_left = np.asarray(m.cdf_left(pts))
    return float(
        np.max(np.maximum(np.abs(f_emp - f_law), np.abs(f_emp_left - f_law_left)))
    )


def wasserstein1(m: EmpiricalMeasure, law) -> float:
    """W1 distance = int |F_emp - F_law| dx.

    Quadrature on a fixed 4000-point grid spanning the union of supports,
    with all empirical and law atoms inserted exactly (grid size fixed so
    results are deterministic).
    """
    _require_cdf(law)
    law_lo, law_hi = law.bounds()
    atom_pos = [p for p, _ in _law_atoms(law)]
    lo = min(float(m.atoms[0]), law_lo, *atom_pos) if atom_pos else min(float(m.atoms[0]), law_lo)
    hi = max(float(m.atoms[-1]), law_hi, *atom_pos) if atom_pos else max(float(m.atoms[-1]), law_hi)
    if hi <= lo:
        hi = lo + 1.0
    grid = np.unique(
        np.concatenate([np.linspace(lo, hi, _W1_GRID), m.atoms, np.asarray(atom_pos)])
    )
    f_emp = np.asarray(m.cdf(grid))
    f_law = np.asarray(law.cdf(grid), dtype=float)
    return float(np.sum(np.abs(f_emp - f_law)[:-1] * np.diff(grid)))


def _poly_coeffs(f) -> np.ndarray:
    poly = getattr(f, "poly", None)
    if poly is not None:
        return np.asarray(poly, dtype=float)
    return np.atleast_1d(np.asarray(f, dtype=float))


def _limit_terms(
    proc: EmpiricalMeasureProcess,
    coeffs: np.ndarray,
    g2: Callable,
    h2: Callable,
    b: Callable,
) -> np.ndarray:
    """Per-time <mu, f>, <mu, f' b> and iint dd_{f'} G dmu dmu, as 3 rows.

    ``coeffs`` is one ascending coefficient array, giving shape (3, T), or
    a 2-D array of rows, giving shape (3, rows, T): each measure's powers
    and power sums are formed once, at the largest degree, for every row.
    The double integral runs over the full product measure (diagonal =
    f'') and comes from the atoms' power sums through the interaction
    kernel.
    """
    rows = np.atleast_2d(coeffs)
    width = max(rows.shape[1], 2)  # f' has at least one coefficient
    rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
    fp = rows[:, 1:] * np.arange(1, width)
    terms = np.empty((3, rows.shape[0], len(proc)))
    for idx, m in enumerate(proc.measures):
        lam = m.atoms
        powers = np.vander(lam, width, increasing=True) / lam.size  # lam^l / n
        head = powers[:, : width - 2].T
        p_g = head @ np.broadcast_to(g2(lam), lam.shape)
        p_h = head @ np.broadcast_to(h2(lam), lam.shape)
        terms[0, :, idx] = rows @ powers.sum(axis=0)
        terms[1, :, idx] = fp @ (np.broadcast_to(b(lam), lam.shape) @ powers[:, :-1])
        terms[2, :, idx] = fp @ _interaction_kernel(p_g, p_h)
    return terms if np.ndim(coeffs) == 2 else terms[:, 0]


def limit_equation_residual(
    proc: EmpiricalMeasureProcess,
    f,
    g2: Callable,
    h2: Callable,
    b: Callable,
    beta: float,
) -> float | np.ndarray:
    """Max-over-grid residual of the limiting evolution equation.

    ``f`` is a polynomial (coefficient array or an object with ``poly``),
    or a 2-D array whose rows are coefficient arrays; ``g2``, ``h2``,
    ``b`` are callables evaluating g^2, h^2 and the drift on atom arrays.
    Time integration is trapezoidal on the recorded grid; the double
    integral is the exact atom sum over the product measure.
    Returns max_t |<mu_t,f> - <mu_0,f> - int_0^t RHS ds| as a float, or
    one such residual per row of a 2-D ``f`` (one pass over the measures
    serves every row).
    """
    coeffs = _poly_coeffs(f)
    if coeffs.ndim > 2:
        raise ValidationError("f must be a coefficient array or a 2-d array of rows")
    if coeffs.shape[-1] > 13:
        raise ValidationError("polynomial degree must be <= 12")
    observable, drift, inter = _limit_terms(proc, coeffs, g2, h2, b)
    rhs = _cumtrapz(drift + 0.5 * beta * inter, proc.t_grid)
    res = np.max(np.abs(observable - observable[..., :1] - rhs), axis=-1)
    return res if coeffs.ndim == 2 else float(res)


def em_sde_decomposition(proc: EmpiricalMeasureProcess, f, spec: FlowSpec) -> dict:
    """Finite-n decomposition of <mu_t, f> - <mu_0, f> into named parts.

    Returns cumulative (time-integrated, trapezoid on the recorded grid)
    arrays aligned with the grid:

    - ``drift``:       int int f' b dmu ds, with b the spec's drift;
    - ``correction``:  (2-beta)/(2n) int int f'' G(x,x) dmu ds with
                       G(x,x) = 2 g^2 h^2 — identically 0 at beta = 2;
    - ``interaction``: (beta/2) int iint dd_f G dmu dmu ds over the full
                       product measure (diagonal = f'');
    - ``martingale``:  the remainder lhs - drift - correction - interaction;
    - ``lhs``:         <mu_t, f> - <mu_0, f>.
    """
    coeffs = _poly_coeffs(f)
    fpp = polyder(coeffs, 2)
    n = spec.n
    beta = spec.beta

    def g2(lam):
        return np.asarray(spec.g(lam), dtype=float) ** 2

    def h2(lam):
        return np.asarray(spec.h(lam), dtype=float) ** 2

    observable, drift_i, inter_i = _limit_terms(proc, coeffs, g2, h2, spec.b)
    corr_i = np.array([
        np.mean(polyval(m.atoms, fpp) * 2.0 * g2(m.atoms) * h2(m.atoms))
        for m in proc.measures
    ])
    lhs = observable - observable[0]
    drift = _cumtrapz(drift_i, proc.t_grid)
    correction = _cumtrapz((2.0 - beta) / (2.0 * n) * corr_i, proc.t_grid)
    interaction = _cumtrapz(0.5 * beta * inter_i, proc.t_grid)
    return {
        "lhs": lhs,
        "drift": drift,
        "correction": correction,
        "interaction": interaction,
        "martingale": lhs - drift - correction - interaction,
    }
