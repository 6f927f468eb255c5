"""Empirical spectral measures, distances to limit laws, and residuals.

An empirical measure (mass 1/n per recorded eigenvalue) sums over its
atoms for its Cauchy transforms and takes its moments by one running
product. This module measures weak convergence by Kolmogorov-Smirnov and
Wasserstein-1 distances to limit laws with a CDF, honoring atoms, one
law or a family's laws over a whole time grid per call, and gives
residuals of the limiting measure-evolution equation

    d<mu_t, f>/dt = int b f' dmu_t
                    + (beta/2) iint (f'(x) - f'(y))/(x - y) G(x, y)
                      dmu_t(x) dmu_t(y),

with G(x, y) = g^2(x) h^2(y) + g^2(y) h^2(x) and the divided difference
equal to f'' on the diagonal (automatic for polynomial f), together with
the finite-n decomposition of d<mu, f> into drift, (2-beta)/(2n)
correction, interaction, and martingale parts.

The double integral is never formed atom pair by atom pair: for
polynomial f it separates into the power sums <mu, x^l g^2> and
<mu, x^l h^2>, exact at coincident atoms and for any g^2, h^2
(:func:`eigenflow.limits._interaction_kernel`): O(n deg f) per measure.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder

from .errors import UnsupportedLawOperation, ValidationError
from .flows import EigenPath, FlowSpec
from .limits import _cumtrapz, _Dilated, _Family, _interaction_kernel, _LawBase
from .linalg import _horner

__all__ = [
    "EmpiricalMeasure",
    "EmpiricalMeasureProcess",
    "em_sde_decomposition",
    "ks_distance",
    "limit_equation_residual",
    "wasserstein1",
]

_CHUNK_ENTRIES = 1 << 16  # cap on the entries of one chunk's per-atom tables


def _chunks(count: int, entries: int):
    """Slices cutting ``count`` cells into chunks of at most
    ``_CHUNK_ENTRIES // entries`` cells (at least one) of ``entries`` each."""
    step = max(1, _CHUNK_ENTRIES // entries)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _moment_table(atoms: np.ndarray, k_max: int) -> np.ndarray:
    """m_0..m_kmax of each atom row (last axis) of ``atoms``, as its
    trailing axis: the means of one running product x^k = x^(k-1) x, the
    power rule of :func:`_limit_terms`, so m_1 and m_2 are the means of x
    and x * x. The rows run in chunks of at most ``_CHUNK_ENTRIES`` atoms;
    a row's means are the same bits in any chunk and any stack."""
    n = atoms.shape[-1]
    rows = atoms.reshape(-1, n)
    out = np.empty((len(rows), k_max + 1))
    out[:, 0] = 1.0
    for cells in _chunks(len(rows), n):
        power = rows[cells].copy()
        for k in range(1, k_max + 1):
            if k > 1:
                power *= rows[cells]
            out[cells, k] = np.mean(power, axis=-1)
    return out.reshape(atoms.shape[:-1] + (k_max + 1,))


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform probability measure on a finite sorted atom set."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.sort(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValidationError("empirical measure needs a nonempty 1-d atom array")
        if not np.isfinite(atoms[[0, -1]]).all():  # sorting puts nan and +-inf at the ends
            raise ValidationError("empirical measure atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.atoms.size

    def moment(self, k: int) -> float:
        """k-th moment (1/n) sum atoms^k, the powers by the running product
        x^k = x^(k-1) x (:func:`_moment_table`); moment(0) = 1."""
        if not (isinstance(k, numbers.Integral) and k >= 0):
            raise ValidationError(f"k must be an integer >= 0, got {k!r}")
        return float(_moment_table(self.atoms, k)[k])

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

    def transform(self, z):
        """Cauchy transform (1/n) sum (atom - z)^{-1}, elementwise in z."""
        return self.weighted_transform(np.ones_like, z, 1)

    def weighted_transform(self, weight, z, power: int):
        """(1/n) sum weight(atom) (atom - z)^{-power}, elementwise in z."""
        wv = np.asarray(weight(self.atoms), dtype=float)
        return np.mean(wv / (self.atoms - np.expand_dims(z, -1)) ** power, axis=-1)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasureProcess:
    """Empirical measures aligned with an ascending time grid.

    ``spectra`` is a (T, n) array like :attr:`EigenPath.spectra`: row i holds
    the ascending atoms of the measure at ``t_grid[i]``. ``measures`` gives
    its rows as :class:`EmpiricalMeasure` objects, built on first use.
    """

    t_grid: np.ndarray
    spectra: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.t_grid, dtype=float)
        spectra = np.asarray(self.spectra, dtype=float)
        if spectra.ndim != 2 or spectra.shape[1] == 0:
            raise ValidationError("empirical measure needs a nonempty 1-d atom array")
        if grid.shape != spectra.shape[:1] or grid.size == 0:
            raise ValidationError("t_grid and measures must align and be nonempty")
        if not np.all(np.isfinite(grid)):
            raise ValidationError("t_grid entries must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("t_grid must be strictly ascending")
        if not np.isfinite(spectra).all():
            raise ValidationError("empirical measure atoms must be finite")
        if np.any(spectra[:, 1:] < spectra[:, :-1]):
            raise ValidationError("each row of spectra must be ascending")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "spectra", spectra)

    @staticmethod
    def from_path(path: EigenPath) -> "EmpiricalMeasureProcess":
        return EmpiricalMeasureProcess(path.t_grid, path.spectra)

    @staticmethod
    def from_law(law, t_grid, atom_count: int) -> "EmpiricalMeasureProcess":
        """Quantile discretization of a limit-law family along a grid, row i
        the (ascending) ``law.at(t_i).quantile_atoms(atom_count)`` bit for bit:
        the quantile atoms of the family's ``at_times`` table, no law built
        per time. A law without a CDF, or an object that is no limit law,
        raises UnsupportedLawOperation; ``atom_count`` must be an integer >= 1."""
        if not (isinstance(atom_count, numbers.Integral) and atom_count >= 1):
            raise ValidationError(f"atom_count must be an integer >= 1, got {atom_count!r}")
        _require_cdf(law)
        return EmpiricalMeasureProcess(t_grid, law.at_times(t_grid).quantile_atoms(atom_count))

    @functools.cached_property
    def measures(self) -> tuple:
        return tuple(EmpiricalMeasure(row) for row in self.spectra)

    def __len__(self) -> int:
        return self.t_grid.size


def _require_cdf(law) -> None:
    if not (isinstance(law, _Family) and law.has_cdf):
        what = "exposes moments only (no CDF)" if isinstance(law, _Family) else "is no limit law"
        raise UnsupportedLawOperation(f"{type(law).__name__} {what}: no distance statistics")


def _atom_rows(m) -> np.ndarray:
    """A measure's sorted atoms, or an array of sorted atom rows as given."""
    return m.atoms if isinstance(m, EmpiricalMeasure) else np.asarray(m, dtype=float)


def _per_cell(statistic: Callable, m, law) -> float | np.ndarray:
    """``statistic(rows, laws)`` of each sorted atom row of ``m`` against its
    law, in chunks of (c, n) rows with the matching (c, 1) :class:`_Dilated`
    table: ``law`` is one law with a CDF, met by every row, or a family's
    ``at_times(times)`` table, met by the rows at each time (the rows'
    second-to-last axis). A chunk's widest table, (c, 2n), holds at most
    ``_CHUNK_ENTRIES`` entries; a row's value is the same bits in any chunk."""
    if not isinstance(law, _Dilated):
        _require_cdf(law)
        if not isinstance(law, _LawBase):
            what = f"{type(law).__name__} is a family with no time of its own"
            raise UnsupportedLawOperation(f"{what}: pass .at(t) or .at_times(times)")
        law = law._dilated()
    atoms = _atom_rows(m)
    lead, n = atoms.shape[:-1], atoms.shape[-1]
    rows = atoms.reshape(-1, n)
    loc, scale = (np.broadcast_to(v, lead + (1,)).reshape(-1, 1) for v in (law.loc, law.scale))
    out = np.empty(len(rows))
    for cells in _chunks(len(rows), 2 * n):
        out[cells] = statistic(rows[cells], law._replace(loc=loc[cells], scale=scale[cells]))
    return float(out[0]) if isinstance(m, EmpiricalMeasure) else out.reshape(lead)[()]


def _ks_rows(atoms: np.ndarray, law: _Dilated) -> np.ndarray:
    n = atoms.shape[-1]
    pos, mass = law.atoms()  # (c, 1): each law's one atom, of mass 0 if it has none
    pos = np.where(mass > 0, pos, atoms[:, :1])  # none: a point already compared
    pts = np.concatenate([atoms, pos], axis=-1)
    f_law = law.cdf(pts)
    jump = np.where(pts == pos, mass, 0.0)
    # empirical counts below (left) and at or below (right) each point: for
    # an atom, the ends of its run of ties in the sorted row
    index, tie = np.arange(n), atoms[:, 1:] == atoms[:, :-1]  # atom i + 1 ties atom i
    left = np.maximum.accumulate(np.where(np.pad(tie, ((0, 0), (1, 0))), 0, index), axis=-1)
    back = np.maximum.accumulate(np.where(np.pad(tie, ((0, 0), (0, 1)))[:, ::-1], 0, index), axis=-1)
    right = n - back[:, ::-1]
    f_emp, f_emp_left = (
        np.concatenate([run, np.count_nonzero(below, axis=-1, keepdims=True)], axis=-1) / n
        for run, below in ((right, atoms <= pos), (left, atoms < pos))
    )
    return np.max(np.maximum(np.abs(f_emp - f_law), np.abs(f_emp_left - (f_law - jump))), axis=-1)


def ks_distance(m, law) -> float | np.ndarray:
    """Kolmogorov-Smirnov distance sup_x |F_emp(x) - F_law(x)|.

    ``m`` is an :class:`EmpiricalMeasure` (returns a float) or an array
    whose last axis holds sorted atom rows (returns one distance per row).
    ``law`` is a law with a CDF, met by every row, or a family's
    ``at_times(times)`` table over a time grid, met by the rows of each time
    (an (R, T, n) ensemble's spectra take one call for the whole grid): one
    pass over the rows in chunks, one ``cdf`` call per chunk.
    Both CDFs are right-continuous step/absolutely-continuous mixtures;
    the supremum is attained at an atom of either measure, approached from
    the left or the right, so it suffices to compare both one-sided limits
    at every empirical atom and at the law's atom (a point met twice gives
    the same term twice, so no ``np.unique`` is needed). The empirical
    counts come from the runs of ties in each sorted row, with no search.
    """
    return _per_cell(_ks_rows, m, law)


def _w1_rows(atoms: np.ndarray, law: _Dilated) -> np.ndarray:
    n = atoms.shape[-1]
    lo, hi = atoms[:, :-1], atoms[:, 1:]
    split = np.clip(law.level_quantiles(n), lo, hi)
    top = law.bounds()[1]
    phi = law.integrated_cdf(np.concatenate([atoms, split, top], axis=-1))
    phi_x, phi_q = phi[:, :n], phi[:, n:-1]
    levels = np.arange(1, n) / n
    pieces = levels * (2.0 * split - lo - hi) - 2.0 * phi_q + phi_x[:, :-1] + phi_x[:, 1:]
    tails = phi_x[:, 0] + (phi_x[:, -1] - atoms[:, -1]) + (top[:, 0] - phi[:, -1])
    return tails + pieces.sum(axis=-1)


def wasserstein1(m, law) -> float | np.ndarray:
    """W1 distance int |F_emp - F_law| dx, in closed form (Vallender,
    Theory Probab. Appl. 18, 1973).

    ``m`` is an :class:`EmpiricalMeasure` (returns a float) or an array
    whose last axis holds sorted atom rows x_1 <= ... <= x_n (returns one
    distance per row). ``law`` is a law with a CDF, met by every row, or a
    family's ``at_times(times)`` table over a time grid, met by the rows of
    each time (an (R, T, n) ensemble's spectra take one call for the whole
    grid). With Phi(x) = int_{-inf}^x F_law: left of x_1 the integral is
    Phi(x_1); right of x_n it is Phi(x_n) - x_n + mean, with mean =
    top - Phi(top) for the law's upper bound ``top``. On [x_i, x_{i+1}] the
    empirical CDF is the level L = i/n, F_law crosses it at
    q = clip(Q(L), x_i, x_{i+1}), and the piece is

        L (2q - x_i - x_{i+1}) - 2 Phi(q) + Phi(x_i) + Phi(x_{i+1}).

    The rows run in chunks, each taking one ``level_quantiles`` and one
    ``integrated_cdf`` call (of every row's atoms, split points and top).
    A split point off by d moves its piece by O(f d^2), and only downwards.
    """
    return _per_cell(_w1_rows, m, law)


def _poly_coeffs(f) -> np.ndarray:
    poly = getattr(f, "poly", None)
    if poly is not None:
        return np.asarray(poly, dtype=float)
    return np.atleast_1d(np.asarray(f, dtype=float))


def _limit_terms(
    atoms: np.ndarray,
    coeffs: np.ndarray,
    g2: Callable,
    h2: Callable,
    b: Callable,
) -> np.ndarray:
    """Per-measure <mu, f>, <mu, f' b> and iint dd_{f'} G dmu dmu, as 3 rows.

    ``atoms`` stacks M measures' sorted atoms as an (M, n) array.
    ``coeffs`` is one ascending coefficient array, giving shape (3, M), or
    a 2-D array of rows, giving shape (3, rows, M): each measure's powers
    and power sums are formed once, at the largest degree, for every row.
    The measures run in chunks whose (chunk, width, n) table of powers
    lambda^l / n holds at most ``_CHUNK_ENTRIES`` entries; one stacked
    matmul against the (chunk, 4, n) stack [1, g^2, h^2, b] gives every
    power sum <x^l w>, and one interaction-kernel call the double integral
    over the full product measure (diagonal = f''). Every stacked product
    makes, per measure, the BLAS call of a one-measure product, so a
    measure's terms are the same bits in any chunk.
    """
    rows = np.atleast_2d(coeffs)
    width = max(rows.shape[1], 2)  # f' has at least one coefficient
    rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
    fp = rows[:, 1:] * np.arange(1, width)
    count, n = atoms.shape
    terms = np.empty((3, rows.shape[0], count))
    for cells in _chunks(count, n * width):
        lam = atoms[cells]
        # lam^l / n, as np.vander forms the powers: one running product
        powers = np.empty((len(lam), width, n))
        powers[:, 0] = 1.0
        for l in range(1, width):
            np.multiply(powers[:, l - 1], lam, out=powers[:, l])
        powers /= n
        weights = np.empty((len(lam), 4, n))
        weights[:, 0] = 1.0
        for row, fn in enumerate((g2, h2, b), start=1):
            weights[:, row] = fn(lam)
        sums = weights @ powers.swapaxes(-1, -2)  # (chunk, 4, width)
        inter = _interaction_kernel(sums[:, 1, : width - 2], sums[:, 2, : width - 2])
        chunk = terms[..., cells]
        chunk[0] = (rows @ sums[:, 0, :, None])[..., 0].T
        chunk[1] = (fp @ sums[:, 3, : width - 1, None])[..., 0].T
        chunk[2] = (fp @ inter[..., None])[..., 0].T
    return terms if np.ndim(coeffs) == 2 else terms[:, 0]


def limit_equation_residual(
    proc: EmpiricalMeasureProcess | EigenPath | Sequence[EigenPath],
    f,
    g2: Callable,
    h2: Callable,
    b: Callable,
    beta: float,
) -> float | np.ndarray:
    """Max-over-grid residual of the limiting evolution equation.

    ``proc`` is a process or an :class:`EigenPath`, whose ``spectra`` rows
    (the measures' sorted atoms) go through :func:`_limit_terms` as one
    stack; or a nonempty list or tuple of them on one grid, such as an
    ensemble's paths, whose rows all go through one stacked pass. ``f`` is
    a polynomial (coefficient array or an object with
    ``poly``), or a 2-D array whose rows are coefficient arrays; ``g2``, ``h2``,
    ``b`` are callables evaluating g^2, h^2 and the drift on atom arrays.
    Time integration is trapezoidal on the recorded grid; the double
    integral is the exact atom sum over the product measure.
    Returns max_t |<mu_t,f> - <mu_0,f> - int_0^t RHS ds| as a float, or
    one such residual per row of a 2-D ``f`` (one pass over the measures
    serves every row); for a list of R processes, one residual per process
    (shape (R,), or (rows, R) for a 2-D ``f``), each the bits of its own call.
    """
    coeffs = _poly_coeffs(f)
    if coeffs.ndim > 2:
        raise ValidationError("f must be a coefficient array or a 2-d array of rows")
    if coeffs.shape[-1] > 13:
        raise ValidationError("polynomial degree must be <= 12")
    stack = isinstance(proc, (list, tuple))
    if stack and not (proc and all(np.array_equal(p.t_grid, proc[0].t_grid) for p in proc)):
        raise ValidationError("a list of processes must be nonempty and share one time grid")
    t_grid = proc[0].t_grid if stack else proc.t_grid
    spectra = np.stack([p.spectra for p in proc]) if stack else proc.spectra  # (..., T, n)
    terms = _limit_terms(spectra.reshape(-1, spectra.shape[-1]), coeffs, g2, h2, b)
    observable, drift, inter = terms.reshape(terms.shape[:-1] + spectra.shape[:-1])
    rhs = _cumtrapz(drift + 0.5 * beta * inter, t_grid)
    res = np.max(np.abs(observable - observable[..., :1] - rhs), axis=-1)
    return res if res.ndim else float(res)


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

    atoms = proc.spectra
    observable, drift_i, inter_i = _limit_terms(atoms, coeffs, g2, h2, spec.b)
    corr_i = np.mean(_horner(atoms, tuple(fpp.tolist())) * 2.0 * g2(atoms) * h2(atoms), axis=-1)
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
