"""Per-measure reference implementations of the empirical statistics.

These are the one-measure-at-a-time bodies that the stacked kernels of
:mod:`eigenflow.empirical` and :func:`eigenflow.presets.run_preset`
replaced. The tests hold the kernels to them bit for bit (``==``, not
``isclose``): the CSVs must not move by an ulp. The exceptions are W1,
whose kernel is exact, so the grid quadratures it replaced
(``wasserstein1``, ``_w1_row``) and a fine trapezoid rule
(``fine_wasserstein1``) bound it; and the limit-equation terms, where
``limit_terms`` follows the stacked kernel's per-measure order bit for bit
and ``vander_limit_terms``, the np.vander / np.convolve form it replaced,
agrees to roundoff.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from eigenflow import EmpiricalMeasureProcess
from eigenflow.empirical import _poly_coeffs, wasserstein1 as exact_wasserstein1
from eigenflow.flows import simulate_ensemble
from eigenflow.limits import _cumtrapz, _interaction_kernel
from eigenflow.presets import (
    _MOMENT_COUNT,
    _RESIDUAL_DEGREES,
    ResultRow,
    _monomials,
    make_bundle,
)
from moment_oracles import convolve_interaction_kernel


_W1_GRID = 4000  # fixed for test determinism


def law_mesh(law) -> tuple[np.ndarray, np.ndarray]:
    """A CDF law's mesh: its unit shape's mesh dilated by (loc, scale), or
    the jump of the point mass at loc when the scale is 0."""
    loc, scale = law._dilation()
    if scale == 0:
        return np.array([loc, loc]), np.array([0.0, 1.0])
    xs, fs = law._unit_mesh(law._shape_key)
    return loc + scale * xs, fs


def ks_distance(m, law) -> float:
    """sup |F_emp - F_law| over both one-sided limits at the unique points."""
    pts = np.concatenate([m.atoms, [p for p, _ in law.atoms()]])
    pts = np.unique(pts)
    f_law = np.asarray(law.cdf(pts), dtype=float)
    mass = np.zeros_like(pts)
    for pos, mas in law.atoms():
        mass[np.searchsorted(pts, pos)] += mas
    f_law_left = f_law - mass
    f_emp = np.asarray(m.cdf(pts))
    f_emp_left = np.asarray(m.cdf_left(pts))
    return float(
        np.max(np.maximum(np.abs(f_emp - f_law), np.abs(f_emp_left - f_law_left)))
    )


def wasserstein1(m, law) -> float:
    """int |F_emp - F_law| dx on the np.unique grid of linspace and atoms."""
    law_lo, law_hi = law.bounds()
    atom_pos = [p for p, _ in law.atoms()]
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


def _w1_row(atoms: np.ndarray, law, bounds: tuple, atom_pos: list) -> float:
    """W1 of one sorted atom row, on the grid ``np.unique`` would give
    (linspace and atoms, exact duplicates dropped), merged instead of sorted."""
    lo = min(float(atoms[0]), bounds[0], *atom_pos)
    hi = max(float(atoms[-1]), bounds[1], *atom_pos)
    if hi <= lo:
        hi = lo + 1.0
    base = np.linspace(lo, hi, _W1_GRID)
    extra = np.sort(np.concatenate([atoms, atom_pos])) if atom_pos else atoms
    grid = np.insert(base, np.searchsorted(base, extra), extra)
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    f_emp = np.bincount(np.searchsorted(grid, atoms), minlength=grid.size).cumsum() / atoms.size
    f_law = np.asarray(law.cdf(grid), dtype=float)
    return float(np.sum(np.abs(f_emp - f_law)[:-1] * np.diff(grid)))


def w1_grid_error(atoms: np.ndarray, law) -> float:
    """Bound on |exact W1 - grid W1| for both grid oracles: on each cell the
    left Riemann sum misses at most the cell width times the law's CDF
    increase (the empirical CDF is constant there), so in all at most the
    widest cell, the linspace step."""
    atom_pos = [p for p, _ in law.atoms()]
    lo = min(float(atoms[0]), law.bounds()[0], *atom_pos)
    hi = max(float(atoms[-1]), law.bounds()[1], *atom_pos)
    return (hi - lo) / (_W1_GRID - 1) if hi > lo else 0.0


def fine_wasserstein1(atoms: np.ndarray, law, points: int = 100_001) -> float:
    """int |F_emp - F_law| dx by the trapezoid rule on a fine grid.

    The grid holds every jump of either CDF and every point of the law's
    CDF mesh, where a mesh law's interpolated CDF bends. Each cell takes
    both CDFs' right limits at its left end and their left limits at its
    right end, so the integrand is continuous on the cell, and linear there
    except where F_law is curved or crosses the empirical level. (A left
    Riemann sum would be first order: about 5e-7 off even at 2e6 points.)
    """
    atoms = np.sort(np.asarray(atoms, dtype=float))
    law_atoms = law.atoms()
    jumps = np.concatenate([atoms, [p for p, _ in law_atoms]])
    lo = min(jumps.min(), law.bounds()[0])
    hi = max(jumps.max(), law.bounds()[1])
    grid = np.unique(np.concatenate([np.linspace(lo, hi, points), jumps, law_mesh(law)[0]]))
    f_right = np.asarray(law.cdf(grid), dtype=float)
    mass = np.zeros_like(grid)
    for pos, w in law_atoms:
        mass[grid == pos] += w
    f_left = f_right - mass
    e_right, e_left = (
        np.searchsorted(atoms, grid, side=side) / atoms.size for side in ("right", "left")
    )
    g_start = np.abs(e_right - f_right)[:-1]
    g_end = np.abs(e_left - f_left)[1:]
    return float(np.sum(0.5 * (g_start + g_end) * np.diff(grid)))


def _coefficient_rows(coeffs) -> tuple[np.ndarray, np.ndarray, int]:
    """f's rows padded to a common width >= 2, their f' rows, and the width."""
    rows = np.atleast_2d(coeffs)
    width = max(rows.shape[1], 2)
    rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
    return rows, rows[:, 1:] * np.arange(1, width), width


def limit_terms(proc, coeffs, g2, h2, b) -> np.ndarray:
    """(3, T) or (3, rows, T) terms, one measure at a time in the stacked
    kernel's order: the measure's (width, n) table of powers lambda^l / n
    against its (4, n) stack [1, g^2, h^2, b], then the interaction kernel
    of its own power sums."""
    rows, fp, width = _coefficient_rows(coeffs)
    terms = np.empty((3, rows.shape[0], len(proc)))
    for idx, m in enumerate(proc.measures):
        lam = m.atoms
        powers = np.ascontiguousarray(np.vander(lam, width, increasing=True).T) / lam.size
        weights = np.stack(
            [np.broadcast_to(w, lam.shape) for w in (1.0, g2(lam), h2(lam), b(lam))]
        )
        sums = weights @ powers.T  # (4, width)
        terms[0, :, idx] = rows @ sums[0]
        terms[1, :, idx] = fp @ sums[3, :-1]
        terms[2, :, idx] = fp @ _interaction_kernel(sums[1, :-2], sums[2, :-2])
    return terms if np.ndim(coeffs) == 2 else terms[:, 0]


def vander_limit_terms(proc, coeffs, g2, h2, b) -> np.ndarray:
    """The same terms by one (n, width) np.vander pass per measure, column
    power sums and an np.convolve interaction: a different summation order,
    so it agrees with the kernel to roundoff, not bit for bit."""
    rows, fp, width = _coefficient_rows(coeffs)
    terms = np.empty((3, rows.shape[0], len(proc)))
    for idx, m in enumerate(proc.measures):
        lam = m.atoms
        powers = np.vander(lam, width, increasing=True) / lam.size
        head = powers[:, : width - 2].T
        p_g = head @ np.broadcast_to(g2(lam), lam.shape)
        p_h = head @ np.broadcast_to(h2(lam), lam.shape)
        terms[0, :, idx] = rows @ powers.sum(axis=0)
        terms[1, :, idx] = fp @ (np.broadcast_to(b(lam), lam.shape) @ powers[:, :-1])
        terms[2, :, idx] = fp @ convolve_interaction_kernel(p_g, p_h)
    return terms if np.ndim(coeffs) == 2 else terms[:, 0]


def limit_equation_residual(proc, f, g2, h2, b, beta):
    coeffs = _poly_coeffs(f)
    observable, drift, inter = limit_terms(proc, coeffs, g2, h2, b)
    rhs = _cumtrapz(drift + 0.5 * beta * inter, proc.t_grid)
    res = np.max(np.abs(observable - observable[..., :1] - rhs), axis=-1)
    return res if coeffs.ndim == 2 else float(res)


def em_sde_decomposition(proc, f, spec) -> dict:
    coeffs = _poly_coeffs(f)
    fpp = polyder(coeffs, 2)
    n, beta = spec.n, spec.beta

    def g2(lam):
        return np.asarray(spec.g(lam), dtype=float) ** 2

    def h2(lam):
        return np.asarray(spec.h(lam), dtype=float) ** 2

    observable, drift_i, inter_i = limit_terms(proc, coeffs, g2, h2, spec.b)
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


def run_preset(cfg) -> list[ResultRow]:
    """The (replica, time) row loop, one statistic call per cell: the
    bodies above for KS and the residual, and the exact W1 kernel's
    one-measure call (its stacked call must give the same bits)."""
    bundle = make_bundle(cfg)
    cfg = bundle.cfg
    g2, h2, b = bundle.residual_coefficients()
    monomials = _monomials(_RESIDUAL_DEGREES)
    law = bundle.law
    cdf_laws = {} if law is None else {t: law.at(t) for t in cfg.t_grid if law.at(t).has_cdf}
    rows: list[ResultRow] = []
    for n in cfg.n_list:
        spec = bundle.flow_spec(n)
        paths = simulate_ensemble(spec, cfg.replica_count, cfg.base_seed, threads=cfg.threads)
        t_final = float(spec.t_grid[-1])
        ens = np.zeros((len(spec.t_grid), _MOMENT_COUNT))
        for path in paths:
            proc = EmpiricalMeasureProcess.from_path(path)
            rep = str(path.replica)
            for ti, t in enumerate(spec.t_grid):
                meas = proc.measures[ti]
                for k in range(1, _MOMENT_COUNT + 1):
                    val = meas.moment(k)
                    ens[ti, k - 1] += val
                    rows.append(ResultRow(cfg.preset, n, rep, t, f"m{k}", val))
                law_t = cdf_laws.get(t)
                if law_t is not None:
                    rows.append(
                        ResultRow(cfg.preset, n, rep, t, "w1", exact_wasserstein1(meas, law_t))
                    )
                    rows.append(ResultRow(cfg.preset, n, rep, t, "ks", ks_distance(meas, law_t)))
                if cfg.preset == "wishart_nonunique":
                    rows.append(ResultRow(cfg.preset, n, rep, t, "neg_mass", meas.mass_below(0.0)))
            residuals = limit_equation_residual(proc, monomials, g2, h2, b, beta=bundle.beta)
            for k, val in zip(_RESIDUAL_DEGREES, residuals):
                rows.append(ResultRow(cfg.preset, n, rep, t_final, f"residual_x{k}", val))
            diags = path.diagnostics
            rows.append(ResultRow(cfg.preset, n, rep, t_final, "min_eig", diags.min_eigenvalue))
            rows.append(ResultRow(cfg.preset, n, rep, t_final, "max_eig", diags.max_eigenvalue))
        ens /= len(paths)
        for ti, t in enumerate(spec.t_grid):
            for k in range(1, _MOMENT_COUNT + 1):
                rows.append(ResultRow(cfg.preset, n, "ens", t, f"m{k}", float(ens[ti, k - 1])))
    return rows
