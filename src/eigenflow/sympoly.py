"""Symmetric polynomials of spectra and the drift identities built on them.

Provides elementary symmetric polynomials e_k, power sums p_k, Newton's
identities as a residual check, "incomplete" elementary polynomials (the
e_k of a spectrum with one or two entries deleted), the pairwise drift
identity that removes the (lam_i - lam_j)^{-1} singularity from eigenvalue
interaction sums, and the finite-variation drift of log det for positive
spectra.

All incomplete polynomials are computed by re-running the elementary-
symmetric recurrence on the deleted spectrum — never by dividing the full
e_k, which cancels catastrophically when e_n is small. The recurrence is
order-independent (symmetric functions), which allows a single vectorized
pass over the spectrum with per-row deletion masks.

Residuals are normalized relatively as |lhs - rhs| / (1 + |rhs|), so
identities remain testable near zero.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = [
    "elementary_symmetric",
    "incomplete_elementary",
    "incomplete_elementary_pairs",
    "log_det_drift",
    "newton_residual",
    "pairwise_drift_identity_residual",
    "power_sums",
]


def _rel(diff: float, target: float) -> float:
    return abs(diff) / (1.0 + abs(target))


def _masked_elementary(lam: np.ndarray, keep: np.ndarray, kept: int) -> np.ndarray:
    """Row r: e_0..e_kept of the entries of lam that row r of the boolean
    mask ``keep`` keeps (``kept`` of them in every row). The stable prefix
    recurrence e_k <- e_k + lam_l e_{k-1}, no divisions, advances every row
    that keeps lam_l in one vectorized step per entry; symmetric functions
    do not depend on the order."""
    out = np.zeros((keep.shape[0], kept + 1))
    out[:, 0] = 1.0
    for ell, x in enumerate(lam):
        rows = keep[:, ell]
        out[rows, 1:] += x * out[rows, :-1]
    return out


def _spectrum(lam, deleted: int) -> np.ndarray:
    """lam as a float array, unless it is not 1-d, not finite, or has fewer
    than ``deleted`` entries to delete: then ValidationError."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValidationError("elementary symmetric polynomials expect a 1-d spectrum")
    if not np.all(np.isfinite(lam)):
        raise ValidationError("spectrum must be finite")
    if lam.size < deleted:
        raise ValidationError(f"spectrum must have at least {deleted} entries, got {lam.size}")
    return lam


def elementary_symmetric(lam) -> np.ndarray:
    """All elementary symmetric polynomials e_0..e_n of a spectrum: the one
    full row of :func:`_masked_elementary`, O(n^2) additions. e_0 = 1.
    """
    lam = _spectrum(lam, 0)
    return _masked_elementary(lam, np.ones((1, lam.size), dtype=bool), lam.size)[0]


def power_sums(lam, k_max: int) -> np.ndarray:
    """Power sums p_1..p_K, p_k = sum_i lam_i^k."""
    lam = np.asarray(lam, dtype=float)
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    powers = lam[None, :] ** np.arange(1, k_max + 1)[:, None]
    return powers.sum(axis=1)


def newton_residual(e: np.ndarray, p: np.ndarray, k: int) -> float:
    """Relative residual of Newton's identity at order k.

    p_k = sum_{i=1}^{k-1} (-1)^{i-1} e_i p_{k-i} + (-1)^{k-1} k e_k,
    with e = (e_0..e_n) and p = (p_1..p_K). Returns
    |p_k - rhs| / (1 + |p_k|).
    """
    e = np.asarray(e, dtype=float)
    p = np.asarray(p, dtype=float)
    n = e.size - 1
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    if p.size < k:
        raise ValidationError("power-sum array too short for requested k")
    rhs = (-1.0) ** (k - 1) * k * e[k]
    for i in range(1, k):
        rhs += (-1.0) ** (i - 1) * e[i] * p[k - i - 1]
    return _rel(p[k - 1] - rhs, p[k - 1])


def incomplete_elementary(lam) -> np.ndarray:
    """Matrix E with E[i, k] = e_k of the spectrum with lam_i removed.

    Shape (n, n): columns k = 0..n-1. Row i is the row of
    :func:`_masked_elementary` whose mask drops lam_i. Needs n >= 1.
    """
    lam = _spectrum(lam, 1)
    return _masked_elementary(lam, ~np.eye(lam.size, dtype=bool), lam.size - 1)


def incomplete_elementary_pairs(lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e_k of the spectrum with two entries removed, for every pair i<j.

    Returns ``(ii, jj, E2)`` where ``ii, jj`` index the deleted pair and
    ``E2[p, k]`` is e_k (k = 0..n-2) of the spectrum with lam_ii[p] and
    lam_jj[p] removed: the row of :func:`_masked_elementary` whose mask
    drops both. Needs n >= 2.
    """
    lam = _spectrum(lam, 2)
    ii, jj = np.triu_indices(lam.size, k=1)
    ells = np.arange(lam.size)
    keep = (ii[:, None] != ells) & (jj[:, None] != ells)
    return ii, jj, _masked_elementary(lam, keep, lam.size - 2)


def pairwise_drift_identity_residual(
    lam,
    g: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
    k: int,
) -> float:
    """Relative residual of the pairwise drift identity at order k.

    With G(x, y) = g^2(x) h^2(y) + g^2(y) h^2(x), the singular interaction
    sum telescopes into a polynomial one:

        sum_i lam_i^{k-1} sum_{j != i} G(lam_i, lam_j) / (lam_i - lam_j)
          = sum_{i<j} ( sum_{l=0}^{k-2} lam_i^l lam_j^{k-2-l} ) G(lam_i, lam_j)

    by the symmetry of G. Requires pairwise-distinct lam and k >= 2.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if k < 2:
        raise ValidationError("pairwise drift identity requires k >= 2")
    diff = lam[:, None] - lam[None, :]
    off = ~np.eye(n, dtype=bool)
    if np.any(diff[off] == 0.0):
        raise ValidationError("spectrum entries must be pairwise distinct")
    g2 = np.asarray(g(lam), dtype=float) ** 2
    h2 = np.asarray(h(lam), dtype=float) ** 2
    big_g = np.outer(g2, h2) + np.outer(h2, g2)

    ratio = np.zeros_like(diff)
    ratio[off] = big_g[off] / diff[off]
    lhs = float(np.sum(lam ** (k - 1) * ratio.sum(axis=1)))

    ells = np.arange(k - 1)
    pows_i = lam[:, None] ** ells[None, :]          # lam_i^l
    pows_j = lam[:, None] ** ells[::-1][None, :]    # lam_j^{k-2-l}
    kernel = pows_i @ pows_j.T                      # sum_l lam_i^l lam_j^{k-2-l}
    iu = np.triu_indices(n, k=1)
    rhs = float(np.sum(kernel[iu] * big_g[iu]))
    return _rel(lhs - rhs, rhs)


def log_det_drift(
    lam,
    g: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
    b: Callable[[np.ndarray], np.ndarray],
    beta: float,
) -> float:
    """Finite-variation drift of V = log det at a positive spectrum.

    For a flow with coefficients g, h and drift b on a positive spectrum,
    the drift of log e_n is

        -(2 / (n e_n^2)) sum_i g^2 h^2 (e_{n-1}^{(i)})^2
        + (1 / (n e_n)) [ sum_i b(lam_i) e_{n-1}^{(i)}
                          - beta sum_{i<j} G(lam_i, lam_j) e_{n-2}^{(i,j)} ]

    where e^{(i)}, e^{(i,j)} are incomplete elementary polynomials of the
    deleted spectra and G(x,y) = g^2(x)h^2(y) + g^2(y)h^2(x). Its sign
    controls whether the determinant (hence positivity) can be lost.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValidationError("log_det_drift requires a strictly positive spectrum")
    n = lam.size
    e = elementary_symmetric(lam)
    e_n = e[n]
    e1 = incomplete_elementary(lam)          # e1[i, k] = e_k without lam_i
    g2 = np.asarray(g(lam), dtype=float) ** 2
    h2 = np.asarray(h(lam), dtype=float) ** 2
    bv = np.asarray(b(lam), dtype=float)

    quad = -(2.0 / (n * e_n**2)) * float(np.sum(g2 * h2 * e1[:, n - 1] ** 2))
    drift_part = float(np.sum(bv * e1[:, n - 1]))

    if n >= 2:
        ii, jj, e2 = incomplete_elementary_pairs(lam)
        big_g = g2[ii] * h2[jj] + g2[jj] * h2[ii]
        inter = float(np.sum(big_g * e2[:, n - 2]))
    else:
        inter = 0.0
    return quad + (drift_part - beta * inter) / (n * e_n)
