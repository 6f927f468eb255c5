"""Hermitian linear algebra and spectrally-acting scalar functions.

A matrix flow applies scalar coefficient functions to a Hermitian state
through its eigendecomposition: f(X) = V diag(f(lam)) V*. This module
provides the eigendecomposition contract used throughout the package
(ascending eigenvalues, orthonormal eigenbasis), Hermitian symmetrization,
and a small carrier type for the scalar functions themselves.

Eigendecompositions delegate to ``numpy.linalg.eigh`` (LAPACK), which
guarantees ascending eigenvalues and an orthonormal basis for Hermitian
input; the test suite cross-checks it against an independent cyclic Jacobi
implementation on small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpectralFunction",
    "apply_spectral",
    "eigen",
    "hermitize",
]


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto Hermitian matrices: (X + X*)/2."""
    return 0.5 * (x + x.conj().T)


def eigen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending (real) and
    orthonormal eigenvectors in the columns of ``v``, so that
    ``x = v @ diag(w) @ v.conj().T``.
    """
    return np.linalg.eigh(x)


@dataclass(frozen=True)
class SpectralFunction:
    """A scalar function applied to eigenvalues.

    ``fn`` evaluates the function on an array of (real) eigenvalues. When
    the function is a polynomial, ``poly`` holds its coefficients in
    ascending-degree order; the path simulator can then recognise constant
    coefficients, and moment engines can consume the coefficients
    symbolically.

    Coefficient functions of the flows are of the form sqrt(|p(x)|) for a
    low-degree polynomial p (so that their squares are polynomials); use
    :meth:`sqrt_abs_poly` for those — ``square_poly`` then records p.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    poly: np.ndarray | None = None
    square_poly: np.ndarray | None = None
    name: str = "f"

    @staticmethod
    def constant(c: float, name: str | None = None) -> "SpectralFunction":
        cval = float(c)
        return SpectralFunction(
            fn=lambda lam: np.full_like(np.asarray(lam, dtype=float), cval),
            poly=np.array([cval]),
            square_poly=np.array([cval * cval]),
            name=name or f"const({c})",
        )

    @staticmethod
    def from_poly(coeffs, name: str | None = None) -> "SpectralFunction":
        """Polynomial function with ascending-degree coefficients."""
        c = np.asarray(coeffs, dtype=float)
        return SpectralFunction(
            fn=lambda lam: np.polynomial.polynomial.polyval(
                np.asarray(lam, dtype=float), c
            ),
            poly=c,
            name=name or "poly",
        )

    @staticmethod
    def sqrt_abs_poly(square_coeffs, name: str | None = None) -> "SpectralFunction":
        """The function sqrt(|p(x)|), where p has the given coefficients.

        The absolute value matches how flow coefficients are defined on the
        whole real line (e.g. sqrt(|x|) for square-root diffusions), so no
        domain clamp is required for the coefficient evaluation itself.
        """
        c = np.asarray(square_coeffs, dtype=float)
        return SpectralFunction(
            fn=lambda lam: np.sqrt(
                np.abs(np.polynomial.polynomial.polyval(np.asarray(lam, dtype=float), c))
            ),
            square_poly=c,
            name=name or "sqrt_abs_poly",
        )

    @property
    def is_constant(self) -> bool:
        """True for a degree-0 polynomial, or sqrt(|p|) of one."""
        return any(c is not None and np.size(c) == 1 for c in (self.poly, self.square_poly))

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(lam, dtype=float))


def apply_spectral(
    x_or_eig: np.ndarray | tuple[np.ndarray, np.ndarray],
    f: SpectralFunction | Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix spectrally.

    Accepts either the matrix itself or a precomputed ``(w, v)``
    eigendecomposition (as returned by :func:`eigen`) so callers stepping a
    flow can reuse one decomposition for several coefficient functions.
    """
    if isinstance(x_or_eig, tuple):
        w, v = x_or_eig
    else:
        w, v = eigen(np.asarray(x_or_eig))
    fw = f(w)
    return (v * fw) @ v.conj().T
