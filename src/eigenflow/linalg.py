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
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SpectralFunction",
    "apply_spectral",
    "eigen",
    "hermitize",
]


def _degree(coeffs) -> int:
    """Degree of an ascending coefficient array: the index of its last
    nonzero entry, so trailing zeros do not count (0 for the zero array)."""
    return int(max(np.flatnonzero(coeffs), default=0))


def _horner(x, coeffs: Sequence):
    """p(x) for ascending scalar ``coeffs`` (floats, or Fractions for exact
    values): bit for bit ``numpy.polynomial.polynomial.polyval(x, coeffs)``,
    ±inf, nan and -0.0 included, by its Horner steps from its
    ``coeffs[-1] + x*0`` start, without its reshape of the coefficients to
    x's rank (whose broadcast first step costs more than all the rest)."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


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

    Degrees ignore trailing zero coefficients. A function that carries
    neither ``poly`` nor ``square_poly`` has no known degree: it is never
    constant, and the flows do not judge its growth.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    poly: np.ndarray | None = None
    square_poly: np.ndarray | None = None

    @staticmethod
    def constant(c: float) -> "SpectralFunction":
        cval = float(c)
        return SpectralFunction(
            fn=lambda lam: np.full_like(np.asarray(lam, dtype=float), cval),
            poly=np.array([cval]),
            square_poly=np.array([cval * cval]),
        )

    @staticmethod
    def from_poly(coeffs) -> "SpectralFunction":
        """Polynomial function with ascending-degree coefficients."""
        c = np.asarray(coeffs, dtype=float)
        terms = tuple(np.atleast_1d(c).tolist())
        return SpectralFunction(
            fn=lambda lam: _horner(np.asarray(lam, dtype=float), terms),
            poly=c,
        )

    @staticmethod
    def sqrt_abs_poly(square_coeffs) -> "SpectralFunction":
        """The function sqrt(|p(x)|), where p has the given coefficients.

        The absolute value matches how flow coefficients are defined on the
        whole real line (e.g. sqrt(|x|) for square-root diffusions), so no
        domain clamp is required for the coefficient evaluation itself.
        """
        p = SpectralFunction.from_poly(square_coeffs)
        return SpectralFunction(
            fn=lambda lam: np.sqrt(np.abs(p(lam))),
            square_poly=p.poly,
        )

    @property
    def square_degree(self) -> int | None:
        """Degree of f^2 as a polynomial, |square_poly| or poly^2; None when
        f carries neither."""
        if self.square_poly is not None:
            return _degree(self.square_poly)
        return None if self.poly is None else 2 * _degree(self.poly)

    @property
    def is_constant(self) -> bool:
        """True when f^2, hence f, is a degree-0 polynomial."""
        return self.square_degree == 0

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
