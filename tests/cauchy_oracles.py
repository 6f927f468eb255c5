"""Reference quadrature for the weighted transforms of the laws.

:meth:`eigenflow.limits._LawBase.weighted_transform` integrates each piece
of a law's continuous part by the trapezoid rule in theta, which converges
or raises. This is the rule it replaced: SciPy's adaptive ``quad``, run on
the real and the imaginary part of each piece separately, one scalar theta
at a time. The tests hold the trapezoid rule to it where ``quad`` is
reliable, and read it as the reference for the closed-form transforms.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


def cquad(f: Callable[[float], complex], a: float, b: float) -> complex:
    re = quad(lambda s: f(s).real, a, b, **QUAD_OPTS)[0]
    im = quad(lambda s: f(s).imag, a, b, **QUAD_OPTS)[0]
    return complex(re, im)


def weighted_transform(law, weight, z: complex, power: int) -> complex:
    """E[weight(x) (x - z)^{-power}] under a CDF law: the sum over its atoms
    plus one ``quad`` per piece, at x = loc + scale u(theta); ``weight`` is
    called on one float at a time."""
    acc = 0.0 + 0.0j
    for pos, mass in law.atoms():
        acc += mass * complex(weight(pos)) / (pos - z) ** power
    loc, scale = law._dilation()
    if scale == 0:
        return acc
    for piece in law._pieces():
        def f(theta: float, piece=piece) -> complex:
            x = loc + scale * float(piece.u(theta))  # float: NumPy scalars are slow here
            mass = piece.weight * float(piece.density(theta))
            return mass * complex(weight(x)) / (x - z) ** power

        acc += cquad(f, 0.0, 0.5 * math.pi)
    return acc
