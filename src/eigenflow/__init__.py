"""eigenflow: simulation and verification of matrix-valued stochastic flows.

The package simulates Hermitian/symmetric matrix SDEs whose coefficients
act spectrally, extracts eigenvalue empirical measures, and verifies them
against the exactly-known limit laws and moment hierarchies of four
universality classes (semicircle, Marchenko-Pastur including its
non-uniqueness mixtures, geometric, Jacobi), with Cauchy-transform
machinery for the free-probability closed forms.

Each module's ``__all__`` is the one list of its public names; the package
re-exports every one of them.
"""

# Dependency order: starting from `cauchy` raised peak RSS at import by ~1 MB.
from .errors import *
from .linalg import *
from .sympoly import *
from .flows import *
from .limits import *
from .empirical import *
from .cauchy import *
from .config import *
from .presets import *
from . import cauchy, config, empirical, errors, flows, limits, linalg, presets, sympoly

__version__ = "1.0.0"

__all__ = [
    name
    for module in (errors, linalg, sympoly, flows, limits, empirical, cauchy, config, presets)
    for name in module.__all__
]
