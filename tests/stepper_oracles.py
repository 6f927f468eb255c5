"""The dW-form spectrum stepper, kept as an oracle for ``flows.euler_step``.

``dw_euler_step`` is the eigenframe step the package took before the step
matrix was drawn from its variance profile: it builds
A = (g(w) h(w)^T) o dW from a full scaled increment (``flows.sample_noise``)
and takes the eigenvalues of diag(w + dt b(w)) + A + A*. Fed V* dW V it
returns exactly the eigenvalues of ``matrix_euler_step`` fed dW, and its
step matrix has, entry for entry, the Gaussian law of the one
``euler_step`` draws.
"""

import numpy as np

from eigenflow import NoiseIncrement, NumericalError, ValidationError


def dw_step_matrix(w, spec, dw, dt):
    """diag(w + dt b(w)) + A + A* with A = (g(w) h(w)^T) o dw, on the
    trailing axes."""
    a = spec.g(w)[..., :, None] * spec.h(w)[..., None, :] * dw
    m = a + np.swapaxes(a.conj(), -1, -2)
    diag = np.arange(spec.n)
    m[..., diag, diag] += w + dt * spec.b(w)
    return m


def dw_euler_step(w, spec, noise: NoiseIncrement):
    """One dW-form Euler step of ``w`` (shape (n,), or a stack (R, n) with
    ``noise.dw`` of shape (R, n, n)), unprojected like ``euler_step``."""
    if noise.n != spec.n:
        raise ValidationError("noise dimension does not match flow dimension")
    m = dw_step_matrix(w, spec, noise.dw, noise.dt)
    if not np.all(np.isfinite(m)):
        finite = np.isfinite(m).all(axis=(-2, -1))
        raise NumericalError(
            f"flow {spec.name!r} (n={spec.n}): step matrix is not finite",
            replica=int(np.argmin(finite)) if finite.ndim else None,
        )
    return np.linalg.eigvalsh(m)
