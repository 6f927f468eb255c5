"""Limit laws and the moment engine of the universality classes.

Laws with a CDF: the semicircle (flat flows), a one-parameter
Marchenko-Pastur family (square-root flows with constant drift), and the
signed mixtures of time-rescaled Marchenko-Pastur laws that also solve the
Wishart-type limit equation (the non-uniqueness examples): one law,
:class:`MPMixture`, with two factories, :func:`mp_mixture_two` (no atom)
and :func:`mp_mixture_three` (an atom at 0 between the two sides). Every
class whose moment hierarchy closes (deg b <= 1, deg g^2, deg h^2 <= 2),
the geometric and Jacobi classes among them, has a moments-only
:class:`HierarchyLaw`. The free diffusions are one time-indexed family of
semicircles, :class:`FreeDiffusion`.

Every law with a CDF moves in time by dilation: the semicircle by its
radius about its center, the MP law by beta*t, the mixtures by t (and a
:class:`PointMass` is the scale-0 case). So each one only names its
dilation (loc, scale) and its family's unit shape; :class:`_Dilated`
derives the CDF, Phi = int F, the quantiles, bounds and atoms from that one
rule, for one law or for a family's laws at every time of a grid at once
(``at_times``), with each unit shape's mesh, running integral and quantiles
cached once. Every family in time, these laws, :class:`FreeDiffusion` and
:class:`HierarchyLaw`, takes ``at(t)`` and its tables from :class:`_Family`.

One engine computes those moments: exact Taylor steps of the quadratic
hierarchy, each sized from its own expansion (:func:`_taylor_family`),
through the same separable interaction kernel as the empirical residuals.
:func:`generic_moment_ode` (any start moments, on a dt grid) and
:func:`jacobi_moments` read it too; RK4 of the hierarchy is only the tests'
oracle. The laws with a CDF take their moments from exact rational closed
forms instead: ``Semicircle.moments`` (so :class:`FreeDiffusion` too) from
:func:`semicircle_moments`, ``MarchenkoPastur.moments`` and
``MPMixture.moments`` from :func:`mp_moments` (m_k = c_k t^k). So these give
the law rows of ``moments`` and ``compare`` for the ``wigner``,
``wigner_real``, ``wishart``, ``wishart_nonunique``, ``free_bm`` and
``free_ou`` presets. The geometric closed form (:func:`geometric_w` /
:func:`geometric_moments`) is the tests' oracle for the ``geometric``
preset's :class:`HierarchyLaw`.

Normalization note (load-bearing): ``MarchenkoPastur(alpha, t, beta)`` is
defined as the law solving the beta-indexed hierarchy with constant drift
alpha, namely the dilation by beta*t of the standard MP shape with ratio
alpha/beta plus an atom (1 - alpha/beta)_+ at 0.  At beta = 1 this is the
classical density with edges (1 -+ sqrt(alpha))^2 t; at beta = 2 it is the
actual weak limit of the complex Wishart-type matrix flow with drift
alpha*n.  Under this definition the law's moments, :func:`mp_moments`, and
:func:`generic_moment_ode` agree identically for every (alpha, beta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyint, polymul

from .errors import (
    NumericalError,
    TruncationError,
    UnsupportedLawOperation,
    ValidationError,
)
from .linalg import _degree, _horner

__all__ = [
    "FreeDiffusion",
    "HierarchyLaw",
    "MarchenkoPastur",
    "MomentPath",
    "MomentSequence",
    "MPMixture",
    "PointMass",
    "Semicircle",
    "free_bm_law",
    "free_ou_law",
    "free_ou_variance",
    "generic_moment_ode",
    "geometric_moments",
    "geometric_w",
    "jacobi_moments",
    "mp_mixture_three",
    "mp_mixture_two",
    "mp_moments",
    "mp_params",
    "semicircle_moments",
]

_MESH_POINTS = 20001  # fixed CDF mesh size: deterministic quadrature/inversion
_TRAPEZOID_START = 256  # intervals of the first trapezoid sum in theta
_TRAPEZOID_CAP = 2**16  # the most intervals before a weighted transform raises
_TRAPEZOID_TOL = 1e-13  # two successive sums agree to this, relative
_TRAPEZOID_TRUST = 1e-12  # the relative accuracy a returned integral promises
_ROUNDOFF = 16 * np.finfo(float).eps  # attainable accuracy per unit of h sum |f|


# ---------------------------------------------------------------------------
# Moment sequences
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MomentSequence:
    """Moments m_0..m_kmax of a law at a fixed time."""

    values: np.ndarray
    t: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValidationError("MomentSequence needs a 1-d nonempty value array")
        if abs(self.values[0] - 1.0) > 1e-12:
            raise ValidationError("m_0 must equal 1")

    @property
    def k_max(self) -> int:
        return self.values.size - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    def __len__(self) -> int:
        return self.values.size

    def hankel_min_eig(self) -> float:
        """Smallest eigenvalue of the Hankel moment matrix (m_{i+j}): the
        one-row case of :func:`_hankel_min_eigs`."""
        return float(_hankel_min_eigs(self.values))

    def check_hankel(self) -> "MomentSequence":
        """Raise NumericalError unless the Hankel matrix is PSD: the one-row
        case of :func:`_check_hankel`, naming this sequence's t if it has one."""
        _check_hankel(self.values[None], [self.t])
        return self


def _hankel_min_eigs(values: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hankel matrix (m_{i+j}) of each row of a
    (..., k_max + 1) moment stack: one (..., h, h) stack built by index
    arithmetic, one stacked eigvalsh (each matrix its own LAPACK call)."""
    i = np.arange((values.shape[-1] - 1) // 2 + 1)
    return np.linalg.eigvalsh(values[..., i[:, None] + i])[..., 0]


def _check_hankel(values: np.ndarray, times) -> np.ndarray:
    """``values``, a (T, k_max + 1) moment table, unless a row's Hankel matrix
    is not PSD: then NumericalError naming the first such time of ``times``
    (unless it is None). The tolerance is relative to each row's moment
    scale, since moment magnitudes range over orders across the families."""
    min_eig = _hankel_min_eigs(values)
    bad = np.flatnonzero(min_eig < -1e-8 * (1.0 + np.abs(values).max(axis=-1)))
    if bad.size:
        first = bad[0]
        where = "" if times[first] is None else f" at t={times[first]:g}"
        raise NumericalError(
            f"moment sequence{where} is not positive semidefinite"
            f" (min Hankel eig {min_eig[first]:.3e})"
        )
    return values


@dataclass(eq=False)
class MomentPath:
    """Moments m_0..m_kmax on a time grid (rows aligned with t_grid)."""

    t_grid: np.ndarray
    values: np.ndarray  # shape (T, k_max + 1)

    @property
    def k_max(self) -> int:
        return self.values.shape[1] - 1

    def at_time(self, t: float) -> MomentSequence:
        idx = int(np.argmin(np.abs(self.t_grid - t)))
        return MomentSequence(self.values[idx].copy(), t=float(self.t_grid[idx]))

    @property
    def final(self) -> MomentSequence:
        return self.at_time(float(self.t_grid[-1]))


# ---------------------------------------------------------------------------
# Trapezoid integration (CDF meshes, time integrals, the continuous parts
# in theta), transforms, and the dilation rule
# ---------------------------------------------------------------------------

def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over x (along y's last axis), from 0."""
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(x), axis=-1)
    return out


def _invert_mesh(xs: np.ndarray, fs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generalized inverse of a CDF given on a mesh (jumps = repeated x)."""
    fs = np.maximum.accumulate(fs)
    idx = np.searchsorted(fs, np.clip(u, 0.0, fs[-1]), side="left")
    idx = np.clip(idx, 0, xs.size - 1)
    return xs[idx]


def _midpoints(count: int) -> np.ndarray:
    """Quantile levels (i - 1/2)/count, i = 1..count."""
    return (np.arange(count) + 0.5) / count


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _unit_integral(unit_mesh, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, fs, running trapezoid of fs) of the unit shape ``unit_mesh(key)``,
    padded with F = 0 before the mesh and F = 1 after it, as ``cdf`` pads it.
    The arrays are read-only."""
    xs, fs = unit_mesh(key)
    xs = np.concatenate((xs[:1], xs, xs[-1:]))
    fs = np.concatenate(([0.0], fs, [1.0]))
    return _read_only(xs, fs, _cumtrapz(fs, xs))


@functools.lru_cache(maxsize=16)
def _unit_quantiles(unit_mesh, key, count: int) -> np.ndarray:
    """Midpoint quantiles of the unit shape ``unit_mesh(key)``. Read-only."""
    return _read_only(_invert_mesh(*unit_mesh(key), _midpoints(count)))[0]


def _check_time(t) -> None:
    """Raise ValidationError unless t (a time or an array) is finite and >= 0."""
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0)):
        raise ValidationError("t must be finite and >= 0")


class _Piece(NamedTuple):
    """Part of a unit shape's continuous part: mass ``weight * density(theta)
    dtheta`` at u = e0 + (e1 - e0) sin^2(theta), theta in [0, pi/2], from the
    edge e0 where the density may be singular (theta: a float or an array)."""

    e0: float
    e1: float
    density: Callable
    weight: float = 1.0

    def u(self, theta):
        return self.e0 + (self.e1 - self.e0) * np.sin(theta) ** 2


def _theta_trapezoid(f: Callable[[np.ndarray], np.ndarray], what: str) -> complex:
    """int_0^{pi/2} f(theta) dtheta for an f that is even and pi-periodic, so
    that the trapezoid rule is the periodic one and converges geometrically.
    From 256 intervals it doubles, T_2n = (T_n + M_n)/2 with M_n the midpoint
    sum, so each doubling calls ``f`` once, on the new nodes only.

    It returns the first sum T within ``_TRAPEZOID_TOL`` (relative) of the
    one before it, or within the attainable accuracy, the roundoff floor
    ``_ROUNDOFF`` h sum |f| on the same nodes, when that floor is at most
    ``_TRAPEZOID_TRUST`` |T|. It raises NumericalError naming ``what`` and
    the condition number h sum |f| / |T| when two sums meet only within a
    floor above that, or when past 2^16 intervals they still differ by more
    than the floor."""
    n, half_pi = _TRAPEZOID_START, 0.5 * math.pi
    ends = f(np.linspace(0.0, half_pi, n + 1))
    total = half_pi / n * (np.sum(ends) - 0.5 * (ends[0] + ends[-1]))
    scale = half_pi / n * (np.sum(np.abs(ends)) - 0.5 * (abs(ends[0]) + abs(ends[-1])))
    while n < _TRAPEZOID_CAP:
        mids = f(half_pi * _midpoints(n))
        refined = 0.5 * (total + half_pi / n * np.sum(mids))
        scale = 0.5 * (scale + half_pi / n * np.sum(np.abs(mids)))
        step, floor = abs(refined - total), _ROUNDOFF * scale
        if step <= _TRAPEZOID_TOL * abs(refined) or step <= floor <= _TRAPEZOID_TRUST * abs(refined):
            return complex(refined)
        if step <= floor:
            break
        total, n = refined, 2 * n
    condition = float(scale) / abs(refined) if refined else math.inf
    problem = (
        f"did not converge in {_TRAPEZOID_CAP} trapezoid intervals" if n == _TRAPEZOID_CAP
        else f"has roundoff above {_TRAPEZOID_TRUST:g} of its value"
    )
    raise NumericalError(f"{what} {problem} (condition number h sum|f| / |T| = {condition:.3g})")


def _quadratic_root(a, b, z):
    """The root with Im r > 0 of a r^2 + b r + 1 = 0 (b complex), elementwise
    over the broadcast of a, b and z (scalars give a scalar); -1/b where a = 0."""
    a, b, z = np.broadcast_arrays(a, b, z)
    flat = a == 0
    disc = np.sqrt(b * b - 4.0 * a)
    two_a = np.where(flat, 1.0, 2.0 * a)
    r1, r2 = (-b + disc) / two_a, (-b - disc) / two_a
    # Degenerate boundary (not reachable for Im z > 0): nearest to -1/z.
    target = -1.0 / z
    nearest = np.where(abs(r1 - target) <= abs(r2 - target), r1, r2)
    root = np.where(r1.imag > 0, r1, np.where(r2.imag > 0, r2, nearest))
    return np.where(flat, -1.0 / b, root)[()]


class _Dilated(NamedTuple):
    """Laws of one family at many dilations at once: the unit shape of
    ``shape`` (its ``_unit_*`` functions, ``_unit_atom``, the mass of its one
    atom, at u = 0, and ``_extent(loc, scale)``, the support's ends) moved to
    ``loc`` and stretched by ``scale``; the point mass at loc where scale is
    0. loc and scale are 0-d for one law (any x), or a table's shape with a
    trailing axis of length 1, against which x broadcasts. Every answer is
    the one law's formula elementwise, so an entry has that law's bits."""

    shape: object
    loc: np.ndarray
    scale: np.ndarray

    def _blend(self, at_point, unit: Callable, none=0.0) -> np.ndarray:
        """``at_point`` where scale is 0, else ``unit()`` (``none`` when every
        law is a point mass, so a family with no unit shape needs none)."""
        point = self.scale == 0
        return np.where(point, at_point, none if point.all() else unit())

    def _unit_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.loc) / np.where(self.scale == 0, 1.0, self.scale)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """F(x) = F_U((x - loc)/scale); the unit step at loc for a point mass."""
        return self._blend(x >= self.loc, lambda: self.shape._unit_cdf(self._unit_x(x)))

    def integrated_cdf(self, x: np.ndarray) -> np.ndarray:
        """Phi(x) = int_{-inf}^x F = scale Phi_U((x - loc)/scale); (x - loc)_+
        for a point mass."""
        return self._blend(
            np.maximum(x - self.loc, 0.0),
            lambda: self.scale * self.shape._unit_integrated_cdf(self._unit_x(x)),
        )

    def place(self, count: int, unit: Callable) -> np.ndarray:
        """loc + scale * unit(), for ``count`` unit points; ``count`` copies
        of loc for a point mass."""
        return self._blend(self.loc, lambda: self.loc + self.scale * unit(), np.zeros(count))

    def quantile_atoms(self, count: int) -> np.ndarray:
        """Midpoint-quantile discretization: atoms at F^{-1}((i-1/2)/count)."""
        shape = self.shape
        return self.place(count, lambda: _unit_quantiles(shape._unit_mesh, shape._shape_key, count))

    def level_quantiles(self, count: int) -> np.ndarray:
        """Quantiles at the levels i/count, i = 1..count-1: a split point of
        each empirical level's piece in :func:`eigenflow.empirical.wasserstein1`."""
        return self.place(count - 1, lambda: self.shape._unit_levels(count))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.shape._extent(self.loc, self.scale)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(loc, mass) of each law's atom: 1 for a point mass, else the unit
        shape's (0 when it has none)."""
        return self.loc, np.where(self.scale == 0, 1.0, self.shape._unit_atom)


class _Family:
    """What every law family answers over time: ``at(t)``, a
    ``dataclasses.replace`` of t that re-runs the law's own checks;
    ``has_cdf``; its laws at every time of a grid as one table
    (:meth:`at_times`, from ``_dilation(times)`` and the unit shape, see
    :class:`_LawBase`); and its moment table."""

    has_cdf = True
    _shape_key = None

    @property
    def _shape(self):
        """What answers for the unit shape (:class:`_Dilated`): the family."""
        return self

    def at(self, t: float):
        return replace(self, t=float(t))

    def at_times(self, times) -> _Dilated:
        """The laws ``at(t_i)`` as one (T, 1) :class:`_Dilated` table, no law
        built per time: its CDF, Phi, quantiles, bounds and atoms answer for
        every time at once, each row with ``at(t_i)``'s own bits."""
        times = np.asarray(times, dtype=float)
        _check_time(times)
        loc, scale = (np.broadcast_to(v, times.shape)[..., None] for v in self._dilation(times))
        return _Dilated(self._shape, loc, scale)

    def moment_table(self, times, k_max: int) -> np.ndarray:
        """(T, k_max + 1) moments of ``at(t)`` at each of the times: the
        per-time closed forms, stacked."""
        return np.stack([self.at(t).moments(k_max).values for t in times])


class _LawBase(_Family):
    """Shared behavior of the laws with a CDF: each one is a dilation.

    A subclass supplies ``_dilation(t=None) -> (loc, scale)`` and
    ``_extent(loc, scale) -> (lo, hi)``, and, if its unit shape has an atom
    (always at u = 0, so at loc), its mass ``_unit_atom``. The law is its
    family's unit shape U moved to ``loc`` and stretched by ``scale``; scale
    0 means the point mass at loc. Given an array of times t, ``_dilation``
    answers for the family's law at each (``at(t_i)``) by the same formula,
    elementwise, with no law built, and so does :meth:`_Family.at_times`.
    The unit shape is the CDF mesh ``_unit_mesh(_shape_key) -> (xs, fs)``,
    with fs the full CDF (atoms as jumps at repeated x), cached per family
    and read-only. Everything else follows from the one dilation rule of
    :class:`_Dilated`

        F(x) = F_U((x - loc)/scale),   Phi(x) = scale Phi_U((x - loc)/scale),
        Q(u) = loc + scale Q_U(u),

    where Phi = int_{-inf}^x F; one law is its 0-d case. Per unit shape, its
    running integral (:func:`_unit_integral`) and its midpoint quantiles
    (:func:`_unit_quantiles`) are cached too, so every time of one family
    shares them. A family with closed forms overrides ``_unit_cdf``,
    ``_unit_integrated_cdf`` or ``_unit_levels``.

    A family states its continuous part once, as the pieces ``_pieces()``
    (:class:`_Piece`) that :meth:`weighted_transform` integrates by one
    numpy rule, the trapezoid in theta, which converges or raises; and it
    answers its own Cauchy transform, ``transform(z)``, for a scalar or an
    array of z (elementwise).
    """

    _unit_atom = 0.0

    @property
    def has_density(self) -> bool:  # not when all atoms, up to their summed weights' rounding
        return self.continuous_mass() > 1e-12

    def _dilated(self) -> _Dilated:
        """This one law as a 0-d :class:`_Dilated`."""
        return _Dilated(self, *map(np.asarray, self._dilation()))

    def _unit_cdf(self, u: np.ndarray) -> np.ndarray:
        xs, fs = self._unit_mesh(self._shape_key)
        return np.interp(u, xs, fs, left=0.0, right=1.0)

    def _unit_integrated_cdf(self, u: np.ndarray) -> np.ndarray:
        """Phi_U, exactly for the mesh CDF that ``_unit_cdf`` interpolates:
        the running trapezoid of the mesh up to the last mesh point at or
        below u, plus the trapezoid of the linear piece after it."""
        xs, fs, running = _unit_integral(self._unit_mesh, self._shape_key)
        j = np.maximum(np.searchsorted(xs, u, side="right") - 1, 0)
        du = np.maximum(u - xs[j], 0.0)
        return running[j] + 0.5 * du * (fs[j] + np.interp(u, xs, fs))

    def _unit_levels(self, count: int) -> np.ndarray:
        """Unit quantiles at the levels i/count by interpolation: a level on a
        flat stretch of the CDF may land anywhere on it, and every such point
        splits exactly."""
        xs, fs = self._unit_mesh(self._shape_key)
        return np.interp(np.arange(1, count) / count, fs, xs)

    def cdf(self, x) -> np.ndarray:
        out = self._dilated().cdf(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def integrated_cdf(self, x) -> np.ndarray:
        """Phi(x) = int_{-inf}^x F; (x - loc)_+ for the point mass."""
        return self._dilated().integrated_cdf(np.asarray(x, dtype=float))

    def quantile_atoms(self, count: int) -> np.ndarray:
        return self._dilated().quantile_atoms(count)

    def level_quantiles(self, count: int) -> np.ndarray:
        return self._dilated().level_quantiles(count)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(size=count)
        return self._dilated().place(
            count, lambda: _invert_mesh(*self._unit_mesh(self._shape_key), u)
        )

    def bounds(self) -> tuple[float, float]:
        lo, hi = self._dilated().bounds()
        return float(lo), float(hi)

    def atoms(self) -> list[tuple[float, float]]:
        pos, mass = self._dilated().atoms()
        return [(float(pos), float(mass))] if mass > 0 else []

    def continuous_mass(self) -> float:
        return 1.0 - sum(m for _, m in self.atoms())

    def weighted_transform(self, weight, z: complex, power: int) -> complex:
        """E[weight(x) (x - z)^{-power}] at one z: the sum over the atoms plus,
        per piece at x = loc + scale u(theta), the trapezoid rule in theta
        (:func:`_theta_trapezoid`); ``weight`` takes an array of x. A law at
        scale 0 has no pieces. A piece whose sums do not converge raises
        NumericalError naming the law and z."""
        pos, mass = np.array(self.atoms(), dtype=float).reshape(-1, 2).T
        acc = complex(np.sum(mass * weight(pos) / (pos - z) ** power))
        loc, scale = self._dilation()
        if scale == 0:
            return acc
        for piece in self._pieces():
            def f(theta: np.ndarray, piece: _Piece = piece) -> np.ndarray:
                x = loc + scale * piece.u(theta)
                return piece.weight * piece.density(theta) * weight(x) / (x - z) ** power

            acc += _theta_trapezoid(f, f"weighted transform of {self!r} at z={complex(z)}")
        return acc


# ---------------------------------------------------------------------------
# Semicircle
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Semicircle(_LawBase):
    """Semicircle law of a flat flow: variance beta*t/2, center optional.

    ``Semicircle(t, beta)`` is the time-t law of the flat flow with
    2 g h = 1 at Dyson index beta (beta=2: variance t; beta=1: the beta=2
    law at time t/2). ``from_radius``/``from_variance`` build the same
    family parameterized directly. The law is the radius-1 semicircle
    dilated by its radius about its center; the unit CDF, Phi and level
    quantiles have closed forms.
    """

    t: float
    beta: int = 2
    center: float = 0.0

    def __post_init__(self):
        _check_time(self.t)
        if not math.isfinite(self.center):
            raise ValidationError("center must be finite")
        if self.beta not in (1, 2):
            raise ValidationError("beta must be 1 or 2")

    @staticmethod
    def from_variance(v: float, center: float = 0.0) -> "Semicircle":
        return Semicircle(t=float(v), beta=2, center=center)

    @staticmethod
    def from_radius(radius: float, center: float = 0.0) -> "Semicircle":
        return Semicircle(t=float(radius) ** 2 / 4.0, beta=2, center=center)

    @property
    def variance(self) -> float:
        return self.beta * self.t / 2.0

    @property
    def radius(self) -> float:
        return float(self._dilation()[1])

    @property
    def is_degenerate(self) -> bool:
        return self.variance == 0.0

    def density(self, x) -> np.ndarray:
        if self.is_degenerate:
            raise UnsupportedLawOperation("degenerate semicircle has no density")
        x = np.asarray(x, dtype=float) - self.center
        r = self.radius
        inside = np.clip(r * r - x * x, 0.0, None)
        return 2.0 * np.sqrt(inside) / (math.pi * r * r)

    def _dilation(self, t=None) -> tuple:
        """(center, radius), the radius 2 sqrt(beta t / 2)."""
        return self.center, 2.0 * np.sqrt(self.beta * (self.t if t is None else t) / 2.0)

    @staticmethod
    def _extent(loc, scale) -> tuple:
        """The support [center - radius, center + radius]."""
        return loc - scale, loc + scale

    @staticmethod
    def _pieces() -> tuple[_Piece, ...]:
        """u = -cos(2 theta) on [-1, 1], dF/dtheta = (4/pi) sin^2(2 theta)."""
        return (_Piece(-1.0, 1.0, lambda theta: (4.0 / math.pi) * np.sin(2.0 * theta) ** 2),)

    def transform(self, z):
        """G(z): the Herglotz root of v r^2 + (z - c) r + 1 = 0."""
        return _quadratic_root(self.variance, z - self.center, z)

    @staticmethod
    def _unit_cdf(u: np.ndarray) -> np.ndarray:
        u = np.clip(u, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi

    @staticmethod
    def _unit_integrated_cdf(u: np.ndarray) -> np.ndarray:
        """With v = u clipped to [-1, 1]:
        v/2 + (v asin v + sqrt(1-v^2) - (1-v^2)^{3/2}/3)/pi + (u - 1)_+."""
        v = np.clip(u, -1.0, 1.0)
        s = np.sqrt(1.0 - v * v)
        return 0.5 * v + (v * np.arcsin(v) + s - s**3 / 3.0) / math.pi + np.maximum(u - 1.0, 0.0)

    @staticmethod
    @functools.lru_cache(maxsize=16)
    def _unit_levels(count: int) -> np.ndarray:
        """Unit quantiles at the levels i/count, i = 1..count-1, by bisection
        on the closed-form CDF, halving the bracket [-1, 1] down to rounding.
        The array is read-only."""
        levels = np.arange(1, count) / count
        lo, hi = -np.ones_like(levels), np.ones_like(levels)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = Semicircle._unit_cdf(mid) < levels
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return _read_only(hi)[0]

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def _unit_mesh(_key=None) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(-1.0, 1.0, _MESH_POINTS)
        return _read_only(xs, Semicircle._unit_cdf(xs))

    def moments(self, k_max: int) -> MomentSequence:
        return semicircle_moments(self.t, self.beta, k_max, center=self.center)


def semicircle_moments(
    t: float, beta: int, k_max: int, center: float = 0.0
) -> MomentSequence:
    """Semicircle moments: m_{2j} = Catalan_j (beta t / 2)^j, odd ones 0.

    The beta=1 law equals the beta=2 law at time t/2 (the exact map used
    here is variance = beta*t/2). A nonzero center shifts by binomial
    convolution.
    """
    if not (0 <= t < math.inf and math.isfinite(center)):
        raise ValidationError("t must be finite and >= 0, center finite")
    centered = [Fraction(0)] * (k_max + 1)
    for j in range(k_max // 2 + 1):
        catalan = Fraction(math.comb(2 * j, j), j + 1)
        centered[2 * j] = catalan * Fraction(beta, 2) ** j * Fraction(t) ** j
    c = Fraction(center)
    shifted = [
        sum(math.comb(k, j) * c ** (k - j) * centered[j] for j in range(k + 1))
        for k in range(k_max + 1)
    ]
    values = np.array([float(v) for v in shifted])
    return MomentSequence(values, t=float(t)).check_hankel()


def free_ou_variance(theta: float, sigma: float, t):
    """sigma^2 (e^{2 theta t} - 1) / (2 theta); theta -> 0 limit sigma^2 t.

    Valid for both signs of theta (for theta < 0 it equals
    sigma^2 (1 - e^{-2|theta| t}) / (2|theta|), stationary value
    sigma^2/(2|theta|)). ``t`` is a time (returns a float) or an array of
    times, checked once and evaluated elementwise, each with the bits of
    its scalar call: e^x - 1 is ``math.expm1`` per time, since ``np.expm1``
    rounds differently on some inputs.
    """
    if not (math.isfinite(theta) and math.isfinite(sigma)):
        raise ValidationError("theta and sigma must be finite")
    _check_time(t)
    times = np.asarray(t, dtype=float)
    if theta == 0.0:
        out = sigma**2 * times
    else:
        x = 2.0 * theta * times
        out = sigma**2 * np.array([math.expm1(v) for v in x.ravel().tolist()]).reshape(x.shape)
        out = out / (2.0 * theta)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FreeDiffusion(_Family):
    """Marginals in time of free Brownian motion (``kind="free_bm"``, drift
    theta) or of the free Ornstein-Uhlenbeck process (``"free_ou"``, drift
    theta x) with scale sigma, from 0: ``at(t)`` is the semicircle that
    ``_placement(t)`` places; its tables are :class:`_Family`'s."""

    kind: str
    theta: float
    sigma: float

    def __post_init__(self):
        if self.kind not in ("free_bm", "free_ou"):
            raise ValidationError("free diffusion kind must be 'free_bm' or 'free_ou'")

    _shape = Semicircle  # every marginal is a semicircle: its unit shape answers

    def _placement(self, t) -> tuple:
        """(center, variance) at t, a time or an array of times: (theta t,
        sigma^2 t) for free BM, (0, :func:`free_ou_variance`) for free OU."""
        if self.kind == "free_bm":
            return self.theta * t, self.sigma**2 * t
        return 0.0, free_ou_variance(self.theta, self.sigma, t)

    def at(self, t: float) -> Semicircle:
        center, variance = self._placement(t)
        return Semicircle.from_variance(variance, center=center)

    def _dilation(self, t: np.ndarray) -> tuple:
        """(loc, scale) of ``at(t_i)`` for each time of the array t: the
        center and the radius 2 sqrt(variance)."""
        center, variance = self._placement(t)
        return center, 2.0 * np.sqrt(variance)


def free_bm_law(theta: float, sigma: float, t: float) -> Semicircle:
    """Free-BM marginal: semicircle with variance sigma^2 t centered at theta t."""
    return FreeDiffusion("free_bm", theta, sigma).at(t)


def free_ou_law(theta: float, sigma: float, t: float) -> Semicircle:
    """Free-OU marginal: centered semicircle with variance :func:`free_ou_variance`."""
    return FreeDiffusion("free_ou", theta, sigma).at(t)


# ---------------------------------------------------------------------------
# Marchenko-Pastur family
# ---------------------------------------------------------------------------

def mp_params(alpha: float) -> tuple[float, float]:
    """Edge pair ((1 - sqrt(alpha))^2, (1 + sqrt(alpha))^2)."""
    if not 0 <= alpha < math.inf:
        raise ValidationError("alpha must be finite and >= 0")
    s = math.sqrt(alpha)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def _mp_piece(ratio: float, s: float = 1.0) -> _Piece:
    """The continuous part (mass min(1, ratio)) of the unit MP shape, from the
    inner edge a: dF/dtheta = (b - a)^2 sin^2(2 theta) / (4 pi u), smooth even
    at a = 0 (density ~ x^{-1/2}), where it reduces to (b/pi) cos^2(theta).
    A mixture side moves it to s u, with weight |s|."""
    a, b = mp_params(ratio)
    if a == 0.0:
        def density(theta):
            return (b / math.pi) * np.cos(theta) ** 2
    else:
        def density(theta):
            u = a + (b - a) * np.sin(theta) ** 2
            return (b - a) ** 2 * np.sin(2.0 * theta) ** 2 / (4.0 * math.pi * u)
    return _Piece(s * a, s * b, density, abs(s))


@dataclass(eq=False)
class MarchenkoPastur(_LawBase):
    """Marchenko-Pastur limit law of the square-root flow with drift alpha.

    Defined as the dilation by beta*t of the standard MP shape with ratio
    alpha/beta, plus an atom of mass (1 - alpha/beta)_+ at zero:

        support edges  beta*t*(1 -+ sqrt(alpha/beta))^2,
        density        sqrt((x - a)(b - x)) / (2 pi x beta t).

    This is the unique scaling under which the law's moments satisfy the
    beta-indexed moment recursion (see :func:`mp_moments`) — at beta=1 it
    reduces to the classical edges (1 -+ sqrt(alpha))^2 t.
    """

    alpha: float
    t: float = 1.0
    beta: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError("alpha must be finite and >= 0")
        _check_time(self.t)
        if self.beta not in (1, 2):
            raise ValidationError("beta must be 1 or 2")

    @property
    def ratio(self) -> float:
        return self.alpha / self.beta

    @property
    def scale(self) -> float:
        return self.beta * self.t

    @property
    def atom_mass(self) -> float:
        return max(0.0, 1.0 - self.ratio)

    @property
    def edges(self) -> tuple[float, float]:
        a, b = mp_params(self.ratio)
        return a * self.scale, b * self.scale

    @property
    def is_degenerate(self) -> bool:
        return self.scale == 0.0 or self.alpha == 0.0

    _unit_atom = atom_mass

    def density(self, x) -> np.ndarray:
        if self.is_degenerate:
            raise UnsupportedLawOperation("degenerate MP law has no density")
        x = np.asarray(x, dtype=float)
        a, b = self.edges
        out = np.zeros_like(x)
        inside = (x > a) & (x < b) & (x != 0.0)
        xi = x[inside]
        out[inside] = np.sqrt((xi - a) * (b - xi)) / (2.0 * math.pi * xi * self.scale)
        return out

    def _dilation(self, t=None) -> tuple:
        """(0, beta t), or scale 0 for alpha = 0: the point mass at 0."""
        return 0.0, 0.0 if self.alpha == 0 else self.beta * (self.t if t is None else t)

    def _extent(self, loc, scale) -> tuple:
        """[min(0, a scale), b scale] for the unit edges (a, b) (loc is 0)."""
        a, b = mp_params(self.ratio)
        return np.minimum(0.0, a * scale), b * scale

    @property
    def _shape_key(self) -> float:
        return self.ratio

    def _pieces(self) -> tuple[_Piece, ...]:
        return (_mp_piece(self.ratio),)

    def transform(self, z):
        """G(z), atom included: the root of z s r^2 + (z + s (1 - c)) r + 1."""
        if self.is_degenerate:
            return -1.0 / z
        s = self.scale
        return _quadratic_root(z * s, z + s * (1.0 - self.ratio), z)

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def _unit_mesh(ratio: float) -> tuple[np.ndarray, np.ndarray]:
        """CDF mesh of the unit-scale MP shape with ``ratio``, atom included:
        the running trapezoid of its piece."""
        piece = _mp_piece(ratio)
        theta = np.linspace(0.0, 0.5 * math.pi, _MESH_POINTS)
        xs = piece.u(theta)
        fs = _cumtrapz(piece.density(theta), theta)
        atom = max(0.0, 1.0 - ratio)
        if atom > 0.0:
            xs = np.concatenate(([0.0, 0.0], xs))
            fs = np.concatenate(([0.0, atom], atom + fs))
        return _read_only(xs, fs)

    def moments(self, k_max: int) -> MomentSequence:
        return mp_moments(self.alpha, self.beta, self.t, k_max)


@functools.lru_cache(maxsize=32)
def _mp_coefficients(alpha: float, beta: float, k_max: int) -> tuple[Fraction, ...]:
    """The exact c_0..c_kmax of :func:`mp_moments`' m_k = c_k t^k, built
    once per (alpha, beta, k_max); a tuple, so no caller can change it."""
    af = Fraction(alpha)
    bf = Fraction(beta)
    c = [Fraction(1)]
    for k in range(1, k_max + 1):
        pairs = sum((c[i + 1] * c[k - 2 - i] for i in range(k - 1)), Fraction(0))
        c.append(af * c[k - 1] + bf * pairs)
    return tuple(c)


def mp_moments(alpha: float, beta: float, t: float, k_max: int) -> MomentSequence:
    """Exact Marchenko-Pastur moment recursion, polynomial in t.

        m_k(t) = alpha k int_0^t m_{k-1}
                 + beta k sum_{i=0}^{k-2} int_0^t m_{i+1} m_{k-2-i}.

    Every term has degree k in t, so m_k(t) = c_k t^k with rational

        c_0 = 1,  c_k = alpha c_{k-1} + beta sum_{i=0}^{k-2} c_{i+1} c_{k-2-i},

    the Narayana polynomial sum_j N(k, j) alpha^j beta^{k-j} (cached per
    (alpha, beta, k_max) and evaluated at t). These are the moments that
    :meth:`MarchenkoPastur.moments` and :meth:`MPMixture.moments` return.
    """
    if not (0 <= alpha < math.inf and math.isfinite(beta)):
        raise ValidationError("alpha must be finite and >= 0, beta finite")
    _check_time(t)
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    coefficients = _mp_coefficients(alpha, beta, k_max)
    tf = Fraction(t)
    values = np.array([float(c * tf**k) for k, c in enumerate(coefficients)])
    return MomentSequence(values, t=float(t)).check_hankel()


# ---------------------------------------------------------------------------
# Point mass and the non-uniqueness mixtures
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PointMass(_LawBase):
    a: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValidationError("a must be finite")

    def at(self, t: float) -> "PointMass":
        _check_time(t)
        return self

    def density(self, x):
        raise UnsupportedLawOperation("point mass has no density")

    def _dilation(self, t=None) -> tuple[float, float]:
        return self.a, 0.0

    @staticmethod
    def _extent(loc, scale) -> tuple:
        return loc, loc

    def transform(self, z):
        return 1.0 / (self.a - z)

    def moments(self, k_max: int) -> MomentSequence:
        return MomentSequence(np.array([self.a**k for k in range(k_max + 1)], dtype=float))


@dataclass(eq=False)
class MPMixture(_LawBase):
    """Signed Marchenko-Pastur law on the whole line (beta=1 normalization):

        mu_t = lam * MP(alpha_plus) at time lam*t  +  gamma * delta_0
               + lam_star * reflected MP(alpha_minus) at time lam_star*t,

    where the reflection is about the origin. It solves the limit equation
    with kernel G(x,y) = |x| + |y| and constant drift ``alpha`` (the
    non-uniqueness examples). Build it with :func:`mp_mixture_two` or
    :func:`mp_mixture_three`, which compute the weights; the class rejects
    a negative or non-finite parameter and weights that do not sum to 1.
    Both components dilate with t, so the law at time t is the time-1 law
    (its unit shape) dilated by t.
    """

    alpha: float
    alpha_plus: float
    alpha_minus: float
    lam: float
    lam_star: float
    gamma: float
    t: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "alpha_plus", "alpha_minus", "lam", "lam_star", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0")
        if abs(self.lam + self.lam_star + self.gamma - 1.0) > 1e-12:
            raise ValidationError("lam + lam_star + gamma must equal 1")
        _check_time(self.t)

    @property
    def induced_alpha(self) -> float:
        """The constant drift of the limit equation the mixture solves."""
        return self.alpha

    def components(self) -> tuple[MarchenkoPastur, MarchenkoPastur]:
        """The positive component and the negative one before reflection."""
        return (
            MarchenkoPastur(self.alpha_plus, self.lam * self.t, beta=1),
            MarchenkoPastur(self.alpha_minus, self.lam_star * self.t, beta=1),
        )

    def _sides(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(alpha, weight) of the positive side and of the reflected one."""
        return (self.alpha_plus, self.lam), (self.alpha_minus, self.lam_star)

    @property
    def _unit_atom(self) -> float:
        """Mass at 0 for t > 0: gamma plus the weight of each side that is all
        at 0 (alpha or weight 0); exactly 1 when both are (the three weights
        need not sum to 1 in floats)."""
        gone = [weight for alpha, weight in self._sides() if alpha == 0 or weight == 0]
        return 1.0 if len(gone) == 2 else sum(gone, self.gamma)

    def _extent(self, loc, scale) -> tuple:
        """Each side's outer edge, b(alpha) weight scale (0 for alpha = 0):
        the upper edge of its MP component at time weight * t."""
        pos, neg = (
            (0.0 if alpha == 0 else mp_params(alpha)[1]) * (weight * scale)
            for alpha, weight in self._sides()
        )
        return -neg, pos

    def density(self, x) -> np.ndarray:
        pos, neg = self.components()
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if not pos.is_degenerate:
            out += self.lam * pos.density(x)
        if not neg.is_degenerate:
            out += self.lam_star * neg.density(-x)
        return out

    def negative_mass(self) -> float:
        """Mass of (-inf, 0)."""
        return 0.0 if self.components()[1].is_degenerate else self.lam_star

    def _dilation(self, t=None) -> tuple:
        return 0.0, self.t if t is None else t

    def _pieces(self) -> tuple[_Piece, ...]:
        """Both sides' MP pieces at time 1, scaled by lam and -lam_star and
        weighted by lam and lam_star (a degenerate side integrates to 0)."""
        return _mp_piece(self.alpha_plus, self.lam), _mp_piece(self.alpha_minus, -self.lam_star)

    def transform(self, z):
        """G(z); the reflected side by int (-x - z)^{-1} nu(dx) = -conj(G_nu(-conj z))."""
        pos, neg = self.components()
        reflected = np.conj(neg.transform(-np.conj(z)))
        return -self.gamma / z + self.lam * pos.transform(z) - self.lam_star * reflected

    @property
    def _shape_key(self) -> tuple:
        """The parameters of the time-1 law: everything but t and alpha."""
        return (self.alpha_plus, self.alpha_minus, self.lam, self.lam_star, self.gamma)

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def _unit_mesh(key: tuple) -> tuple[np.ndarray, np.ndarray]:
        """CDF mesh of the time-1 mixture: the components' unit MP meshes
        dilated by lam and lam_star (at t = 1 neither is degenerate)."""
        alpha_plus, alpha_minus, lam, lam_star, gamma = key
        neg_xs, neg_fs = MarchenkoPastur._unit_mesh(alpha_minus)
        pos_xs, pos_fs = MarchenkoPastur._unit_mesh(alpha_plus)
        atom_x, atom_f = ([0.0, 0.0], [lam_star, lam_star + gamma]) if gamma > 0 else ([], [])
        xs = np.concatenate([-lam_star * neg_xs[::-1], atom_x, lam * pos_xs])
        fs = np.concatenate(
            [lam_star * (1.0 - neg_fs[::-1]), atom_f, lam_star + gamma + lam * pos_fs]
        )
        return _read_only(xs, np.maximum.accumulate(fs))

    def moments(self, k_max: int) -> MomentSequence:
        pos, neg = self.components()
        ks = np.arange(k_max + 1)
        vals = (
            self.lam * pos.moments(k_max).values
            + self.lam_star * (-1.0) ** ks * neg.moments(k_max).values
        )
        vals[0] = 1.0  # the atom restores full mass at k = 0
        return MomentSequence(vals, t=None)


def mp_mixture_two(alpha: float, t: float = 1.0) -> MPMixture:
    """Two-component mixture for drift alpha in [0, 1), with no atom:

        mu_t = lam * MP(1) at time lam*t  +  lam_star * reflected MP(1) at
        time lam_star*t,   lam = (1+alpha)/2, lam_star = (1-alpha)/2.

    Solves the same limit equation as the ordinary MP law with drift
    alpha — uniqueness fails.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("mixture-two requires 0 <= alpha < 1")
    return MPMixture(alpha, 1.0, 1.0, (1.0 + alpha) / 2.0, (1.0 - alpha) / 2.0, 0.0, t)


def mp_mixture_three(alpha_plus: float, alpha_minus: float, t: float = 1.0) -> MPMixture:
    """Three-component mixture (positive, atom, reflected) for the
    supercritical parameterization alpha_minus >= alpha_plus > 1:

        lam = (alpha_minus - 1) / (alpha_plus alpha_minus - 1),
        lam_star = (alpha_plus - 1) / (alpha_plus alpha_minus - 1),
        gamma = (alpha_plus - 1)(alpha_minus - 1) / (alpha_plus alpha_minus - 1),

    so lam + lam_star + gamma = 1. Both component ratios exceed one, so
    neither side carries an atom of its own and both supports stay away
    from zero; the delta_0 atom sits isolated between them. The induced
    constant drift is (alpha_minus - alpha_plus) / (alpha_plus alpha_minus - 1).
    """
    if not (alpha_minus >= alpha_plus > 1.0):
        raise ValidationError("mixture-three requires alpha_minus >= alpha_plus > 1")
    if not math.isfinite(alpha_minus):
        raise ValidationError("alpha_minus must be finite")
    denom = alpha_plus * alpha_minus - 1.0
    return MPMixture(
        (alpha_minus - alpha_plus) / denom,
        alpha_plus,
        alpha_minus,
        (alpha_minus - 1.0) / denom,
        (alpha_plus - 1.0) / denom,
        (alpha_plus - 1.0) * (alpha_minus - 1.0) / denom,
        t,
    )


# ---------------------------------------------------------------------------
# Geometric class: closed form (oracle)
# ---------------------------------------------------------------------------

def geometric_w(k_max: int) -> list[list[Fraction]]:
    """The exact polynomials w_1..w_kmax of the geometric moment closed form.

        w_k'(x) = k sum_{i=0}^{k-2} w_{i+1}(x) w_{k-1-i}(x),  w_k(0) = 1,

    integrated with numpy.polynomial on object arrays of Fractions, so
    exactly. w_1 = 1, w_2 = 1+2x, w_3 = 1+6x+6x^2, ...
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    ws = [np.array([Fraction(1)], dtype=object)]
    for k in range(2, k_max + 1):
        deriv = sum(polymul(ws[i], ws[k - 2 - i]) for i in range(k - 1))
        ws.append(polyint(k * deriv, k=1))
    return [list(w) for w in ws]


def geometric_moments(a: float, alpha: float, beta: float, t: float, k_max: int) -> MomentSequence:
    """Closed-form geometric moments m_k(t) = a^k w_k(t beta) e^{k alpha t}.

    Also validates the growth bound w_k(x) <= k! 9^{k-1} (1+x)^{k-1} at
    x = t*beta for each computed k.
    """
    if not (0 < a < math.inf and 0 <= t < math.inf and all(map(math.isfinite, (alpha, beta)))):
        raise ValidationError("a must be finite and > 0, t finite and >= 0, alpha and beta finite")
    values = [1.0]
    if k_max >= 1:
        ws = geometric_w(k_max)
        x = Fraction(beta) * Fraction(t)
        for k in range(1, k_max + 1):
            wk = float(_horner(x, ws[k - 1]))
            if not wk <= math.factorial(k) * 9.0 ** (k - 1) * (1.0 + float(x)) ** (k - 1) + 1e-9:
                raise NumericalError(f"geometric w_{k} violates its growth bound")
            values.append(a**k * wk * math.exp(k * alpha * t))
    return MomentSequence(np.array(values), t=float(t)).check_hankel()


# ---------------------------------------------------------------------------
# The closed moment hierarchy: one Taylor engine
# ---------------------------------------------------------------------------

def _interaction_kernel(p_g: np.ndarray, p_h: np.ndarray) -> np.ndarray:
    """Interaction integrals of every monomial f' = x^j from power sums.

    Given stacked P_g[..., l] = <mu, x^l g^2> and P_h[..., l] = <mu, x^l h^2>
    for l = 0..J-1, returns I[..., 0..J] with

        I[j] = iint (x^j - y^j)/(x - y) G(x, y) mu(dx) mu(dy)
             = 2 (P_g * P_h)[j-1],          I[0] = 0,

    where * is discrete convolution: the divided difference of x^j is
    sum_l x^l y^{j-1-l} and G(x, y) = g^2(x) h^2(y) + g^2(y) h^2(x) is a
    sum of products, so the double integral separates into power sums
    (O(J^2) given P, for any g^2 and h^2, polynomial or not). Each row is
    summed in l order, whatever the stack around it. The interaction of a
    polynomial f' with coefficients fp is fp @ I.
    """
    size = p_g.shape[-1]
    out = np.zeros(p_g.shape[:-1] + (size + 1,))
    for l in range(size):
        out[..., l + 1 :] += 2.0 * p_g[..., l, None] * p_h[..., : size - l]
    return out


def _shift_operator(c: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Matrix S with (S @ m)[r] = sum_j c_j m_{r+j}."""
    return sum(cj * np.eye(rows, cols, k=j) for j, cj in enumerate(c))


def _check_coefficients(b, g2, h2, *values) -> None:
    """Raise ValidationError unless b, g^2, h^2 are nonempty and they and
    the other ``values`` (beta, the start) are finite."""
    finite = np.isfinite(np.hstack([b, g2, h2, *values])).all()
    if not (finite and all(map(np.size, (b, g2, h2)))):
        raise ValidationError("b, g2, h2 must be nonempty; they, beta and the start finite")


def _check_closes(b, g2, h2) -> None:
    """Raise TruncationError unless deg(b) <= 1 and deg g^2, deg h^2 <= 2."""
    deg_b, deg_g, deg_h = map(_degree, (b, g2, h2))
    if deg_b > 1 or max(deg_g, deg_h) > 2:
        raise TruncationError(
            "moment hierarchy does not close at k_max: requires deg(b) <= 1 "
            f"and max(deg g^2, deg h^2) <= 2, got deg(b)={deg_b}, "
            f"deg(g^2)={deg_g}, deg(h^2)={deg_h}"
        )


_TAYLOR_ORDERS = np.arange(25)  # 0..24, the terms of every Taylor expansion
_TAYLOR_TOL = 1e-17  # a step's order-24 term against each row's scale
_STEP_CAP = 1.0  # an all-zero order-24 row: the moments are polynomial in t
_STEP_FLOOR = 1e-6  # a shorter step means the moments blow up


def _hierarchy_operators(b, g2, h2, beta, k_max) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) of the closed hierarchy dm/dt = L m + Q(m, m) on m_0..m_kmax:

        dm_k/dt = k (sum_j b_j m_{k-1+j} + beta (P_g * P_h)[k-2]),

    the interaction (beta/2) k I[k-1] of f = x^k (:func:`_interaction_kernel`)
    with power sums P_g[l] = sum_j g2_j m_{l+j}. Column i (k_max+1) + j of Q
    is Q(e_i, e_j); one kernel call serves every pair."""
    size, ks = k_max + 1, np.arange(k_max + 1)[:, None]
    g_op, h_op = (_shift_operator(c, k_max - 1, size) for c in (g2, h2))
    lin = ks * np.vstack([np.zeros(size), _shift_operator(b, k_max, size)])
    pairs = _interaction_kernel(np.repeat(g_op.T, size, axis=0), np.tile(h_op.T, (size, 1)))
    quad = 0.5 * beta * ks * np.pad(pairs, ((0, 0), (1, 0))).T
    return lin, quad


def _taylor_family(b, g2, h2, beta, m0):
    """``moments(times)`` -> (len(times), m0.size) of one closed hierarchy.

    The hierarchy is quadratic, so its Taylor coefficients about a knot follow
    exactly from Cauchy products (Jorba-Zou, Experimental Math. 14, 2005):
    c_{r+1} = (L c_r + sum_{q=0}^{r} Q(c_q, c_{r-q})) / (r + 1), r < 24. Each
    expansion sizes its own step from its Cauchy radius: the order-24 term
    falls to ``_TAYLOR_TOL`` of every row's scale max(|c_0|, |c_1|) (a row
    that starts flat takes its largest coefficient), at most ``_STEP_CAP``.
    A step below ``_STEP_FLOOR`` raises NumericalError naming the blow-up
    time, knot + radius. The knots grow on demand and depend only on the
    family, so t always reads the expansion whose step covers it.
    """
    lin, quad = _hierarchy_operators(b, g2, h2, beta, m0.size - 1)
    knots, steps, expansions = [], [], []

    def extend(knot: float, m: np.ndarray) -> None:
        coeffs = np.zeros((_TAYLOR_ORDERS.size, m.size))
        coeffs[0] = m
        for r in range(_TAYLOR_ORDERS[-1]):
            cauchy = coeffs[: r + 1].T @ coeffs[r::-1]
            coeffs[r + 1] = (lin @ coeffs[r] + quad @ cauchy.ravel()) / (r + 1)
        if not np.all(np.isfinite(coeffs)):
            raise NumericalError(f"hierarchy moments overflow at t={knot:g}")
        scale, tail = np.abs(coeffs[:2]).max(axis=0), np.abs(coeffs[-1])
        scale = np.where(scale > 0, scale, np.abs(coeffs).max(axis=0))
        radius = np.min((scale[tail > 0] / tail[tail > 0]) ** (1 / 24), initial=np.inf)
        step = min(_STEP_CAP, _TAYLOR_TOL ** (1 / 24) * radius)
        if step < _STEP_FLOOR:
            raise NumericalError(
                f"hierarchy moments blow up near t={knot + radius:.6g}: step {step:.2g} too short"
            )
        knots.append(knot)
        steps.append(step)
        expansions.append(coeffs)

    def moments(times: np.ndarray) -> np.ndarray:
        while knots[-1] + steps[-1] <= times.max():
            extend(knots[-1] + steps[-1], steps[-1] ** _TAYLOR_ORDERS @ expansions[-1])
        idx = np.searchsorted(knots, times, side="right") - 1
        out = np.empty((times.size, m0.size))
        for j in set(idx.tolist()):  # (m, 1, 25) @ (25, k+1): a row reads the bits it reads alone
            at = idx == j
            out[at] = ((times[at] - knots[j])[:, None, None] ** _TAYLOR_ORDERS @ expansions[j])[:, 0]
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"hierarchy moments overflow by t={times.max():g}")
        return out

    extend(0.0, m0)
    return moments


def generic_moment_ode(
    b,
    g2,
    h2,
    beta: float,
    mu0_moments,
    k_max: int,
    t_final: float,
    dt: float = 1e-3,
) -> MomentPath:
    """The closed moment hierarchy of the limiting equation, on a time grid.

    ``b``, ``g2``, ``h2`` are ascending polynomial coefficient arrays of
    the drift and squared coefficient functions, and ``mu0_moments`` the
    start moments m_0 = 1, m_1, ..., m_kmax (or more). The hierarchy
    (:func:`_hierarchy_operators`) closes at k_max iff deg(b) <= 1 and
    max(deg(g2), deg(h2)) <= 2, else TruncationError. The moments are the
    Taylor engine's (:func:`_taylor_family`); ``dt`` sets only the grid of
    the path, the round(t_final / dt) + 1 evenly spaced times of [0, t_final].
    """
    b, g2, h2, m0 = (np.array(c, dtype=float, ndmin=1) for c in (b, g2, h2, mu0_moments))
    _check_coefficients(b, g2, h2, beta, m0)
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    if not (0 <= t_final < math.inf and 0 < dt < math.inf):
        raise ValidationError("t_final must be finite and >= 0, dt finite and > 0")
    _check_closes(b, g2, h2)
    if m0.size < k_max + 1 or abs(m0[0] - 1.0) > 1e-12:
        raise ValidationError("mu0_moments must provide m_0 = 1, m_1, ..., m_kmax")
    n_steps = max(1, round(t_final / dt)) if t_final > 0 else 0
    t_grid = np.linspace(0.0, t_final, n_steps + 1)
    moments = _taylor_family(b, g2, h2, beta, m0[: k_max + 1])
    return MomentPath(t_grid=t_grid, values=moments(t_grid))


def jacobi_moments(
    p: float,
    q: float,
    beta: float,
    a: float,
    t_final: float,
    dt: float = 1e-3,
    k_max: int = 8,
) -> MomentSequence:
    """Jacobi-class moments at t_final from a point mass at ``a`` in [0, 1].

    Reads :func:`generic_moment_ode` with drift b(x) = p - (p+q)x
    (inward-pointing at both ends of [0, 1]) and g^2 = x, h^2 = 1 - x.
    Raises NumericalError if the moments on its dt grid stop satisfying
    0 <= m_{k+1} <= m_k (the signature of a misconfigured drift sign).
    """
    if not 0.0 <= a <= 1.0:
        raise ValidationError("a must lie in [0, 1]")
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValidationError("p and q must be positive and finite")
    vals = generic_moment_ode(
        b=[p, -(p + q)], g2=[0.0, 1.0], h2=[1.0, -1.0], beta=beta,
        mu0_moments=[a**k for k in range(k_max + 1)], k_max=k_max, t_final=t_final, dt=dt,
    ).values
    if np.any(vals < -1e-6) or np.any(vals[:, 1:] - vals[:, :-1] > 1e-6):
        raise NumericalError(
            "Jacobi moments left [0,1] ordering (0 <= m_{k+1} <= m_k); check the drift sign"
        )
    return MomentSequence(vals[-1].copy(), t=float(t_final)).check_hankel()


@dataclass(frozen=True, eq=False)
class HierarchyLaw(_Family):
    """Time-t law of a class whose moment hierarchy closes: moments only.

    ``b``, ``g2``, ``h2`` are the ascending coefficients the flow steps with
    (deg b <= 1, deg g^2, deg h^2 <= 2, else TruncationError), at Dyson index
    ``beta``, from a point mass at ``a``. Every ``.at(t)`` of one law shares
    its Taylor steps (:func:`_taylor_family`); no simulation dt enters.
    """

    b: tuple
    g2: tuple
    h2: tuple
    beta: float
    a: float
    t: float = 1.0
    _families: dict = field(default_factory=dict, repr=False)  # k_max -> _taylor_family

    has_cdf = False
    has_density = False

    def __post_init__(self):
        _check_coefficients(self.b, self.g2, self.h2, self.beta, self.a)
        _check_closes(self.b, self.g2, self.h2)
        _check_time(self.t)

    def moment_table(self, times, k_max: int) -> np.ndarray:
        """(T, k_max + 1) moments of ``at(t)`` at each of the times, bit for
        bit: one evaluation of the Taylor family over the grid, checked by
        one stacked Hankel test (:func:`_check_hankel`)."""
        if k_max < 1:
            raise ValidationError("k_max must be >= 1")
        times = np.asarray(times, dtype=float)
        _check_time(times)
        if k_max not in self._families:
            start = float(self.a) ** np.arange(k_max + 1)
            self._families[k_max] = _taylor_family(self.b, self.g2, self.h2, self.beta, start)
        return _check_hankel(self._families[k_max](times), times)

    def moments(self, k_max: int) -> MomentSequence:
        return MomentSequence(self.moment_table([self.t], k_max)[0], t=self.t)

    def cdf(self, *args):
        raise UnsupportedLawOperation("hierarchy law exposes moments only")

    density = at_times = cdf
