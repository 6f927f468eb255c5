"""Limit laws and the moment engine of the universality classes.

Laws with a CDF: the semicircle (flat flows), a one-parameter
Marchenko-Pastur family (square-root flows with constant drift), and the
signed mixtures of time-rescaled Marchenko-Pastur laws that also solve the
Wishart-type limit equation (the non-uniqueness examples): one law,
:class:`MPMixture`, with two factories, :func:`mp_mixture_two` (no atom)
and :func:`mp_mixture_three` (an atom at 0 between the two sides). Every
class whose moment hierarchy closes (deg b <= 1, deg g^2, deg h^2 <= 2),
the geometric and Jacobi classes among them, has a moments-only
:class:`HierarchyLaw`.

One engine computes those moments: exact Taylor steps of the quadratic
hierarchy (:func:`_taylor_family`), through the same separable interaction
kernel as the empirical residuals. Kept as the tests' oracles: the closed
forms (:func:`semicircle_moments`, :func:`mp_moments`, :func:`geometric_w` /
:func:`geometric_moments`, rational polynomial-in-t coefficients) and
:func:`generic_moment_ode`, RK4 of the same hierarchy at a fixed dt, with
:func:`jacobi_moments` on it.

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

import numpy as np

from .errors import (
    NumericalError,
    TruncationError,
    UnsupportedLawOperation,
    ValidationError,
)

__all__ = [
    "HierarchyLaw",
    "MarchenkoPastur",
    "MomentPath",
    "MomentSequence",
    "MPMixture",
    "PointMass",
    "Semicircle",
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


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic (ascending coefficients, Fractions)
# ---------------------------------------------------------------------------

def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _padd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, bj in enumerate(b):
        out[j] += bj
    return out


def _pscale(a: list[Fraction], c: Fraction) -> list[Fraction]:
    return [c * ai for ai in a]


def _pint(a: list[Fraction]) -> list[Fraction]:
    """Antiderivative with zero constant term."""
    return [Fraction(0)] + [ai / (i + 1) for i, ai in enumerate(a)]


def _peval(a: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for ai in reversed(a):
        acc = acc * t + ai
    return acc


def _catalan(j: int) -> int:
    return math.comb(2 * j, j) // (j + 1)


# ---------------------------------------------------------------------------
# Moment sequences
# ---------------------------------------------------------------------------

@dataclass
class MomentSequence:
    """Moments m_0..m_kmax of a law at a fixed time.

    ``polys``, when present, holds each m_k as an exact rational
    polynomial in t (ascending coefficients).
    """

    values: np.ndarray
    t: float | None = None
    polys: list[list[Fraction]] | None = None

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
        """Smallest eigenvalue of the Hankel moment matrix (m_{i+j})."""
        half = self.k_max // 2
        hankel = np.array(
            [[self.values[i + j] for j in range(half + 1)] for i in range(half + 1)]
        )
        return float(np.linalg.eigvalsh(hankel)[0])

    def check_hankel(self) -> "MomentSequence":
        """Raise NumericalError unless the Hankel matrix is PSD.

        Tolerance is relative to the moment scale, since moment magnitudes
        range over several orders across the law families.
        """
        tol = 1e-8 * (1.0 + float(np.max(np.abs(self.values))))
        min_eig = self.hankel_min_eig()
        if min_eig < -tol:
            raise NumericalError(
                f"moment sequence is not positive semidefinite (min Hankel eig {min_eig:.3e})"
            )
        return self


@dataclass
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
# Trapezoid integration (CDF meshes, time integrals) and CDF mesh helpers
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


@functools.lru_cache(maxsize=16)
def _shape_quantiles(shape_mesh, key, count: int) -> np.ndarray:
    """Midpoint quantiles of the cached unit-scale mesh ``shape_mesh(key)``.

    A dilation family's quantiles at scale s are s times these: inverting
    the dilated mesh (s xs, fs) picks the same indices, and
    (s xs)[idx] == s xs[idx] bit for bit. The array is read-only.
    """
    q = _invert_mesh(*shape_mesh(key), _midpoints(count))
    q.flags.writeable = False
    return q


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("t must be finite and >= 0")


class _LawBase:
    """Shared behavior for laws exposing a CDF mesh.

    Subclasses implement ``_build_mesh() -> (xs, fs)`` with fs the full CDF
    (atoms included as jumps at repeated x) and provide ``atoms`` and
    ``bounds``.
    """

    has_density = True
    has_cdf = True

    def _mesh(self) -> tuple[np.ndarray, np.ndarray]:
        cached = self.__dict__.get("_mesh_cache")
        if cached is None:
            cached = self._build_mesh()
            self.__dict__["_mesh_cache"] = cached
        return cached

    def cdf(self, x) -> np.ndarray:
        xs, fs = self._mesh()
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, fs, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def quantile_atoms(self, count: int) -> np.ndarray:
        """Midpoint-quantile discretization: atoms at F^{-1}((i-1/2)/count)."""
        return _invert_mesh(*self._mesh(), _midpoints(count))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        xs, fs = self._mesh()
        return _invert_mesh(xs, fs, rng.uniform(size=count))

    def continuous_mass(self) -> float:
        return 1.0 - sum(m for _, m in self.atoms())

    def atoms(self) -> list[tuple[float, float]]:
        return []


# ---------------------------------------------------------------------------
# Semicircle
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Semicircle(_LawBase):
    """Semicircle law of a flat flow: variance beta*t/2, center optional.

    ``Semicircle(t, beta)`` is the time-t law of the flat flow with
    2 g h = 1 at Dyson index beta (beta=2: variance t; beta=1: the beta=2
    law at time t/2). ``from_radius``/``from_variance`` build the same
    family parameterized directly.
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

    def at(self, t: float) -> "Semicircle":
        return Semicircle(t=float(t), beta=self.beta, center=self.center)

    @property
    def variance(self) -> float:
        return self.beta * self.t / 2.0

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.variance)

    @property
    def is_degenerate(self) -> bool:
        return self.variance == 0.0

    def atoms(self) -> list[tuple[float, float]]:
        return [(self.center, 1.0)] if self.is_degenerate else []

    def bounds(self) -> tuple[float, float]:
        r = self.radius
        return self.center - r, self.center + r

    def density(self, x) -> np.ndarray:
        if self.is_degenerate:
            raise UnsupportedLawOperation("degenerate semicircle has no density")
        x = np.asarray(x, dtype=float) - self.center
        r = self.radius
        inside = np.clip(r * r - x * x, 0.0, None)
        return 2.0 * np.sqrt(inside) / (math.pi * r * r)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.is_degenerate:
            out = (x >= self.center).astype(float)
            return out if out.ndim else float(out)
        r = self.radius
        u = np.clip((x - self.center) / r, -1.0, 1.0)
        out = 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi
        return out if out.ndim else float(out)

    def _build_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_degenerate:
            xs = np.array([self.center, self.center])
            return xs, np.array([0.0, 1.0])
        lo, hi = self.bounds()
        xs = np.linspace(lo, hi, _MESH_POINTS)
        return xs, np.asarray(self.cdf(xs))

    def quantile_atoms(self, count: int) -> np.ndarray:
        if self.is_degenerate:
            return np.full(count, self.center)
        idx = _shape_quantiles(_semicircle_index_mesh, None, count)
        lo, hi = self.bounds()
        # the law's mesh points linspace(lo, hi, M)[idx], in numpy's arithmetic
        return lo + idx * ((hi - lo) / (_MESH_POINTS - 1))

    def moments(self, k_max: int) -> MomentSequence:
        return semicircle_moments(self.t, self.beta, k_max, center=self.center)


@functools.lru_cache(maxsize=1)
def _semicircle_index_mesh(_key=None) -> tuple[np.ndarray, np.ndarray]:
    """(indices, CDF values) of the mesh every semicircle shares up to rounding.

    ``_build_mesh`` puts every semicircle's CDF on the same standardized
    points, so a quantile level picks the same mesh index for each; only
    the abscissae move. (A level that ties a mesh value, u = 1/2 at the
    center, can round to the next index on a shifted law's own mesh.) Both
    arrays are read-only.
    """
    _, fs = Semicircle.from_radius(1.0)._build_mesh()
    idx = np.arange(fs.size)
    idx.flags.writeable = False
    fs.flags.writeable = False
    return idx, fs


def semicircle_moments(
    t: float, beta: int, k_max: int, center: float = 0.0
) -> MomentSequence:
    """Semicircle moments: m_{2j} = Catalan_j (beta t / 2)^j, odd ones 0.

    The beta=1 law equals the beta=2 law at time t/2 (the exact map used
    here is variance = beta*t/2). A nonzero center shifts by binomial
    convolution.
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    half_var = Fraction(beta, 2) * Fraction(t)
    centered = [Fraction(0)] * (k_max + 1)
    polys: list[list[Fraction]] = []
    for k in range(k_max + 1):
        if k % 2 == 0:
            j = k // 2
            coef = Fraction(_catalan(j)) * Fraction(beta, 2) ** j
            centered[k] = coef * Fraction(t) ** j
            polys.append([Fraction(0)] * j + [coef])
        else:
            polys.append([Fraction(0)])
    if center == 0.0:
        values = np.array([float(v) for v in centered])
        return MomentSequence(values, t=float(t), polys=polys).check_hankel()
    c = Fraction(center)
    shifted = [
        sum(math.comb(k, j) * c ** (k - j) * centered[j] for j in range(k + 1))
        for k in range(k_max + 1)
    ]
    values = np.array([float(v) for v in shifted])
    return MomentSequence(values, t=float(t)).check_hankel()


# ---------------------------------------------------------------------------
# Marchenko-Pastur family
# ---------------------------------------------------------------------------

def mp_params(alpha: float) -> tuple[float, float]:
    """Edge pair ((1 - sqrt(alpha))^2, (1 + sqrt(alpha))^2)."""
    if alpha < 0:
        raise ValidationError("alpha must be >= 0")
    s = math.sqrt(alpha)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


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

    def at(self, t: float) -> "MarchenkoPastur":
        return MarchenkoPastur(self.alpha, float(t), self.beta)

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

    def atoms(self) -> list[tuple[float, float]]:
        if self.is_degenerate:
            return [(0.0, 1.0)]
        return [(0.0, self.atom_mass)] if self.atom_mass > 0 else []

    def bounds(self) -> tuple[float, float]:
        if self.is_degenerate:
            return 0.0, 0.0
        a, b = self.edges
        return min(0.0, a), b

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

    def _build_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_degenerate:
            return np.array([0.0, 0.0]), np.array([0.0, 1.0])
        xs, fs = _mp_shape_mesh(self.ratio)
        return self.scale * xs, fs

    def quantile_atoms(self, count: int) -> np.ndarray:
        if self.is_degenerate:
            return np.zeros(count)
        return self.scale * _shape_quantiles(_mp_shape_mesh, self.ratio, count)

    def moments(self, k_max: int) -> MomentSequence:
        return mp_moments(self.alpha, self.beta, self.t, k_max)


@functools.lru_cache(maxsize=8)
def _mp_shape_mesh(ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """CDF mesh of the unit-scale MP shape with ``ratio``, atom included.

    Dilation scales the abscissae and leaves the CDF values alone, so every
    time of one MP family shares this mesh (``MarchenkoPastur._build_mesh``
    returns ``(scale * xs, fs)``) and its quantiles (``quantile_atoms``
    returns ``scale * _shape_quantiles(...)``). Both arrays are read-only.
    """
    a, b = mp_params(ratio)
    # Edge-adapted substitution x = a + (b-a) sin^2(theta): the integrand
    # of the CDF becomes smooth even at a = 0, where the density has an
    # integrable x^{-1/2} singularity.
    theta = np.linspace(0.0, 0.5 * math.pi, _MESH_POINTS)
    xs = a + (b - a) * np.sin(theta) ** 2
    if a == 0.0:
        # x = b sin^2(theta): the integrand reduces to (b/pi) cos^2.
        integrand = (b / math.pi) * np.cos(theta) ** 2
    else:
        integrand = (b - a) ** 2 * np.sin(2.0 * theta) ** 2 / (4.0 * math.pi * xs)
    fs = _cumtrapz(integrand, theta)
    atom = max(0.0, 1.0 - ratio)
    if atom > 0.0:
        xs = np.concatenate(([0.0, 0.0], xs))
        fs = np.concatenate(([0.0, atom], atom + fs))
    xs.flags.writeable = False
    fs.flags.writeable = False
    return xs, fs


def mp_moments(alpha: float, beta: float, t: float, k_max: int) -> MomentSequence:
    """Exact Marchenko-Pastur moment recursion, polynomial in t.

        m_k(t) = alpha k int_0^t m_{k-1}
                 + beta k sum_{i=0}^{k-2} int_0^t m_{i+1} m_{k-2-i},

    computed with rational coefficient arithmetic (each m_k is a degree-k
    polynomial in t with nonnegative coefficients).
    """
    if alpha < 0:
        raise ValidationError("alpha must be >= 0")
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    af = Fraction(alpha)
    bf = Fraction(beta)
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for k in range(1, k_max + 1):
        deriv = _pscale(polys[k - 1], af * k)
        for i in range(k - 1):
            deriv = _padd(deriv, _pscale(_pmul(polys[i + 1], polys[k - 2 - i]), bf * k))
        polys.append(_pint(deriv))
    tf = Fraction(t)
    values = np.array([float(_peval(p, tf)) for p in polys])
    return MomentSequence(values, t=float(t), polys=polys).check_hankel()


# ---------------------------------------------------------------------------
# Point mass and the non-uniqueness mixtures
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PointMass(_LawBase):
    a: float = 0.0

    def at(self, t: float) -> "PointMass":
        return self

    def atoms(self) -> list[tuple[float, float]]:
        return [(self.a, 1.0)]

    def bounds(self) -> tuple[float, float]:
        return self.a, self.a

    has_density = False

    def density(self, x):
        raise UnsupportedLawOperation("point mass has no density")

    def _build_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.a, self.a]), np.array([0.0, 1.0])

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
    :func:`mp_mixture_three`, which check the parameters and compute the
    weights. The law at time t is the time-1 law dilated by t, so the CDF
    mesh and the quantiles are those of the time-1 law (cached per shape)
    scaled by t.
    """

    alpha: float
    alpha_plus: float
    alpha_minus: float
    lam: float
    lam_star: float
    gamma: float
    t: float = 1.0

    def __post_init__(self):
        _check_time(self.t)

    @property
    def induced_alpha(self) -> float:
        """The constant drift of the limit equation the mixture solves."""
        return self.alpha

    def at(self, t: float) -> "MPMixture":
        return MPMixture(
            self.alpha, self.alpha_plus, self.alpha_minus,
            self.lam, self.lam_star, self.gamma, float(t),
        )

    def components(self) -> tuple[MarchenkoPastur, MarchenkoPastur]:
        """The positive component and the negative one before reflection."""
        return (
            MarchenkoPastur(self.alpha_plus, self.lam * self.t, beta=1),
            MarchenkoPastur(self.alpha_minus, self.lam_star * self.t, beta=1),
        )

    def atoms(self) -> list[tuple[float, float]]:
        pos, neg = self.components()
        if pos.is_degenerate and neg.is_degenerate:
            return [(0.0, 1.0)]  # exact: the three weights need not sum to 1 in floats
        mass = self.gamma
        if pos.is_degenerate:
            mass += self.lam
        if neg.is_degenerate:
            mass += self.lam_star
        return [(0.0, mass)] if mass > 0 else []

    def bounds(self) -> tuple[float, float]:
        pos, neg = self.components()
        return -neg.bounds()[1], pos.bounds()[1]

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

    @property
    def _shape_key(self) -> tuple:
        """The parameters of the time-1 mesh: everything but t and alpha."""
        return (self.alpha_plus, self.alpha_minus, self.lam, self.lam_star, self.gamma)

    def _build_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        if self.t == 0.0:
            return np.array([0.0, 0.0]), np.array([0.0, self.atoms()[0][1]])
        xs, fs = _mixture_unit_mesh(self._shape_key)
        return self.t * xs, fs

    def quantile_atoms(self, count: int) -> np.ndarray:
        if self.t == 0.0:
            return np.zeros(count)
        return self.t * _shape_quantiles(_mixture_unit_mesh, self._shape_key, count)

    def moments(self, k_max: int) -> MomentSequence:
        pos, neg = self.components()
        ks = np.arange(k_max + 1)
        vals = (
            self.lam * pos.moments(k_max).values
            + self.lam_star * (-1.0) ** ks * neg.moments(k_max).values
        )
        vals[0] = 1.0  # the atom restores full mass at k = 0
        return MomentSequence(vals, t=None)


@functools.lru_cache(maxsize=8)
def _mixture_unit_mesh(key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """CDF mesh of the time-1 mixture with ``MPMixture._shape_key`` ``key``.

    Both components dilate with t (each is an MP law at time lam*t or
    lam_star*t), so the mixture at time t is this law dilated by t:
    ``MPMixture._build_mesh`` returns ``(t * xs, fs)``. At t = 1 neither
    component is degenerate. Both arrays are read-only.
    """
    alpha_plus, alpha_minus, lam, lam_star, gamma = key
    neg_xs, neg_fs = MarchenkoPastur(alpha_minus, lam_star, beta=1)._build_mesh()
    pos_xs, pos_fs = MarchenkoPastur(alpha_plus, lam, beta=1)._build_mesh()
    atom_x, atom_f = ([0.0, 0.0], [lam_star, lam_star + gamma]) if gamma > 0 else ([], [])
    xs = np.concatenate([-neg_xs[::-1], atom_x, pos_xs])
    fs = np.maximum.accumulate(
        np.concatenate([lam_star * (1.0 - neg_fs[::-1]), atom_f, lam_star + gamma + lam * pos_fs])
    )
    xs.flags.writeable = False
    fs.flags.writeable = False
    return xs, fs


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

    integrated term-wise with rational coefficients. w_1 = 1, w_2 = 1+2x,
    w_3 = 1+6x+6x^2, ...
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    ws: list[list[Fraction]] = [[Fraction(1)]]
    for k in range(2, k_max + 1):
        deriv: list[Fraction] = [Fraction(0)]
        for i in range(k - 1):
            deriv = _padd(deriv, _pmul(ws[i], ws[k - 2 - i]))
        deriv = _pscale(deriv, Fraction(k))
        wk = _pint(deriv)
        wk[0] = Fraction(1)
        ws.append(wk)
    return ws


def geometric_growth_bound_ok(k: int, x: float, w_value: float) -> bool:
    """Check w_k(x) <= k! 9^{k-1} (1+x)^{k-1}."""
    return w_value <= math.factorial(k) * 9.0 ** (k - 1) * (1.0 + x) ** (k - 1) + 1e-9


def geometric_moments(a: float, alpha: float, beta: float, t: float, k_max: int) -> MomentSequence:
    """Closed-form geometric moments m_k(t) = a^k w_k(t beta) e^{k alpha t}.

    Also validates the growth bound w_k(x) <= k! 9^{k-1} (1+x)^{k-1} at
    x = t*beta for each computed k.
    """
    if a <= 0:
        raise ValidationError("a must be > 0")
    if t < 0:
        raise ValidationError("t must be >= 0")
    values = [1.0]
    if k_max >= 1:
        ws = geometric_w(k_max)
        x = Fraction(beta) * Fraction(t)
        for k in range(1, k_max + 1):
            wk = float(_peval(ws[k - 1], x))
            if not geometric_growth_bound_ok(k, float(x), wk):
                raise NumericalError(f"geometric w_{k} violates its growth bound")
            values.append(a**k * wk * math.exp(k * alpha * t))
    return MomentSequence(np.array(values), t=float(t)).check_hankel()


# ---------------------------------------------------------------------------
# Generic moment hierarchy: RK4 (oracle) and the Jacobi class on it
# ---------------------------------------------------------------------------

def _interaction_kernel(p_g: np.ndarray, p_h: np.ndarray) -> np.ndarray:
    """Interaction integrals of every monomial f' = x^j from power sums.

    Given P_g[l] = <mu, x^l g^2> and P_h[l] = <mu, x^l h^2> for
    l = 0..J-1, returns I[0..J] with

        I[j] = iint (x^j - y^j)/(x - y) G(x, y) mu(dx) mu(dy)
             = 2 (P_g * P_h)[j-1],          I[0] = 0,

    where * is discrete convolution: the divided difference of x^j is
    sum_l x^l y^{j-1-l} and G(x, y) = g^2(x) h^2(y) + g^2(y) h^2(x) is a
    sum of products, so the double integral separates into power sums
    (O(J^2) given P, for any g^2 and h^2, polynomial or not). The
    interaction of a polynomial f' with coefficients fp is fp @ I.
    """
    out = np.zeros(p_g.size + 1)
    if p_g.size:
        out[1:] = 2.0 * np.convolve(p_g, p_h)[: p_g.size]
    return out


def _shift_operator(c: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Matrix S with (S @ m)[r] = sum_j c_j m_{r+j}."""
    return sum(cj * np.eye(rows, cols, k=j) for j, cj in enumerate(c))


def _check_closes(b, g2, h2) -> None:
    """Raise TruncationError unless deg(b) <= 1 and deg g^2, deg h^2 <= 2."""
    deg_b, deg_g, deg_h = (int(max(np.flatnonzero(c), default=0)) for c in (b, g2, h2))
    if deg_b > 1 or max(deg_g, deg_h) > 2:
        raise TruncationError(
            "moment hierarchy does not close at k_max: requires deg(b) <= 1 "
            f"and max(deg g^2, deg h^2) <= 2, got deg(b)={deg_b}, "
            f"deg(g^2)={deg_g}, deg(h^2)={deg_h}"
        )


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
    """Integrate the closed moment hierarchy of the limiting equation.

    ``b``, ``g2``, ``h2`` are ascending polynomial coefficient arrays of
    the drift and squared coefficient functions. For f = x^k the limiting
    equation's interaction term is (beta/2) k I[k-1] with I from
    :func:`_interaction_kernel`, and for polynomial g^2 the power sums are
    moments, P_g[l] = sum_j g2_j m_{l+j}; so the hierarchy reads

        dm_k/dt = k (sum_j b_j m_{k-1+j} + beta (P_g * P_h)[k-2]),

    with * discrete convolution. It closes at k_max iff deg(b) <= 1 and
    max(deg(g2), deg(h2)) <= 2; otherwise a TruncationError is raised
    (the needed moment triangle would be unbounded). Integration is
    classical RK4 with fixed dt. Its roundoff grows with the step count:
    on ``jacobi`` p = 12, q = 8, a = 0.3 at t = 2 the moments sit 1.05e-12
    from the exact Taylor law at dt = 1e-5 but 5.1e-14 at dt = 2e-4, so an
    oracle check past t ~ 1 should use the coarser dt.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    g2 = np.atleast_1d(np.asarray(g2, dtype=float))
    h2 = np.atleast_1d(np.asarray(h2, dtype=float))
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    if t_final < 0 or dt <= 0:
        raise ValidationError("t_final must be >= 0 and dt > 0")
    _check_closes(b, g2, h2)
    m0 = np.asarray(mu0_moments, dtype=float)
    if m0.size < k_max + 1:
        raise ValidationError("mu0_moments must provide m_0..m_kmax")
    if abs(m0[0] - 1.0) > 1e-12:
        raise ValidationError("mu0_moments[0] must be 1")
    m0 = m0[: k_max + 1].copy()

    # rows k - 1 (k = 1..k_max) of the drift, rows l = 0..k_max-2 of P_g, P_h
    b_op = _shift_operator(b, k_max, k_max + 1)
    g_op = _shift_operator(g2, k_max - 1, k_max + 1)
    h_op = _shift_operator(h2, k_max - 1, k_max + 1)
    ks = np.arange(1, k_max + 1)
    half_beta = 0.5 * beta

    def rhs(m: np.ndarray) -> np.ndarray:
        dm = np.zeros_like(m)
        dm[1:] = ks * (b_op @ m + half_beta * _interaction_kernel(g_op @ m, h_op @ m))
        return dm

    n_steps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    step = t_final / n_steps if n_steps else 0.0
    t_grid = np.linspace(0.0, t_final, n_steps + 1)
    values = np.empty((n_steps + 1, k_max + 1))
    values[0] = m0
    m = m0.copy()
    for s in range(1, n_steps + 1):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * step * k1)
        k3 = rhs(m + 0.5 * step * k2)
        k4 = rhs(m + step * k3)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[s] = m
    return MomentPath(t_grid=t_grid, values=values)




def jacobi_moments(
    p: float,
    q: float,
    beta: float,
    a: float,
    t_final: float,
    dt: float = 1e-3,
    k_max: int = 8,
) -> MomentSequence:
    """Jacobi-class moments from a point mass at ``a`` in [0, 1], by RK4.

    Delegates to :func:`generic_moment_ode` with drift b(x) = p - (p+q)x
    (inward-pointing at both ends of [0, 1]) and g^2 = x, h^2 = 1 - x.
    Raises NumericalError if the computed moments stop satisfying
    0 <= m_{k+1} <= m_k (the signature of a misconfigured drift sign).
    """
    if not 0.0 <= a <= 1.0:
        raise ValidationError("a must lie in [0, 1]")
    if p <= 0 or q <= 0:
        raise ValidationError("p and q must be positive")
    vals = generic_moment_ode(
        b=[p, -(p + q)], g2=[0.0, 1.0], h2=[1.0, -1.0], beta=beta,
        mu0_moments=[a**k for k in range(k_max + 1)], k_max=k_max, t_final=t_final, dt=dt,
    ).values
    if np.any(vals < -1e-6) or np.any(vals[:, 1:] - vals[:, :-1] > 1e-6):
        raise NumericalError(
            "Jacobi moments left [0,1] ordering (0 <= m_{k+1} <= m_k violated); "
            "check the drift sign"
        )
    return MomentSequence(vals[-1].copy(), t=float(t_final)).check_hankel()


# ---------------------------------------------------------------------------
# The law of every class whose hierarchy closes: Taylor steps
# ---------------------------------------------------------------------------

_TAYLOR_ORDERS = np.arange(25)  # 0..24, the terms of every Taylor expansion


@dataclass(frozen=True, eq=False)
class HierarchyLaw:
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
        if not all(map(math.isfinite, (*self.b, *self.g2, *self.h2, self.beta, self.a))):
            raise ValidationError("hierarchy coefficients, beta and a must be finite")
        _check_closes(self.b, self.g2, self.h2)
        _check_time(self.t)

    def at(self, t: float) -> "HierarchyLaw":
        return replace(self, t=float(t))

    def moments(self, k_max: int) -> MomentSequence:
        if k_max < 1:
            raise ValidationError("k_max must be >= 1")
        if k_max not in self._families:
            family = _taylor_family(self.b, self.g2, self.h2, self.beta, self.a, k_max)
            self._families[k_max] = family
        lin, quad, per_unit, expansions = self._families[k_max]
        j = math.floor(self.t * per_unit)
        while len(expansions) <= j:
            knot = (1 / per_unit) ** _TAYLOR_ORDERS @ expansions[-1]
            expansions.append(_taylor_expand(lin, quad, knot))
        values = (self.t - j / per_unit) ** _TAYLOR_ORDERS @ expansions[j]
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"hierarchy moments overflow at t={self.t:g}")
        return MomentSequence(values, t=self.t).check_hankel()

    def cdf(self, x):
        raise UnsupportedLawOperation("hierarchy law exposes moments only")

    density = cdf


def _taylor_family(b, g2, h2, beta, a, k_max) -> tuple:
    """(L, Q, N, expansions) of one closed hierarchy, from a point mass at a.

    The hierarchy dm/dt = L m + Q(m, m) of :func:`generic_moment_ode` is
    quadratic, so its Taylor coefficients follow exactly from Cauchy products
    (:func:`_taylor_expand`; Jorba-Zou, Experimental Math. 14, 2005). The step
    1/N, N = ceil(k_max max(|b_1|, 1)), keeps k |b_1| / N <= 1. The list
    ``expansions`` (j-th about knot j/N, the previous one summed at 1/N)
    grows on demand, so the moments at t are always expansion floor(t N)
    summed at t - j/N, whatever times were asked for before.
    """
    size, ks = k_max + 1, np.arange(k_max + 1)[:, None]
    g_op, h_op = (_shift_operator(c, k_max - 1, size) for c in (g2, h2))
    lin = ks * np.vstack([np.zeros(size), _shift_operator(b, k_max, size)])
    # Q(u, v)[k] = (beta/2) k I[k-1], I the interaction kernel of the power
    # sums g_op u and h_op v; column i * size + j is Q(e_i, e_j)
    quad = 0.5 * beta * ks * np.array([
        np.append(0.0, _interaction_kernel(g_op[:, i], h_op[:, j]))
        for i in range(size) for j in range(size)
    ]).T
    per_unit = math.ceil(k_max * max(abs(b[1]) if len(b) > 1 else 0.0, 1.0))
    return lin, quad, per_unit, [_taylor_expand(lin, quad, a ** np.arange(size))]


def _taylor_expand(lin: np.ndarray, quad: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Rows c_0..c_24 about a point with moments m:
    c_{r+1} = (L c_r + sum_{q=0}^{r} Q(c_q, c_{r-q})) / (r + 1)."""
    coeffs = np.zeros((_TAYLOR_ORDERS.size, m.size))
    coeffs[0] = m
    for r in range(_TAYLOR_ORDERS[-1]):
        cauchy = coeffs[: r + 1].T @ coeffs[r::-1]
        coeffs[r + 1] = (lin @ coeffs[r] + quad @ cauchy.ravel()) / (r + 1)
    return coeffs
