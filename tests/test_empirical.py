"""Tests for eigenflow.empirical.

Empirical measures are checked on hand values, the distances are
cross-checked against scipy.stats and exact transport computations, and
the limiting-equation residual is pinned on flows where it must vanish
identically or follow a closed form.
"""

import re

import numpy as np
import pytest
from scipy import stats

import eigenflow.empirical as empirical_mod
import empirical_oracles as oracle
from eigenflow import (
    EmpiricalMeasure,
    EmpiricalMeasureProcess,
    FlowSpec,
    HierarchyLaw,
    MarchenkoPastur,
    MPMixture,
    PointMass,
    Semicircle,
    SpectralFunction,
    UnsupportedLawOperation,
    ValidationError,
    em_sde_decomposition,
    ks_distance,
    limit_equation_residual,
    mp_mixture_three,
    mp_mixture_two,
    simulate_ensemble,
    simulate_path,
    wasserstein1,
)
from eigenflow.empirical import _limit_terms
from eigenflow.limits import FreeDiffusion, _Dilated, _interaction_kernel, _LawBase

ZERO = SpectralFunction.constant(0.0)
ONE = SpectralFunction.constant(1.0)
HALF = SpectralFunction.constant(0.5)


# ---------------------------------------------------------------------------
# EmpiricalMeasure basics


def test_moments_hand_values():
    m = EmpiricalMeasure(np.array([-1.0, 1.0]))
    assert m.moment(0) == 1.0
    assert m.moment(1) == 0.0
    assert m.moment(2) == 1.0
    assert EmpiricalMeasure(np.array([1.0, 2.0, 3.0])).moment(1) == 2.0
    assert m.moment(np.int64(4)) == 1.0


@pytest.mark.parametrize("k", [-1, 2.5, "2"])
def test_moment_order_must_be_a_natural_number(k):
    """The running product x^k = x^(k-1) x has no fractional or negative
    order: such a k is refused by name."""
    with pytest.raises(ValidationError, match="k must be an integer >= 0"):
        EmpiricalMeasure(np.array([1.0, 2.0])).moment(k)


def test_atoms_sorted_and_counted():
    m = EmpiricalMeasure(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(m.atoms, [1.0, 2.0, 3.0])
    assert m.n == 3


def test_cdf_one_sided_limits():
    m = EmpiricalMeasure(np.array([0.0, 0.0, 1.0]))
    assert np.isclose(m.cdf(0.0), 2.0 / 3.0)
    assert np.isclose(m.cdf_left(0.0), 0.0)
    assert np.isclose(m.mass_below(0.0), 0.0)
    assert np.isclose(m.cdf(0.5), 2.0 / 3.0)
    assert np.isclose(m.cdf(1.0), 1.0)
    assert np.isclose(m.mass_below(0.5), 2.0 / 3.0)


# ---------------------------------------------------------------------------
# distances


def test_ks_distance_point_mass_cases():
    m = EmpiricalMeasure(np.array([0.0]))
    assert ks_distance(m, PointMass(0.0)) <= 1e-15
    # shifted point mass: the step functions disagree completely in between
    assert np.isclose(ks_distance(m, PointMass(1.0)), 1.0)


def test_ks_distance_against_scipy_kstest():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(71)
    sample = law.sample(500, rng)
    ours = ks_distance(EmpiricalMeasure(sample), law)
    scipy_stat = stats.kstest(sample, lambda x: law.cdf(x)).statistic
    assert np.isclose(ours, scipy_stat, atol=1e-9)


def test_ks_distance_dkw_bound():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(72)
    sample = law.sample(10000, rng)
    # P(ks > 0.03) <= 2 exp(-2 * 1e4 * 9e-4) ~ 3e-8: effectively deterministic
    assert ks_distance(EmpiricalMeasure(sample), law) <= 0.03


def test_ks_distance_quantile_discretization():
    law = Semicircle(1.0, beta=2)
    m = EmpiricalMeasure(law.quantile_atoms(400))
    assert ks_distance(m, law) <= 1.0 / 400.0 + 1e-3


def test_wasserstein_point_masses_exact_transport():
    m = EmpiricalMeasure(np.array([0.7]))
    assert np.isclose(wasserstein1(m, PointMass(0.2)), 0.5, atol=1e-12)
    two = EmpiricalMeasure(np.array([0.0, 1.0]))
    # optimal transport to delta_{1/2} moves each half-atom by 1/2
    assert np.isclose(wasserstein1(two, PointMass(0.5)), 0.5, atol=1e-12)


def test_wasserstein_closed_forms():
    """W1 to a point mass a is mean |x - a|; a single atom at the centre of
    a semicircle of radius r is 4r/(3 pi) from it (the law's mean |Y - c|)."""
    atoms = np.array([-2.5, -0.3, 0.1, 0.1, 0.25, 0.9, 2.0, 7.5])
    for a in (0.2, -3.0, 0.1, 9.0):
        got = wasserstein1(EmpiricalMeasure(atoms), PointMass(a))
        assert abs(got - np.mean(np.abs(atoms - a))) <= 1e-15
    for radius, center in ((2.0, 0.0), (0.5, -1.7), (3.0, 4.0)):
        law = Semicircle.from_radius(radius, center)
        got = wasserstein1(EmpiricalMeasure([center]), law)
        assert abs(got - 4.0 * radius / (3.0 * np.pi)) <= 1e-13


def test_wasserstein_against_scipy():
    law = Semicircle(1.0, beta=2)
    rng = np.random.default_rng(73)
    sample = law.sample(300, rng)
    ours = wasserstein1(EmpiricalMeasure(sample), law)
    ref = stats.wasserstein_distance(sample, law.quantile_atoms(20000))
    assert abs(ours - ref) <= 5e-3


def test_wasserstein_own_quantiles_small():
    law = Semicircle(1.0, beta=2)
    m = EmpiricalMeasure(law.quantile_atoms(400))
    assert wasserstein1(m, law) <= 0.01


_ORACLE_LAWS = {
    "semicircle": Semicircle(1.0, beta=2),
    "semicircle_real": Semicircle(0.3, beta=1),
    "semicircle_t0": Semicircle(0.0, beta=2),  # degenerate: one atom at 0
    "mp_ratio_below_one": MarchenkoPastur(0.5, 1.0),  # atom at 0
    "mp": MarchenkoPastur(2.5, 1.0, beta=2),
    "mixture": mp_mixture_two(0.5, 1.0),  # two components meeting at 0, no atom
    "mixture_t0": mp_mixture_two(0.5, 0.0),
    "semicircle_shifted": Semicircle(0.7, beta=2, center=-1.3),
    "mp_ratio_one": MarchenkoPastur(1.0, 1.0, beta=1),  # density ~ x^(-1/2) at 0
    "mp_t0": MarchenkoPastur(2.5, 0.0),
    "mixture_three": mp_mixture_three(1.5, 2.0, 0.7),  # isolated atom at 0
    "mixture_three_t0": mp_mixture_three(1.5, 1.8, 0.0),
    "point_mass": PointMass(0.3),
}


def _oracle_atom_rows(law, n, rng):
    """Sorted atom rows: continuous, tied, far outside the support, drawn
    from the law, and sitting on the law's atoms."""
    rows = [
        rng.standard_normal(n),
        np.round(rng.standard_normal(n), 1),
        rng.uniform(-6.0, 6.0, n),
        law.sample(n, rng) if law.continuous_mass() > 0 else np.zeros(n),
        np.zeros(n),
        np.where(rng.uniform(size=n) < 0.5, 0.0, rng.standard_normal(n)),
    ]
    return np.sort(np.array(rows), axis=-1)


@pytest.mark.parametrize("n", [1, 2, 25, 100])
@pytest.mark.parametrize("law_name", list(_ORACLE_LAWS))
def test_distances_equal_the_per_measure_oracle(law_name, n):
    """The stacked KS gives the one-measure body's bits, and the stacked W1
    the one-measure kernel's, row by row and through the EmpiricalMeasure
    entry; the exact W1 lies within the grid quadratures' error of them."""
    law = _ORACLE_LAWS[law_name]
    rng = np.random.default_rng(n)
    rows = _oracle_atom_rows(law, n, rng)
    ks, w1 = ks_distance(rows, law), wasserstein1(rows, law)
    assert ks.shape == w1.shape == (rows.shape[0],)
    assert wasserstein1(rows.reshape(2, 3, n), law).shape == (2, 3)
    atom_pos = [p for p, _ in law.atoms()]
    for row, ks_row, w1_row in zip(rows, ks, w1):
        m = EmpiricalMeasure(row)
        assert ks_row == oracle.ks_distance(m, law) == ks_distance(m, law)
        assert w1_row == wasserstein1(m, law)
        grid = oracle.wasserstein1(m, law)
        assert grid == oracle._w1_row(row, law, law.bounds(), atom_pos)
        assert abs(w1_row - grid) <= oracle.w1_grid_error(row, law)
    assert isinstance(ks_distance(EmpiricalMeasure(rows[0]), law), float)


@pytest.mark.parametrize("n", [1, 25, 100])
@pytest.mark.parametrize("law_name", list(_ORACLE_LAWS))
def test_wasserstein_is_exact(law_name, n):
    """The closed-form W1 agrees with a fine trapezoid rule to 1e-6 on every
    law family, with tied atoms and atoms outside the support."""
    law = _ORACLE_LAWS[law_name]
    rng = np.random.default_rng(n + 1)
    rows = np.concatenate([_oracle_atom_rows(law, n, rng), [law.quantile_atoms(n)]])
    for row, got in zip(rows, wasserstein1(rows, law)):
        assert abs(got - oracle.fine_wasserstein1(row, law)) <= 1e-6


def test_wasserstein_evaluates_phi_once_per_block(monkeypatch):
    """An (R, n) block within one chunk takes one integrated-CDF call of the
    law's table, whatever R is, on each row's atoms, split points and top,
    like KS's one cdf call."""
    calls = []
    phi = _Dilated.integrated_cdf
    monkeypatch.setattr(
        _Dilated, "integrated_cdf", lambda self, x: calls.append(np.shape(x)) or phi(self, x)
    )
    for law in (Semicircle(1.0, beta=2), MarchenkoPastur(2.5, 1.0)):
        calls.clear()
        for replicas in (1, 7, 40):
            rows = np.random.default_rng(replicas).standard_normal((replicas, 30))
            wasserstein1(np.sort(rows, axis=-1), law)
        assert calls == [(replicas, 2 * 30) for replicas in (1, 7, 40)]


TABLE_FAMILIES = {
    "semicircle_beta2": Semicircle(1.0, beta=2),
    "semicircle_beta1": Semicircle(1.0, beta=1),
    "mp_atom": MarchenkoPastur(0.5, 1.0),
    "mp": MarchenkoPastur(2.5, 1.0),
    "mix2": mp_mixture_two(0.5),
    "mix3": mp_mixture_three(1.5, 2.0),
    "free_bm": FreeDiffusion("free_bm", -0.5, 1.2),
    "free_ou": FreeDiffusion("free_ou", -0.7, 1.1),
    "point_mass": PointMass(0.3),
}
TABLE_GRID = (0.0, 1e-9, 0.05, 0.3, 1.0, 2.5)


def _table_spectra(family, n: int) -> np.ndarray:
    """(4, T, n) sorted rows per time: continuous, tied among themselves,
    half of them exactly at the time's law atom (its loc when it has none),
    and all at it."""
    rng = np.random.default_rng(n)
    out = np.empty((4, len(TABLE_GRID), n))
    for i, t in enumerate(TABLE_GRID):
        law = family.at(t)
        (pos,) = [p for p, _ in law.atoms()] or [law._dilation()[0]]
        out[0, i] = rng.standard_normal(n)
        out[1, i] = np.round(rng.standard_normal(n), 1)
        out[2, i] = np.where(np.arange(n) % 2 == 0, pos, rng.standard_normal(n))
        out[3, i] = pos
    return np.sort(out, axis=-1)


@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("family", TABLE_FAMILIES.values(), ids=TABLE_FAMILIES.keys())
def test_family_table_distances_are_the_per_time_calls(monkeypatch, family, n):
    """W1 and KS of an (R, T, n) stack against ``at_times`` over a grid from
    t = 0, with ties at the law atoms, give each cell the bits of its own
    call against ``at(t)`` (and KS the np.unique oracle's), in one chunk and
    with the chunk cap cut to 3 cells, so that chunks end inside a time."""
    spectra = _table_spectra(family, n)
    laws = family.at_times(TABLE_GRID)
    tables = [(wasserstein1(spectra, laws), ks_distance(spectra, laws))]
    monkeypatch.setattr(empirical_mod, "_CHUNK_ENTRIES", 3 * 2 * n)
    tables.append((wasserstein1(spectra, laws), ks_distance(spectra, laws)))
    for w1, ks in tables:
        assert w1.shape == ks.shape == spectra.shape[:-1]
        for r, i in np.ndindex(*w1.shape):
            law, m = family.at(TABLE_GRID[i]), EmpiricalMeasure(spectra[r, i])
            assert w1[r, i] == wasserstein1(m, law)
            assert ks[r, i] == ks_distance(m, law) == oracle.ks_distance(m, law)


def test_moment_rule_is_one_running_product(monkeypatch):
    """m_1 and m_2 are np.mean(x) and np.mean(x * x) bit for bit; m_3..m_8
    lie within 8k eps mean|x|^k of the exact mean of dyadic atoms; and the
    stacked table, in any chunk, is EmpiricalMeasure.moment bit for bit."""
    from fractions import Fraction

    rng = np.random.default_rng(11)
    atoms = np.sort(rng.integers(-(2**20), 2**20, size=(3, 5, 64)) / 2.0**18, axis=-1)
    table = empirical_mod._moment_table(atoms, 8)
    monkeypatch.setattr(empirical_mod, "_CHUNK_ENTRIES", 2 * 64)
    assert np.array_equal(empirical_mod._moment_table(atoms, 8), table)
    eps = np.finfo(float).eps
    for idx in np.ndindex(*atoms.shape[:-1]):
        x, row = atoms[idx], table[idx]
        m = EmpiricalMeasure(x)
        assert [m.moment(k) for k in range(9)] == row.tolist()
        assert row[0] == 1.0 and row[1] == np.mean(x) and row[2] == np.mean(x * x)
        for k in range(3, 9):
            exact = sum(Fraction(v) ** k for v in x.tolist()) / x.size
            assert abs(Fraction(row[k]) - exact) <= 8 * k * eps * float(np.mean(np.abs(x) ** k))


# ---------------------------------------------------------------------------
# processes


def test_from_path_mirrors_spectra():
    spec = FlowSpec(
        n=4,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(4),
        dt=0.01,
        t_grid=(0.0, 0.05),
    )
    path = simulate_path(spec, 5)
    proc = EmpiricalMeasureProcess.from_path(path)
    assert len(proc) == 2
    assert np.array_equal(proc.t_grid, path.t_grid)
    assert proc.spectra.tobytes() == path.spectra.tobytes()
    for measure, row in zip(proc.measures, path.spectra):
        assert np.array_equal(measure.atoms, row)


@pytest.mark.parametrize(
    "t_grid, spectra, message",
    [
        ((0.0, 1.0), np.zeros((3, 2)), "t_grid and measures must align and be nonempty"),
        ((), np.zeros((0, 2)), "t_grid and measures must align and be nonempty"),
        ((0.0, float("nan")), np.zeros((2, 2)), "t_grid entries must be finite"),
        ((0.0, float("inf")), np.zeros((2, 2)), "t_grid entries must be finite"),
        ((0.5, 0.5), np.zeros((2, 2)), "t_grid must be strictly ascending"),
        ((0.0, 1.0), [[0.0, 1.0], [0.0, np.nan]], "empirical measure atoms must be finite"),
        ((0.0, 1.0), [[0.0, 1.0], [-np.inf, 0.0]], "empirical measure atoms must be finite"),
        ((0.0, 1.0), [[0.0, 1.0], [1.0, 0.0]], "each row of spectra must be ascending"),
        ((0.0, 1.0), [0.0, 1.0], "empirical measure needs a nonempty 1-d atom array"),
        ((0.0, 1.0), np.zeros((2, 2, 2)), "empirical measure needs a nonempty 1-d atom array"),
        ((0.0, 1.0), np.zeros((2, 0)), "empirical measure needs a nonempty 1-d atom array"),
    ],
    ids=["misaligned", "empty", "grid_nan", "grid_inf", "grid_flat", "atom_nan", "atom_inf",
         "descending_row", "spectra_1d", "spectra_3d", "no_atoms"],
)
def test_process_constructor_refusals(t_grid, spectra, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        EmpiricalMeasureProcess(t_grid, spectra)


def test_process_fields_are_its_arguments():
    """``(t_grid, spectra)`` are the fields, as float arrays; an ascending
    row with ties is kept as given."""
    proc = EmpiricalMeasureProcess((0.0, 0.5), [[1, 1, 2], [-3, 0, 0]])
    assert proc.t_grid.dtype == float and proc.spectra.dtype == float
    assert proc.t_grid.tolist() == [0.0, 0.5]
    assert proc.spectra.tolist() == [[1.0, 1.0, 2.0], [-3.0, 0.0, 0.0]]
    assert [m.atoms.tolist() for m in proc.measures] == proc.spectra.tolist()


def test_from_law_uses_quantile_atoms():
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 200)
    assert len(proc) == 2
    assert proc.measures[0].n == 200
    assert abs(proc.measures[1].moment(2) - 1.0) <= 5e-3


FROM_LAW_FAMILIES = {
    "semicircle": Semicircle(1.0),
    "semicircle_centered": Semicircle(1.0, center=-0.7),
    "semicircle_beta1": Semicircle(1.0, beta=1),
    "mp_atom": MarchenkoPastur(0.5, 1.0, beta=2),
    "mp": MarchenkoPastur(2.5, 1.0, beta=2),
    "mp_alpha0": MarchenkoPastur(0.0, 1.0, beta=2),
    "mix2": mp_mixture_two(0.5),
    "mix3": mp_mixture_three(1.5, 3.0),
    "point_mass": PointMass(1.3),
    "point_mass_negative_zero": PointMass(-0.0),
    "free_bm": FreeDiffusion("free_bm", -0.5, 1.2),
    "free_ou": FreeDiffusion("free_ou", 0.7, 1.1),
    "free_ou_stable": FreeDiffusion("free_ou", -0.7, 1.1),
}


@pytest.mark.parametrize("law", FROM_LAW_FAMILIES.values(), ids=FROM_LAW_FAMILIES.keys())
@pytest.mark.parametrize("atom_count", [1, 7, 400])
def test_from_law_table_is_the_per_time_quantile_atoms(law, atom_count):
    """The one outer product over the grid gives each time's
    ``law.at(t).quantile_atoms`` row bit for bit, sign of zero included (the
    free BM at t = 0 sits at theta * 0 = -0.0)."""
    grid = (0.0, 1e-9, 0.05, 0.3, 1.0, 2.5)
    table = EmpiricalMeasureProcess.from_law(law, grid, atom_count).spectra
    rows = np.stack([law.at(t).quantile_atoms(atom_count) for t in grid])
    assert np.array_equal(table, rows)
    assert np.array_equal(np.signbit(table), np.signbit(rows))


def test_from_law_builds_no_law_per_time(monkeypatch):
    """The table comes from the family's dilation over the grid: neither
    ``at`` nor ``quantile_atoms`` runs once per time."""
    calls = []

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append((cls.__name__, name))
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (Semicircle, MarchenkoPastur, MPMixture, FreeDiffusion):
        spy(cls, "at")
    spy(_LawBase, "quantile_atoms")
    for law in (Semicircle(1.0), MarchenkoPastur(2.5), mp_mixture_two(0.5)):
        EmpiricalMeasureProcess.from_law(law, np.linspace(0.0, 1.0, 201), 400)
    for kind in ("free_bm", "free_ou"):
        EmpiricalMeasureProcess.from_law(FreeDiffusion(kind, 0.3, 1.0), (0.0, 0.5, 1.0), 50)
    assert calls == []


@pytest.mark.parametrize("grid", [(0.0, -0.5), (0.0, float("nan"))], ids=["negative", "nan"])
def test_from_law_rejects_a_bad_time(grid):
    with pytest.raises(ValidationError, match="t must be finite and >= 0"):
        EmpiricalMeasureProcess.from_law(MarchenkoPastur(2.5), grid, 10)


def test_from_law_of_a_moments_only_law_fails_as_before():
    """A HierarchyLaw has no CDF and so no quantiles: ``from_law`` refuses it
    as the distance statistics do."""
    law = HierarchyLaw((3.0, -6.0), (0.0, 1.0), (1.0, -1.0), beta=2, a=0.5)
    with pytest.raises(UnsupportedLawOperation, match="exposes moments only"):
        EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 10)


@pytest.mark.parametrize(
    "statistic",
    [ks_distance, wasserstein1, lambda m, law: EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 4)],
    ids=["ks", "w1", "from_law"],
)
def test_distance_statistics_admit_only_a_limit_law(statistic):
    """An empirical measure in the law's place is refused by name, not read
    through defaults (KS of a measure with itself once read 0.5); a
    moments-only law keeps its message."""
    m = EmpiricalMeasure([0.0, 1.0])
    with pytest.raises(UnsupportedLawOperation, match="EmpiricalMeasure is no limit law"):
        statistic(m, m)
    law = HierarchyLaw((0.0,), (1.0,), (1.0,), beta=2, a=0.0)
    with pytest.raises(UnsupportedLawOperation, match="HierarchyLaw exposes moments only"):
        statistic(m, law)


@pytest.mark.parametrize("statistic", [ks_distance, wasserstein1], ids=["ks", "w1"])
def test_distance_statistics_refuse_a_family_with_no_time(statistic):
    """A family with a CDF but no time of its own is refused by name, with
    the way to give it one, and is met once given its time or grid."""
    m = EmpiricalMeasure([-0.5, 0.25, 1.0])
    family = FreeDiffusion("free_ou", -1.0, 1.0)
    with pytest.raises(UnsupportedLawOperation, match=r"FreeDiffusion .*\.at\(t\) or \.at_times"):
        statistic(m, family)
    assert statistic(m, family.at(0.5)) == statistic(m.atoms[None, None], family.at_times((0.5,)))


@pytest.mark.parametrize("atom_count", [0, -1, 2.5, "7"])
def test_from_law_rejects_a_bad_atom_count(atom_count):
    with pytest.raises(ValidationError, match="atom_count"):
        EmpiricalMeasureProcess.from_law(Semicircle(1.0), (0.0, 1.0), atom_count)


# ---------------------------------------------------------------------------
# limiting-equation residual


def test_residual_zero_for_frozen_flow():
    spec = FlowSpec(
        n=5,
        g=ZERO,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.linspace(0.0, 1.0, 5),
        dt=0.01,
        t_grid=(0.0, 0.05, 0.1),
    )
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 1))
    res = limit_equation_residual(
        proc, [0.0, 0.0, 1.0], lambda x: 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res == 0.0


def test_residual_zero_for_constant_observable():
    spec = FlowSpec(
        n=6,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(6),
        dt=0.01,
        t_grid=(0.0, 0.1),
    )
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 2))
    res = limit_equation_residual(
        proc, [4.2], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res == 0.0


def test_residual_semicircle_family_second_moment():
    """The quantile-discretized semicircle family solves the limiting
    equation: for f = x^2 the observable is t and the RHS integrates to t."""
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, tuple(np.linspace(0.0, 1.0, 51)), 400)
    res = limit_equation_residual(
        proc, [0.0, 0.0, 1.0], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x,
        lambda x: 0.0 * x, beta=2.0,
    )
    assert res <= 2e-2


def _direct_interaction(lam, coeffs, g2, h2):
    """Reference O(n^2) atom-pair sum (1/n^2) sum_ij dd(lam_i, lam_j) G(lam_i, lam_j).

    The divided difference of f' = sum_j fp_j x^j is assembled as
    sum_j fp_j sum_l x^l y^{j-1-l} from outer products, exact at
    coincident atoms (where it equals f'').
    """
    fp = np.polynomial.polynomial.polyder(coeffs)
    dd = np.zeros((lam.size, lam.size))
    for j in range(1, fp.size):
        for ell in range(j):
            dd += fp[j] * np.outer(lam**ell, lam ** (j - 1 - ell))
    g2v, h2v = g2(lam), h2(lam)
    big_g = np.outer(g2v, h2v) + np.outer(h2v, g2v)
    return float(np.sum(dd * big_g)) / lam.size**2


_KERNEL_CASES = [
    # coincident atoms: the divided difference is f'' on every repeated pair
    (np.repeat([0.1, 0.4, 0.45, 1.3], 25), lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x),
    (np.repeat([0.2, 0.5, 0.9], [40, 1, 19]), lambda x: x, lambda x: 1.0 - x),
    # non-polynomial g^2 = |x| on a spectrum of both signs
    (np.linspace(-0.8, 1.6, 97), np.abs, lambda x: 1.0 + 0.0 * x),
    (np.concatenate([np.full(10, -0.5), np.linspace(0.1, 1.2, 50)]), np.abs, lambda x: 0.3 + x**2),
]


@pytest.mark.parametrize("atoms, g2, h2", _KERNEL_CASES)
def test_interaction_kernel_matches_direct_double_sum(atoms, g2, h2):
    proc = EmpiricalMeasureProcess((0.0,), atoms[None])
    lam = proc.measures[0].atoms
    for k in range(1, 13):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        inter = _limit_terms(proc.spectra, coeffs, g2, h2, lambda x: 0.0 * x)[2, 0]
        assert np.isclose(inter, _direct_interaction(lam, coeffs, g2, h2), rtol=1e-12, atol=0.0), k
    mixed = np.array([0.3, -1.0, 0.5, 2.0, 0.0, -0.25])
    assert np.isclose(
        _limit_terms(proc.spectra, mixed, g2, h2, lambda x: 0.0 * x)[2, 0],
        _direct_interaction(lam, mixed, g2, h2),
        rtol=1e-12,
        atol=0.0,
    )


@pytest.mark.parametrize("atoms, g2, h2", _KERNEL_CASES[2:], ids=["abs", "abs-repeated"])
def test_residual_rows_match_per_row_calls(atoms, g2, h2):
    """A 2-D f gives each row's residual in one pass: mixed degrees, a
    degree-0 row (residual 0) and rows shorter than the widest."""
    grid = np.linspace(0.0, 0.5, 6)
    proc = EmpiricalMeasureProcess(grid, np.stack([atoms * (1.0 + t) + t * t for t in grid]))
    rows = np.array([
        [4.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, -1.0, 0.5, 2.0, 0.0, -0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0],
    ])
    b = lambda x: 0.5 - x  # noqa: E731
    batched = limit_equation_residual(proc, rows, g2, h2, b, beta=1.0)
    assert batched.shape == (rows.shape[0],)
    assert batched[0] == 0.0
    for row, val in zip(rows, batched):
        single = limit_equation_residual(proc, np.trim_zeros(row, "b"), g2, h2, b, beta=1.0)
        assert isinstance(single, float)
        assert abs(val - single) <= 1e-12 * max(1.0, abs(single))
    terms = _limit_terms(proc.spectra, rows, g2, h2, b)
    assert terms.shape == (3, rows.shape[0], grid.size)
    for r, row in enumerate(rows):
        single = _limit_terms(proc.spectra, row, g2, h2, b)
        assert np.allclose(terms[:, r], single, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 25, 100])
def test_limit_terms_equal_the_per_measure_oracle_in_any_chunk(monkeypatch, n):
    """One stacked pass gives each measure's terms bit for bit, whether the
    measures run one, three or all at a time; the np.vander / np.convolve
    oracle, which sums in another order, agrees to 1e-12 relative."""
    rng = np.random.default_rng(40 + n)
    grid = np.linspace(0.0, 0.7, 8)
    atoms = np.sort(np.round(rng.standard_normal((grid.size, n)), 2), axis=-1)
    proc = EmpiricalMeasureProcess(grid, atoms)
    b = lambda x: 0.5 - x  # noqa: E731
    rows = np.eye(7)[1:]
    for coeffs in (rows, np.array([0.3, -1.0, 0.5, 2.0]), np.array([0.0, 1.0]), np.array([4.2])):
        for g2, h2 in [(np.abs, lambda x: 0.3 + x**2), (lambda x: 0.25 + 0.0 * x, ONE)]:
            expected = oracle.limit_terms(proc, coeffs, g2, h2, b)
            vander = oracle.vander_limit_terms(proc, coeffs, g2, h2, b)
            np.testing.assert_allclose(expected, vander, rtol=1e-12, atol=0.0)
            width = max(np.shape(coeffs)[-1], 2)
            for per_chunk in (1, 3, grid.size):
                monkeypatch.setattr(empirical_mod, "_CHUNK_ENTRIES", per_chunk * n * width)
                assert np.array_equal(_limit_terms(proc.spectra, coeffs, g2, h2, b), expected)
            res = limit_equation_residual(proc, coeffs, g2, h2, b, beta=1.0)
            assert np.array_equal(res, oracle.limit_equation_residual(proc, coeffs, g2, h2, b, 1.0))


def test_residual_of_a_path_is_the_residual_of_its_process():
    spec = _dyson_spec(7, "real", t_grid=(0.0, 0.25, 0.5))
    path = simulate_path(spec, 8)
    args = (np.eye(5)[1:], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x)
    proc = EmpiricalMeasureProcess.from_path(path)
    assert np.array_equal(
        limit_equation_residual(path, *args, beta=1.0),
        limit_equation_residual(proc, *args, beta=1.0),
    )


def test_residual_of_an_ensemble_is_each_path_residual(monkeypatch):
    """A list of paths takes one stacked pass, in one chunk or in chunks that
    end inside a path, and gives each path its own call's bits; an empty
    list and paths on different grids are refused."""
    spec = _dyson_spec(7, "real", t_grid=(0.0, 0.25, 0.5))
    paths = simulate_ensemble(spec, 3, 8)
    args = (np.eye(5)[1:], lambda x: 0.25 + 0.0 * x, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x)
    each = np.stack([limit_equation_residual(p, *args, beta=1.0) for p in paths], axis=-1)
    assert np.array_equal(limit_equation_residual(paths, *args, beta=1.0), each)
    monkeypatch.setattr(empirical_mod, "_CHUNK_ENTRIES", 2 * 7 * 5)
    assert np.array_equal(limit_equation_residual(tuple(paths), *args, beta=1.0), each)
    single = limit_equation_residual(paths, args[0][1], *args[1:], beta=1.0)
    assert single.shape == (3,) and np.array_equal(single, each[1])
    other = simulate_path(_dyson_spec(7, "real", t_grid=(0.0, 0.25, 0.75)), 8)
    for bad in ([paths[0], other], []):
        with pytest.raises(ValidationError, match="nonempty and share one time grid"):
            limit_equation_residual(bad, *args, beta=1.0)


def test_residual_rejects_high_degree():
    law = Semicircle(1.0, beta=2)
    proc = EmpiricalMeasureProcess.from_law(law, (0.0, 1.0), 50)
    with pytest.raises(ValidationError):
        limit_equation_residual(
            proc, np.zeros(14), lambda x: x, lambda x: x, lambda x: x, beta=2.0
        )


# ---------------------------------------------------------------------------
# finite-n decomposition


def _dyson_spec(n, field, t_grid=(0.0, 0.5, 1.0)):
    return FlowSpec(
        n=n,
        g=HALF,
        h=ONE,
        b=ZERO,
        initial_spectrum=np.zeros(n),
        field=field,
        dt=1e-3,
        t_grid=t_grid,
    )


def test_limit_terms_call_the_interaction_kernel_once_per_chunk(monkeypatch):
    """Each chunk's measures share one interaction-kernel call on their
    stacked power sums: 8 measures three at a time make 3 calls."""
    calls = []

    def spy(p_g, p_h):
        calls.append(p_g.shape)
        return _interaction_kernel(p_g, p_h)

    monkeypatch.setattr(empirical_mod, "_interaction_kernel", spy)
    monkeypatch.setattr(empirical_mod, "_CHUNK_ENTRIES", 3 * 25 * 5)
    atoms = np.sort(np.random.default_rng(3).standard_normal((8, 25)), axis=-1)
    _limit_terms(atoms, np.eye(5)[1:], np.abs, lambda x: 1.0 + x * x, lambda x: 0.5 - x)
    assert calls == [(3, 3), (3, 3), (2, 3)]


def _decomposition(proc, f, spec):
    """em_sde_decomposition, every array identical to the per-measure oracle's."""
    parts = em_sde_decomposition(proc, f, spec)
    expected = oracle.em_sde_decomposition(proc, f, spec)
    assert set(parts) == set(expected)
    for key, value in parts.items():
        assert np.array_equal(value, expected[key]), key
    return parts


def test_decomposition_identity_and_keys():
    spec = _dyson_spec(10, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 3))
    parts = _decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    assert set(parts) == {"lhs", "drift", "correction", "interaction", "martingale"}
    recon = parts["drift"] + parts["correction"] + parts["interaction"] + parts["martingale"]
    assert np.allclose(parts["lhs"], recon, atol=1e-14)
    assert parts["lhs"][0] == 0.0


def test_decomposition_correction_vanishes_at_beta_two():
    spec = _dyson_spec(8, "complex")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 4))
    parts = _decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    assert np.allclose(parts["correction"], 0.0, atol=1e-16)


def test_decomposition_correction_positive_at_beta_one():
    spec = _dyson_spec(8, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 5))
    parts = _decomposition(proc, [0.0, 0.0, 0.0, 0.0, 1.0], spec)
    # f'' = 12 x^2 and G(x,x) = 1/2 are nonnegative: the correction
    # integral accumulates monotonically and is strictly positive by t = 1
    assert parts["correction"][-1] > 0.0
    assert np.all(np.diff(parts["correction"]) >= -1e-16)


def test_decomposition_constant_observable_all_zero():
    spec = _dyson_spec(6, "real")
    proc = EmpiricalMeasureProcess.from_path(simulate_path(spec, 6))
    parts = _decomposition(proc, [3.0], spec)
    for key in ("lhs", "drift", "correction", "interaction", "martingale"):
        assert np.allclose(parts[key], 0.0, atol=1e-15)


def test_decomposition_martingale_shrinks_in_ensemble_mean():
    """Averaging replicas kills the martingale part (it is mean zero), so
    the ensemble-averaged martingale must be much smaller than a typical
    single-path one."""
    spec = _dyson_spec(16, "real", t_grid=(0.0, 0.25, 0.5, 0.75, 1.0))
    paths = simulate_ensemble(spec, 16, base_seed=90)
    singles = []
    accum = None
    for path in paths:
        proc = EmpiricalMeasureProcess.from_path(path)
        parts = _decomposition(proc, [0.0, 0.0, 1.0], spec)
        singles.append(abs(parts["martingale"][-1]))
        accum = parts["martingale"] if accum is None else accum + parts["martingale"]
    ensemble = abs(accum[-1]) / len(paths)
    assert ensemble <= np.median(singles)
