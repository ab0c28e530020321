"""Zero-constellation densities: Hermite machinery, anisotropic envelopes,
zero preservation under smoothing, and quantization of the reference run."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylgabor import numerics
from weylgabor.numerics import EdgeEnergyWarning, Grid1D, PhaseSpaceGrid
from weylgabor.quantize import BandCoverageWarning
from weylgabor.stellar import (
    MassLeakageWarning,
    StellarParams,
    anisotropic_stellar_weight,
    default_gram_grid,
    gram_diagonal,
    hermite_gram,
    hermite_poly,
    pentagon_params,
    pentagon_zeros,
    quantize_stellar,
    stellar_distribution,
    stellar_experiment,
    stellar_weight,
)

# closed-form diagonal Gram values at s = 0.5, frozen once:
# n = 0 gives pi*sqrt(2), n = 2 gives pi*sqrt(2) * 6^2 * 2!
GRAM0_AT_HALF = 4.442882938158366
GRAM2_AT_HALF = 319.88757154740233


def _quadratic_refine(axis_points, marginal, k):
    denom = marginal[k - 1] - 2.0 * marginal[k] + marginal[k + 1]
    step = axis_points[1] - axis_points[0]
    return axis_points[k] + 0.5 * step * (marginal[k - 1] - marginal[k + 1]) / denom


# ---------------------------------------------------------------------------
# Hermite polynomials and Gram integrals
# ---------------------------------------------------------------------------

def test_hermite_base_cases():
    z = np.array([0.3 + 0.1j, -1.0 + 0.0j, 2.0 - 0.5j])
    np.testing.assert_array_equal(hermite_poly(0, z), np.ones(3, dtype=complex))
    np.testing.assert_array_equal(hermite_poly(1, z), 2.0 * z)


def test_hermite_worked_value():
    assert complex(hermite_poly(2, 1.0 + 1.0j)) == complex(-2.0, 8.0)


def test_hermite_parity():
    z = np.array([0.7 + 0.2j, 1.5 - 1.0j])
    np.testing.assert_array_equal(hermite_poly(3, -z), -hermite_poly(3, z))
    np.testing.assert_array_equal(hermite_poly(4, -z), hermite_poly(4, z))


def test_hermite_order_bounds():
    with pytest.raises(ValueError):
        hermite_poly(31, 0.0)
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)


def test_gram_diagonal_frozen_values():
    assert gram_diagonal(0, 0.5) == pytest.approx(GRAM0_AT_HALF, rel=1e-14)
    assert gram_diagonal(2, 0.5) == pytest.approx(GRAM2_AT_HALF, rel=1e-14)


def test_gram_quadrature_is_diagonal():
    s = 0.5
    grid = default_gram_grid(s)
    for m in range(6):
        for n in range(m, 6):
            value = hermite_gram(m, n, s, grid)
            if m == n:
                target = gram_diagonal(n, s)
                assert abs(value - target) < 1e-6 * target
            else:
                scale = np.sqrt(gram_diagonal(m, s) * gram_diagonal(n, s))
                assert abs(value) < 1e-6 * scale


def test_gram_order_cap():
    with pytest.raises(ValueError):
        hermite_gram(9, 0, 0.5)
    with pytest.raises(ValueError):
        hermite_gram(0, 0, 1.5)


def test_non_integer_orders_are_value_errors():
    with pytest.raises(ValueError, match="integer"):
        hermite_poly(2.5, 0.3 + 0.1j)
    with pytest.raises(ValueError, match="integer"):
        hermite_gram(2.5, 0, 0.5)
    with pytest.raises(ValueError, match="integer"):
        hermite_gram(0, 2.5, 0.5)


def test_integral_float_orders_act_as_integers():
    z = np.array([0.3 + 0.1j, -1.0 + 2.0j])
    np.testing.assert_array_equal(hermite_poly(2.0, z), hermite_poly(2, z))
    assert hermite_gram(2.0, 0, 0.5) == hermite_gram(2, 0, 0.5)


def test_default_gram_rule_is_exact():
    # the 9-node Gauss-Hermite tensor rule integrates H_m conj(H_n) times
    # the envelope exactly for m, n <= 8, even where no grid fits (s near 0, 1)
    for s in (0.05, 0.3, 0.5, 0.945, 0.99):
        for m in range(9):
            for n in range(9):
                scale = np.sqrt(gram_diagonal(m, s) * gram_diagonal(n, s))
                target = gram_diagonal(n, s) if m == n else 0.0
                assert abs(hermite_gram(m, n, s) - target) < 1e-12 * scale, (s, m, n)


def _mesh_gram(m, n, s, grid):
    """The Gram quadrature as the direct sum over the full (omega, b) mesh,
    with the Riemann magnitude sum of the integrand as its error scale."""
    omega_mesh, b_mesh = grid.meshes()
    z = b_mesh + 1j * omega_mesh
    weight = np.exp(-(1.0 - s) * b_mesh ** 2 - (1.0 / s - 1.0) * omega_mesh ** 2)
    integrand = hermite_poly(m, z) * np.conj(hermite_poly(n, z)) * weight
    cell = grid.omega_axis.step * grid.b_axis.step
    return complex(cell * integrand.sum()), cell * float(np.abs(integrand).sum())


AXES = st.builds(Grid1D, st.floats(-8.0, 4.0), st.floats(0.05, 0.6), st.integers(8, 64))


@settings(max_examples=80, deadline=None)
@given(st.floats(0.05, 0.95), AXES, AXES, st.integers(0, 8), st.integers(0, 8))
# subnormal sums: 5e-324+7.4e-323j against the mesh's 4e-323j, of magnitude
# 4e-323, where no relative bound can hold
@example(0.05078125, Grid1D(-7.875, 0.05078125, 32), Grid1D(0.0, 0.5, 8), 0, 1)
def test_grid_gram_equals_the_mesh_sum(s, omega_axis, b_axis, m, n):
    grid = PhaseSpaceGrid(omega_axis=omega_axis, b_axis=b_axis)
    direct, magnitude = _mesh_gram(m, n, s, grid)
    # relative wherever the magnitude is at least about 2e-296
    bound = max(1e-12 * magnitude, np.finfo(float).tiny)
    assert abs(hermite_gram(m, n, s, grid) - direct) <= bound


# ---------------------------------------------------------------------------
# stellar weights
# ---------------------------------------------------------------------------

def test_empty_zero_set_gives_bare_envelope():
    z = np.array([0.4 - 0.2j, -1.0 + 1.0j])
    out = stellar_weight([], 0.5, z)
    target = np.exp(-0.5 * z.real ** 2 - 1.0 * z.imag ** 2)
    np.testing.assert_allclose(out, target, rtol=1e-14)


def test_weight_vanishes_exactly_on_zero_set():
    zeros = [0.5 + 0.5j, -1.0j]
    values = stellar_weight(zeros, 0.7, np.array(zeros))
    np.testing.assert_array_equal(values, np.zeros(2))


def test_weight_shape_parameter_validation():
    with pytest.raises(ValueError, match="s must lie"):
        stellar_weight([0j], 0.0, 0.1 + 0.1j)
    with pytest.raises(ValueError, match="s must lie"):
        stellar_weight([0j], 1.0, 0.1 + 0.1j)


@pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.2])
@pytest.mark.parametrize("consumer", [
    lambda s: StellarParams(s, 1.0, 1.0, PhaseSpaceGrid.square(-4.0, 4.0, 64)),
    lambda s: stellar_weight([0j], s, 0.1 + 0.1j),
    lambda s: gram_diagonal(2, s),
    lambda s: hermite_gram(1, 1, s),
    lambda s: default_gram_grid(s),
], ids=["StellarParams", "stellar_weight", "gram_diagonal", "hermite_gram",
        "default_gram_grid"])
def test_every_s_consumer_rejects_s_outside_the_unit_interval(consumer, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="s must lie"):
            consumer(s)


def test_anisotropic_transpose_identity():
    # swapping the axis rates while mapping zeros z -> 1j*conj(z) transposes
    # the axes of the density
    zeros = np.array([0.3 + 0.4j, -1.2j, 0.9])
    rng = np.random.default_rng(23)
    z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    lhs = anisotropic_stellar_weight(zeros, 0.7, 0.3, 1j * np.conj(z))
    rhs = anisotropic_stellar_weight(1j * np.conj(zeros), 0.3, 0.7, z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_anisotropic_rate_validation():
    with pytest.raises(ValueError):
        anisotropic_stellar_weight([0j], 0.0, 1.0, 0.1j)


# ---------------------------------------------------------------------------
# normalized distributions
# ---------------------------------------------------------------------------

def test_distribution_is_normalized_and_clean_when_grid_fits():
    grid = PhaseSpaceGrid.square(-8.0, 8.0, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MassLeakageWarning)
        density = stellar_distribution([0j], 0.5, grid)
    assert abs(density.distribution.mass - 1.0) < 1e-12
    assert density.normalization > 0.0
    assert density.tail_fraction < 1e-6


def test_pentagon_distribution_reports_leakage():
    params = pentagon_params()
    with pytest.warns(MassLeakageWarning):
        density = stellar_distribution(pentagon_zeros(), params.s, params.grid)
    assert density.tail_fraction > 1e-6


def _whole_grid_density(zeros, s, grid):
    """Reference form of stellar_distribution: the weight on the whole
    complex z grid at once, normalized by its quadrature."""
    values = stellar_weight(zeros, s, grid.b_axis.points + 1j * grid.omega_axis.points[:, None])
    raw_total = float(grid.integrate(values))
    return values / raw_total, raw_total


_OFF_CENTRE_AXES = st.builds(Grid1D, st.floats(-5.0, 1.0), st.floats(0.05, 0.4),
                             st.integers(2, 40))
_CONSTELLATIONS = st.lists(st.complex_numbers(max_magnitude=3.0), max_size=6)


@example(omega_axis=Grid1D(-2.0, 0.25, 17), b_axis=Grid1D(-3.0, 0.25, 23),
         zeros=[0j, 1 + 1j], s=0.6, rows=1, spare=0)  # one-line tiles
@example(omega_axis=Grid1D(-2.0, 0.25, 17), b_axis=Grid1D(-3.0, 0.25, 23),
         zeros=[0.5j], s=0.6, rows=40, spare=0)  # the grid below one tile
@given(omega_axis=_OFF_CENTRE_AXES, b_axis=_OFF_CENTRE_AXES, zeros=_CONSTELLATIONS,
       s=st.floats(0.3, 0.95), rows=st.integers(1, 45), spare=st.integers(0, 47))
def test_tiled_density_is_the_whole_grid_density_bit_for_bit(omega_axis, b_axis, zeros,
                                                             s, rows, spare):
    # tiles of `rows` omega-rows, a budget a few bytes past a whole number
    # of rows, short last tiles and grids smaller than one tile
    grid = PhaseSpaceGrid(omega_axis, b_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        with mock.patch.object(numerics, "_TILE_BYTES", rows * 48 * b_axis.count + spare):
            density = stellar_distribution(zeros, s, grid)
    values, raw_total = _whole_grid_density(zeros, s, grid)
    assert np.array_equal(density.distribution.values, values)
    assert density.normalization == raw_total


def test_weight_of_a_whole_grid_is_its_rows_bit_for_bit():
    # a 160^2 complex grid is past the 256 KiB at which numpy computes a
    # product in its temporary operand's buffer, operands swapped; the
    # weight multiplies in one fixed order, so its bits do not depend on
    # the size of z
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 160)
    z = grid.b_axis.points + 1j * grid.omega_axis.points[:, None]
    whole = stellar_weight(pentagon_zeros(), 0.945, z)
    assert np.array_equal(whole, [stellar_weight(pentagon_zeros(), 0.945, row) for row in z])


def test_density_holds_under_one_and_a_half_grids_with_its_output():
    # the output and one tile of about numerics._TILE_BYTES (measured: 1.29
    # grids at 512^2); the whole complex z grid and its products took 6.0
    n = 512
    grid = PhaseSpaceGrid.square(-4.0, 4.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        stellar_distribution(pentagon_zeros(), 0.945, grid)
        tracemalloc.start()
        try:
            stellar_distribution(pentagon_zeros(), 0.945, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_params_validation():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 64)
    with pytest.raises(ValueError, match="s must lie"):
        StellarParams(1.2, 1.0, 1.0, grid)
    with pytest.raises(ValueError):
        StellarParams(0.5, 0.0, 1.0, grid)


def test_pentagon_reference_configuration():
    zeros = pentagon_zeros()
    assert zeros.shape == (6,)
    assert zeros[0] == 0j
    np.testing.assert_allclose(np.abs(zeros[1:]), 1.0, rtol=1e-14)
    rotated = zeros[1:] * np.exp(2j * np.pi / 5.0)
    dist = np.abs(rotated[:, None] - zeros[None, 1:])
    assert dist.min(axis=1).max() < 1e-12
    params = pentagon_params()
    assert params.s == 0.945
    assert params.probe_a == params.probe_r == 2.0
    assert params.grid.shape == (512, 512)


# ---------------------------------------------------------------------------
# zero preservation under smoothing
# ---------------------------------------------------------------------------

def test_single_zero_survives_smoothing_with_matched_probe():
    params = StellarParams(0.945, 1.0, 1.0, PhaseSpaceGrid.square(-4.0, 4.0, 256))
    cell = params.grid.omega_axis.step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        report, _, _ = stellar_experiment([0j], params, rel_threshold=1.0)
    assert len(report["w_minima"]) == 1
    assert len(report["portrait_minima"]) == 1
    w_om, w_b, w_val = report["w_minima"][0]
    p_om, p_b, p_val = report["portrait_minima"][0]
    assert abs(w_om) <= cell and abs(w_b) <= cell
    assert abs(p_om) <= cell and abs(p_b) <= cell
    assert w_val < 1e-6
    # smoothing fills the zero in; the portrait dips but does not vanish
    assert p_val > 1e-3


def test_delta_proxy_time_marginal_keeps_the_zero_centered():
    # with near-delta probes the portrait's b-marginal is the 1-D smoothing
    # of the density's b-marginal, so its interior minimum stays at b = 0
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        warnings.simplefilter("ignore", MassLeakageWarning)
        density = stellar_distribution([0j], 0.5, grid)
        from weylgabor.quantize import portrait
        smoothed = portrait(density.distribution, 0.05, 0.05)
    b_axis = grid.b_axis.points
    window = np.flatnonzero(np.abs(b_axis) < 1.0)
    for values in (density.distribution.values, smoothed.values):
        marginal = values.sum(axis=0)
        k = int(window[np.argmin(marginal[window])])
        # the dip between the two humps is a genuine local minimum
        assert marginal[k] < marginal[k - 1] and marginal[k] < marginal[k + 1]
        refined = _quadratic_refine(b_axis, marginal, k)
        assert abs(refined) < 0.02


def test_pentagon_experiment_report():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        report, _, _ = stellar_experiment(pentagon_zeros(), pentagon_params(),
                                          symmetry_fold=5)
    # the raw density keeps all six zeros, pinned to machine accuracy
    assert len(report["w_minima"]) == 6
    assert report["w_match"]["matched"] == 6
    assert report["w_match"]["max_displacement"] < 0.25
    assert report["w_symmetry_residual"] < 0.1
    # the reference grid truncates the envelope, and the wide probes push
    # visible portrait mass off-grid; the smoothed side keeps at most a
    # central dimple rather than six resolved minima
    assert report["tail_fraction"] > 1e-6
    assert report["portrait_mass"] < 0.99
    assert len(report["portrait_minima"]) < 6
    for om, b, _ in report["portrait_minima"]:
        assert abs(b + 1j * om) <= 0.35


def test_experiment_symmetry_fold_validation():
    params = StellarParams(0.5, 1.0, 1.0, PhaseSpaceGrid.square(-8.0, 8.0, 64))
    with pytest.raises(ValueError):
        stellar_experiment([0j], params, symmetry_fold=1)


def test_symmetry_fold_is_checked_before_any_work():
    # the pentagon on this grid leaks mass; a fold check made after the
    # density is built would meet MassLeakageWarning first
    params = StellarParams(0.945, 2.0, 2.0, PhaseSpaceGrid.square(-4.0, 4.0, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="symmetry fold"):
            stellar_experiment(pentagon_zeros(), params, symmetry_fold=1)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, float("nan")])
def test_match_cutoff_is_checked_before_any_work(cutoff):
    # as above: a check made after the density would meet MassLeakageWarning
    params = StellarParams(0.945, 2.0, 2.0, PhaseSpaceGrid.square(-4.0, 4.0, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="match cutoff"):
            stellar_experiment(pentagon_zeros(), params, match_cutoff=cutoff)


# ---------------------------------------------------------------------------
# quantization of stellar densities
# ---------------------------------------------------------------------------

def test_quantize_single_zero_density():
    params = StellarParams(0.5, 1.0, 1.0, PhaseSpaceGrid.square(-8.0, 8.0, 128))
    kernel, diag = quantize_stellar([0j], params, Grid1D.regular(-20.0, 20.0, 256))
    assert kernel.entries.shape == (256, 256)
    assert abs(diag["trace"] - 1.0) < 1e-9
    assert diag["hermiticity_defect"] == 0.0
    assert diag["min_eigenvalue"] >= -1e-6
    assert diag["purity"] < 1.0


def test_quantize_pentagon_density():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        warnings.simplefilter("ignore", BandCoverageWarning)
        kernel, diag = quantize_stellar(pentagon_zeros(), pentagon_params(),
                                        Grid1D.regular(-20.0, 20.0, 256))
    assert abs(diag["trace"] - 1.0) < 1e-4
    assert diag["hermiticity_defect"] == 0.0
    assert diag["min_eigenvalue"] >= -1e-6
    assert diag["purity"] < 1.0
