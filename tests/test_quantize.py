"""Quantization of phase-space densities: overlap kernels, smoothed
portraits, projector smearing, and the operator-valued weight sum."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylgabor import numerics, quantize
from weylgabor.gabor import SampledSignal, displace, gaussian_probe
from weylgabor.numerics import (
    EdgeEnergyWarning,
    Grid1D,
    PhaseSpaceGrid,
    batch_fractional_shift,
    grid_convolve,
)
from weylgabor.quantize import (
    _SQRT_2PI,
    BandCoverageWarning,
    Distribution,
    OperatorKernel,
    density_diagnostics,
    gaussian_distribution,
    kernel_diagnostics,
    overlap_kernel,
    overlap_kernel_quadrature,
    point_mass_distribution,
    portrait,
    positivity_certificate,
    quantize_to_kernel,
    weyl_operator_from_weight,
)

TF_GRID = PhaseSpaceGrid.square(-8.0, 8.0, 128)
TIME_GRID = Grid1D.regular(-10.0, 10.0, 256)


def _overlap_formula(a, r, omega, b):
    return (2.0 * np.sqrt(r * a) / (r + a)
            * np.exp(-(r * a / (r + a)) * omega ** 2 - b ** 2 / (r + a)))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_distribution_rejects_negative_values():
    values = np.ones(TF_GRID.shape)
    values[3, 4] = -1.0
    with pytest.raises(ValueError):
        Distribution(TF_GRID, values)


def _checked_by_magnitudes(grid, values):
    """Reference form of the Distribution checks: a finiteness mask and
    |values| of the whole grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError("values must match the grid shape")
    if not np.all(np.isfinite(values)):
        raise ValueError("distribution values must be finite")
    peak = np.abs(values).max()
    if peak > 0 and values.min() < -1e-9 * peak:
        raise ValueError("distribution values must be non-negative")


def _check_message(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


_SMALL_GRID = PhaseSpaceGrid(Grid1D(-1.0, 0.5, 3), Grid1D(-1.0, 0.5, 4))


@pytest.mark.parametrize("entry", [1.0, 0.0, -0.0, -1e-10, -2e-9, -1.0, 5e-324, -5e-324,
                                   np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rest", [0.0, -0.0, 1.0, -1.0])
def test_distribution_checks_equal_their_whole_grid_forms(entry, rest):
    # the same refusal, message for message, from min and max alone
    values = np.full(_SMALL_GRID.shape, rest)
    values[1, 2] = entry
    message = _check_message(_checked_by_magnitudes, _SMALL_GRID, values)
    assert _check_message(Distribution, _SMALL_GRID, values) == message
    assert _check_message(Distribution, _SMALL_GRID, values[:, :3]) == (
        "values must match the grid shape")


def test_distribution_normalization():
    d = Distribution(TF_GRID, np.ones(TF_GRID.shape)).normalized()
    assert abs(d.mass - 1.0) < 1e-12
    with pytest.raises(ValueError):
        Distribution(TF_GRID, np.zeros(TF_GRID.shape)).normalized()


def test_normalization_refuses_an_infinite_mass():
    # a 1e300-wide step makes the cell measure, and so any mass, inf; the
    # grid refuses it before a density could be normalized by it
    with pytest.raises(ValueError, match="cell measure .* is inf, not finite"):
        PhaseSpaceGrid.square(-16.0, 1e300, 16)


def test_quantization_refuses_a_nan_mass():
    # zero values on a grid of infinite cell measure would have mass inf * 0,
    # a nan; the grid refuses the cell measure first, with no warning
    with pytest.raises(ValueError, match="cell measure .* is inf, not finite"):
        PhaseSpaceGrid.square(-1e300, 1e300, 16)


def test_distribution_shape_check():
    with pytest.raises(ValueError):
        Distribution(TF_GRID, np.ones(17))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_rejects_nonfinite_values(bad):
    values = np.ones(TF_GRID.shape)
    values[3, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        Distribution(TF_GRID, values)


def test_point_mass_has_unit_mass_on_one_cell():
    d = point_mass_distribution(TF_GRID, 1.5, -0.5)
    assert abs(d.mass - 1.0) < 1e-12
    assert np.count_nonzero(d.values) == 1


def test_point_mass_outside_grid():
    with pytest.raises(ValueError):
        point_mass_distribution(TF_GRID, 9.0, 0.0)


def test_gaussian_distribution_mass_and_validation():
    d = gaussian_distribution(TF_GRID, 1.0, 1.5)
    assert abs(d.mass - 1.0) < 1e-6
    with pytest.raises(ValueError):
        gaussian_distribution(TF_GRID, 0.0, 1.0)


# ---------------------------------------------------------------------------
# two-probe overlap density
# ---------------------------------------------------------------------------

def test_overlap_equal_widths_is_standard_gaussian():
    k = overlap_kernel(1.0, 1.0, TF_GRID)
    omega, b = TF_GRID.meshes()
    np.testing.assert_allclose(k.values, np.exp(-(omega ** 2 + b ** 2) / 2.0),
                               rtol=1e-14)


@pytest.mark.parametrize("a,r", [(5.0, 0.2), (2.0, 2.0), (5.0, 10.0)])
def test_overlap_is_its_closed_form_on_the_whole_grid(a, r):
    # the exponent reaches -213 in the corners, where its last-bit rounding
    # moves exp by ~4e-14 relative: the tails are held to 1e-14 of the peak
    k = overlap_kernel(a, r, TF_GRID)
    omega, b = TF_GRID.meshes()
    target = _overlap_formula(a, r, omega, b)
    np.testing.assert_allclose(k.values, target, rtol=1e-14, atol=1e-14 * target.max())


@pytest.mark.parametrize("a,r", [(1.0, 1.0), (5.0, 0.2), (2.0, 2.0), (5.0, 10.0)])
def test_overlap_unit_mass(a, r):
    grid = PhaseSpaceGrid.square(-16.0, 16.0, 256)
    assert abs(overlap_kernel(a, r, grid).mass - 1.0) < 1e-8


def test_overlap_point_symmetry():
    v = overlap_kernel(5.0, 0.2, TF_GRID).values
    core = v[1:, 1:]
    np.testing.assert_array_equal(core, core[::-1, ::-1])


@pytest.mark.parametrize("a,r", [(1.0, 1.0), (5.0, 0.2), (2.0, 2.0), (5.0, 10.0)])
def test_overlap_matches_quadrature(a, r):
    grid = Grid1D.regular(-40.0, 40.0, 2048)
    psi_a = gaussian_probe(grid, a)
    psi_r = gaussian_probe(grid, r)
    for omega, b in [(0.0, 0.0), (0.5, 0.3), (1.0, -1.0), (2.0, 0.7)]:
        quad = overlap_kernel_quadrature(psi_a, psi_r, omega, b)
        assert abs(quad - _overlap_formula(a, r, omega, b)) < 1e-8


def test_overlap_quadrature_at_origin_equal_probes():
    grid = Grid1D.regular(-40.0, 40.0, 2048)
    p = gaussian_probe(grid, 3.0)
    assert abs(overlap_kernel_quadrature(p, p, 0.0, 0.0) - 1.0) < 1e-12


def test_overlap_decays_at_far_corners():
    v = overlap_kernel(1.0, 1.0, TF_GRID).values
    assert v[1, 1] < 1e-12
    assert v[-1, -1] < 1e-12


def test_overlap_rejects_bad_widths():
    with pytest.raises(ValueError):
        overlap_kernel(0.0, 1.0, TF_GRID)
    with pytest.raises(ValueError):
        overlap_kernel(1.0, -2.0, TF_GRID)
    w = gaussian_distribution(TF_GRID).normalized()
    for call in (lambda: overlap_kernel(1e-310, 1.0, TF_GRID),
                 lambda: portrait(w, 1.0, 1e-310)):
        with pytest.raises(ValueError, match="^probe widths are too small"):
            call()


@pytest.mark.parametrize("a,r,line", [(1e300, 1e300, "omega"),
                                      (1e308, 1e308, "omega"),
                                      (1e-300, 1e-300, "b"),
                                      (1e300, 1e-300, None)])
def test_overlap_of_extreme_widths_is_its_finite_limit(a, r, line):
    # r*a and 2*r*a overflow or underflow here, but 0.5/a + 0.5/r and
    # 0.5*a + 0.5*r do not: when one factor is far narrower than a cell,
    # its origin line keeps the unit-mass prefactor 2*sqrt(r*a)/(r+a) = 1;
    # widths 1e300 and 1e-300 make both factors wide, at the prefactor 2e-300.
    # At 1e308, 2*sigma_b^2 and x^2/(2*sigma_omega^2) overflow, and their
    # limits 1 and 0 come without a warning (the suite makes warnings errors)
    values = overlap_kernel(a, r, TF_GRID).values
    assert np.isfinite(values).all()
    s = TF_GRID.omega_axis.origin_index()
    expected = np.zeros(TF_GRID.shape)
    if line == "omega":
        expected[s, :] = 1.0
    elif line == "b":
        expected[:, s] = 1.0
    else:
        expected[:] = 2e-300
    np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# smoothed portrait
# ---------------------------------------------------------------------------

def test_portrait_of_point_mass_recenters_overlap():
    w = point_mass_distribution(TF_GRID, 1.5, -0.5)
    p = portrait(w, 1.0, 1.0)
    omega, b = TF_GRID.meshes()
    target = np.exp(-0.5 * (omega - 1.5) ** 2 - 0.5 * (b + 0.5) ** 2)
    assert np.abs(p.values - target).max() < 1e-12 * target.max()


def test_portrait_adds_gaussian_variances():
    grid = PhaseSpaceGrid.square(-12.0, 12.0, 192)
    p = portrait(gaussian_distribution(grid, 1.0, 1.5), 1.0, 1.0)
    omega, b = grid.meshes()
    var_omega, var_b = 2.0, 1.5 ** 2 + 1.0
    target = (np.exp(-omega ** 2 / (2.0 * var_omega) - b ** 2 / (2.0 * var_b))
              / np.sqrt(var_omega * var_b))
    assert np.abs(p.values - target).max() < 1e-12 * target.max()
    assert abs(p.mass - 1.0) < 1e-9


@pytest.mark.parametrize("a,r", [(1.0, 1.0), (1.3, 0.7), (2.0, 2.0)])
def test_lower_symbol_of_the_quantized_density_is_its_portrait(a, r):
    # <phi|rho_w|phi> for rho_w quantized with the width-a probe and phi the
    # width-r probe displaced to (omega, b) is portrait(w, a, r) there
    grid = PhaseSpaceGrid.square(-10.0, 10.0, 120)
    time_grid = Grid1D.regular(-12.0, 12.0, 256)
    w = gaussian_distribution(grid, 0.9, 1.1, center=(0.6, -0.4))
    kernel = quantize_to_kernel(w, gaussian_probe(time_grid, a))
    probe = gaussian_probe(time_grid, r)
    nodes = np.arange(36, 85, 4)  # |omega|, |b| <= 4
    states = np.array([displace(omega, b, probe).values
                       for omega in grid.omega_axis.points[nodes]
                       for b in grid.b_axis.points[nodes]])
    symbol = time_grid.step ** 2 * np.sum(states.conj() * (states @ kernel.entries.T), axis=1)
    smoothed = portrait(w, a, r).values
    gap = np.abs(symbol - smoothed[np.ix_(nodes, nodes)].ravel()).max()
    assert gap < 1e-10 * smoothed.max()


_ORACLE_CASES = {
    "centred-square": (PhaseSpaceGrid.square(-8.0, 8.0, 96), (2.0, 2.0)),
    "non-square": (PhaseSpaceGrid(Grid1D.regular(-6.0, 6.0, 60),
                                  Grid1D.regular(-9.0, 7.0, 80)), (2.0, 2.0)),
    # the origin at index 0 and at n - 1: the wrap-free length is 2n - 1
    "origin-first": (PhaseSpaceGrid(Grid1D(0.0, 0.25, 40),
                                    Grid1D(-9.75, 0.25, 40)), (1.0, 1.0)),
    "origin-last": (PhaseSpaceGrid(Grid1D(-7.0, 0.25, 29),
                                   Grid1D(0.0, 0.3, 33)), (1.0, 1.0)),
    "unequal-widths": (PhaseSpaceGrid.square(-8.0, 8.0, 96), (1.3, 0.7)),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_portrait_is_grid_convolve_with_the_overlap_kernel(case):
    grid, (a, r) = _ORACLE_CASES[case]
    w = gaussian_distribution(grid, 1.1, 1.4, center=(0.4, -0.3)).normalized()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        smoothed = portrait(w, a, r).values
        oracle = grid_convolve(w.values, overlap_kernel(a, r, grid).values, grid)
    assert np.abs(smoothed - np.maximum(oracle, 0.0)).max() < 1e-13 * oracle.max()


def _edge_ratios(caught) -> list:
    assert all(issubclass(c.category, EdgeEnergyWarning) for c in caught)
    return [re.search(r"reach (\S+) of the peak", str(c.message)).group(1)
            for c in caught]


@pytest.mark.parametrize("a,r", [(1.0, 1.0), (40.0, 40.0)])
def test_portrait_warns_about_hot_edges_as_its_oracle(a, r):
    # a density cut off at the grid edge; at widths 40 the overlap kernel
    # is hot along b as well
    grid = PhaseSpaceGrid.square(-8.0, 8.0, 64)
    w = gaussian_distribution(grid, 3.0, 3.0).normalized()
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        portrait(w, a, r)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        grid_convolve(w.values, overlap_kernel(a, r, grid).values, grid)
    assert len(got) == len(want) == (2 if a > 1.0 else 1)
    assert _edge_ratios(got) == _edge_ratios(want)
    assert [str(c.message).split(":")[0] for c in got] == [
        "portrait (density)", "portrait (overlap kernel)"][:len(got)]


def test_portrait_builds_no_kernel_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the portrait builds no n^2 kernel")

    w = gaussian_distribution(TF_GRID, center=(0.5, -1.0)).normalized()
    expected = quantize.portrait(w, 1.0, 1.0).values
    monkeypatch.setattr(numerics, "grid_convolve", refuse)
    monkeypatch.setattr(quantize, "grid_convolve", refuse, raising=False)
    monkeypatch.setattr(quantize, "overlap_kernel", refuse)
    np.testing.assert_array_equal(quantize.portrait(w, 1.0, 1.0).values, expected)


def test_portrait_holds_under_one_and_a_half_grids_beside_its_input():
    # the result and one tile of padded lines (measured: 1.26 grids); two
    # whole padded blocks and a |values| copy took 3.01 grids, and the
    # 2-D FFT with the n^2 kernel 7.8
    n = 512
    w = gaussian_distribution(PhaseSpaceGrid.square(-10.0, 10.0, n)).normalized()
    portrait(w, 2.0, 2.0)
    tracemalloc.start()
    try:
        portrait(w, 2.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_portrait_requires_unit_mass():
    w = Distribution(TF_GRID, 2.0 * gaussian_distribution(TF_GRID).values)
    with pytest.raises(ValueError):
        portrait(w, 1.0, 1.0)


# ---------------------------------------------------------------------------
# projector smearing
# ---------------------------------------------------------------------------

def test_density_diagnostics_equal_the_plain_formulas(monkeypatch):
    # k^dagger in tiles of rows gives the same four numbers, bit for bit, as
    # the formulas written out, on a kernel that is not Hermitian and on
    # one that is exactly: in one tile, and in nine tiles of 5 rows and one
    # of 3
    rng = np.random.default_rng(9)
    k = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
    grid = Grid1D.regular(-3.0, 3.0, 48)
    dt = grid.step
    matrix = dt * k
    expected = {
        "trace": float(np.real(np.trace(matrix))),
        "hermiticity_defect": float(np.abs(k - k.conj().T).max()),
        "min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T)).min()),
        "purity": float(dt ** 2 * np.sum(np.abs(k) ** 2)),
    }
    # an exactly Hermitian kernel is its own symmetrized part: its smallest
    # eigenvalue is dt times that of k itself
    h = k + k.conj().T
    expected_hermitian = {
        "trace": float(np.real(np.trace(dt * h))),
        "hermiticity_defect": 0.0,
        "min_eigenvalue": float(dt * np.linalg.eigvalsh(h).min()),
        "purity": float(dt ** 2 * np.sum(np.abs(h) ** 2)),
    }
    kernel, hermitian = OperatorKernel(grid, k), OperatorKernel(grid, h)
    shared = [{key: value for key, value in report.items() if key != "min_eigenvalue"}
              for report in (expected, expected_hermitian)]
    for _ in range(2):
        assert density_diagnostics(kernel) == expected
        assert density_diagnostics(hermitian) == expected_hermitian
        assert [kernel_diagnostics(kernel), kernel_diagnostics(hermitian)] == shared
        monkeypatch.setattr(numerics, "_TILE_BYTES", 40 * 48 * 5)


@pytest.mark.parametrize("sigmas,name", [
    ((1e-200, 1.0), "sigma_omega is too small"),
    ((1.0, 1e-200), "sigma_b is too small"),
    ((1e-155, 1e-155), r"sigma_omega \* sigma_b is too small"),
], ids=["omega", "b", "product"])
def test_gaussian_distribution_names_a_width_too_small_to_square(sigmas, name):
    # the suite turns warnings into errors: no divide-by-zero or overflow
    # warning may come first
    with pytest.raises(ValueError, match="^" + name):
        gaussian_distribution(TF_GRID, *sigmas)


def test_gaussian_distribution_takes_the_limit_of_a_width_too_large_to_square():
    # 2*sigma_b**2 overflows to inf: the b-factor is exp(-b^2/inf) = 1, with
    # no OverflowError and, under the suite's warnings-as-errors, no warning
    w = gaussian_distribution(TF_GRID, 1.0, 1e200)
    along_omega = np.exp(-TF_GRID.omega_axis.points ** 2 / 2.0)
    expected = np.repeat(along_omega[:, None] / 1e200, TF_GRID.shape[1], axis=1)
    assert np.array_equal(w.values, expected)


def test_quantize_to_kernel_makes_a_chirp_z_call_per_lag_tile(monkeypatch):
    # the lag transform of w is one chirp-z transform over omega, and each
    # tile of lags makes one more, over b onto the 2*n_t - 1 frequencies
    # mu_m; tiles of 4 lags keep the work so small that a dense Fourier
    # table over either axis, of 8 tiles or more, would show in the peak
    calls, original = [], quantize.chirp_z

    def counted(values, nodes, comb, sign=-1, axis=-1):
        calls.append((values.shape, nodes, comb[2], sign, axis))
        return original(values, nodes, comb, sign=sign, axis=axis)

    monkeypatch.setattr(quantize, "chirp_z", counted)
    w = gaussian_distribution(TF_GRID, center=(0.5, -0.4)).normalized()
    n_b = TF_GRID.shape[1]
    for n_t in (48, 96):
        tgrid = Grid1D.regular(-8.0, 8.0, n_t)
        probe = gaussian_probe(tgrid, 1.0)
        # a lag's product row and its mu-comb row, 2*n_t complex each
        monkeypatch.setattr(numerics, "_TILE_BYTES", 4 * 64 * n_t)
        calls.clear()
        quantize_to_kernel(w, probe)
        assert calls == (
            [(TF_GRID.shape, TF_GRID.omega_axis.comb, n_t, 1, 0)]
            + [((min(4, n_t - l0), n_b), TF_GRID.b_axis.comb, 2 * n_t - 1, -1, -1)
               for l0 in range(0, n_t, 4)])
        tracemalloc.start()
        try:
            quantize_to_kernel(w, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the kernel and conj w_p (measured: 4.5 tiles)
        assert peak < (n_t * n_t + n_t * n_b) * 16 + 6 * numerics._TILE_BYTES


def test_quantized_density_diagnostics():
    w = overlap_kernel(1.0, 1.0, TF_GRID).normalized()
    kernel = quantize_to_kernel(w, gaussian_probe(TIME_GRID, 1.0))
    diag = density_diagnostics(kernel)
    assert abs(diag["trace"] - 1.0) < 1e-9
    assert diag["hermiticity_defect"] == 0.0
    assert diag["min_eigenvalue"] >= -1e-8
    assert 0.0 < diag["purity"] <= 1.0 + 1e-12


def test_point_mass_quantizes_to_displaced_projector():
    w = point_mass_distribution(TF_GRID, 2.0, 1.0)
    kernel = quantize_to_kernel(w, gaussian_probe(TIME_GRID, 1.0))
    psi = displace(2.0, 1.0, gaussian_probe(TIME_GRID, 1.0)).values
    target = np.outer(psi, np.conj(psi))
    rel = np.linalg.norm(kernel.entries - target) / np.linalg.norm(target)
    assert rel < 1e-10


def test_quantize_input_validation():
    w = Distribution(TF_GRID, 2.0 * gaussian_distribution(TF_GRID).values)
    probe = gaussian_probe(TIME_GRID, 1.0)
    with pytest.raises(ValueError):
        quantize_to_kernel(w, probe)
    bad_probe = SampledSignal(TIME_GRID, 2.0 * probe.values)
    with pytest.raises(ValueError):
        quantize_to_kernel(gaussian_distribution(TF_GRID), bad_probe)


def test_quantize_translation_covariance():
    # quantizing the translated density equals conjugating the kernel by the
    # displacement operator; the sandwich is applied column- then row-wise
    probe = gaussian_probe(TIME_GRID, 1.0)
    base = quantize_to_kernel(gaussian_distribution(TF_GRID), probe).entries
    moved = quantize_to_kernel(
        gaussian_distribution(TF_GRID, center=(1.0, 1.0)), probe).entries
    n = TIME_GRID.count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        half = np.column_stack(
            [displace(1.0, 1.0, SampledSignal(TIME_GRID, base[:, j])).values
             for j in range(n)])
        full = np.column_stack(
            [displace(1.0, 1.0, SampledSignal(TIME_GRID, half[i, :].conj())).values
             for i in range(n)]).conj().T
    rel = np.linalg.norm(moved - full) / np.linalg.norm(moved)
    assert rel < 1e-8


def test_quantize_warns_on_band_edge_weight():
    values = gaussian_distribution(TF_GRID, center=(7.5, 0.0)).values
    w = Distribution(TF_GRID, values).normalized()
    with pytest.warns(BandCoverageWarning):
        quantize_to_kernel(w, gaussian_probe(TIME_GRID, 1.0))


# ---------------------------------------------------------------------------
# operator-valued weight sum
# ---------------------------------------------------------------------------

def test_weyl_point_mass_at_origin_is_identity():
    w = point_mass_distribution(TF_GRID, 0.0, 0.0).values
    op = weyl_operator_from_weight(w, TF_GRID, TIME_GRID)
    scaled = op.entries * TIME_GRID.step
    assert np.abs(scaled - np.eye(TIME_GRID.count)).max() < 1e-12


def test_weyl_even_real_weight_is_hermitian():
    w = overlap_kernel(2.0, 0.5, TF_GRID).values.copy()
    w[0, :] = 0.0
    w[:, 0] = 0.0
    op = weyl_operator_from_weight(w, TF_GRID, TIME_GRID)
    assert np.abs(op.entries - op.entries.conj().T).max() < 1e-10


def _weyl_by_cell_sum(w, grid, tgrid):
    """The weight sum written out cell by cell, with dense pair phases and
    circulant shift rows."""
    t = tgrid.points
    n = tgrid.count
    nu = 2.0 * np.pi * np.fft.fftfreq(n, d=tgrid.step)
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    circ = lag % n
    wrapped = 2 * np.abs(lag) >= n
    slow = np.zeros((n, n), dtype=complex)
    for i, omega in enumerate(grid.omega_axis.points):
        pair = np.exp(0.5j * omega * (t[:, None] + t[None, :]))
        # wrapped pairs: the mean over the two periodic images of the midpoint
        pair[wrapped] *= np.cos(0.5 * omega * n * tgrid.step)
        for j, b in enumerate(grid.b_axis.points):
            if w[i, j] == 0:
                continue
            row = np.fft.ifft(np.exp(-1j * b * nu))
            slow += grid.cell_measure * w[i, j] * pair * row[circ]
    return slow / tgrid.step


def test_weyl_matches_direct_cell_sum():
    # an odd n_t splits the shift columns between the two row parities
    # differently from an even one
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 16)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    w[[0, -1], :] = 0.0
    w[:, [0, -1]] = 0.0
    for n_t in (32, 31):
        tgrid = Grid1D.regular(-5.0, 5.0, n_t)
        fast = weyl_operator_from_weight(w, grid, tgrid).entries
        slow = _weyl_by_cell_sum(w, grid, tgrid)
        assert np.abs(fast - slow).max() < 1e-12 * np.abs(slow).max(), n_t


@pytest.mark.parametrize("n_t", [127, 128])
def test_weyl_ambiguity_weight_gives_the_projector(n_t):
    # The ambiguity function of a Gaussian probe, exp(-b^2/(4a) - a*omega^2/4),
    # sums to the pure projector |psi><psi|, wrapped corners included.
    grid = PhaseSpaceGrid.square(-8.0, 8.0, 128)
    omega, b = grid.meshes()
    a = 1.3
    w = np.exp(-b ** 2 / (4.0 * a) - a * omega ** 2 / 4.0)
    op = weyl_operator_from_weight(w, grid, Grid1D.regular(-10.0, 10.0, n_t))
    diag = density_diagnostics(op)
    assert diag["min_eigenvalue"] >= -1e-5
    assert abs(diag["purity"] - 1.0) < 1e-5


def test_weyl_sum_holds_under_five_kernels():
    # beside the kernel the work holds the midpoint amplitudes (1.5 kernels
    # here), one row parity's product (0.75), and the shift rows and the
    # columns that parity reads (0.75) (measured: 4.03 kernels); a complex
    # copy of the real weight took 4.26, and the whole product and its four
    # n_t^2 index arrays 8.44
    n_t, n_tf = 256, 128
    grid = PhaseSpaceGrid.square(-8.0, 8.0, n_tf)
    omega, b = grid.meshes()
    w = np.exp(-b ** 2 / 5.2 - 1.3 * omega ** 2 / 4.0)
    tgrid = Grid1D.regular(-10.0, 10.0, n_t)
    weyl_operator_from_weight(w, grid, tgrid)
    tracemalloc.start()
    try:
        weyl_operator_from_weight(w, grid, tgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.15 * n_t * n_t * 16


def test_weyl_is_linear_in_the_weight():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 16)
    tgrid = Grid1D.regular(-5.0, 5.0, 32)
    rng = np.random.default_rng(2)
    w1 = rng.standard_normal(grid.shape)
    w2 = rng.standard_normal(grid.shape)
    w1[[0, -1], :] = 0.0
    w1[:, [0, -1]] = 0.0
    w2[[0, -1], :] = 0.0
    w2[:, [0, -1]] = 0.0
    combined = weyl_operator_from_weight(w1 + 2j * w2, grid, tgrid).entries
    separate = (weyl_operator_from_weight(w1, grid, tgrid).entries
                + 2j * weyl_operator_from_weight(w2, grid, tgrid).entries)
    assert np.abs(combined - separate).max() < 1e-12


def test_weyl_weight_validation():
    with pytest.raises(ValueError):
        weyl_operator_from_weight(np.ones((3, 3)), TF_GRID, TIME_GRID)
    bad = np.zeros(TF_GRID.shape)
    bad[5, 5] = np.inf
    with pytest.raises(ValueError):
        weyl_operator_from_weight(bad, TF_GRID, TIME_GRID)


def test_weyl_warns_on_hot_band_edge():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 16)
    tgrid = Grid1D.regular(-5.0, 5.0, 32)
    with pytest.warns(BandCoverageWarning):
        weyl_operator_from_weight(np.ones(grid.shape), grid, tgrid)


# ---------------------------------------------------------------------------
# properties at small sizes
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=25)
@given(SEEDS, st.sampled_from([8, 12, 16]), st.sampled_from([16, 24, 33]))
def test_weyl_conjugate_symmetric_weight_gives_hermitian_kernel(seed, n_tf, n_t):
    # Dropping index 0 leaves a lattice symmetric about the origin, on which
    # w(-omega, -b) = conj w(omega, b) makes the operator self-adjoint.
    grid = PhaseSpaceGrid.square(-4.0, 4.0, n_tf)
    tgrid = Grid1D.regular(-6.0, 6.0, n_t)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_tf - 1,) * 2) + 1j * rng.standard_normal((n_tf - 1,) * 2)
    w = np.zeros(grid.shape, dtype=complex)
    w[1:, 1:] = z + np.conj(z[::-1, ::-1])
    w[[1, -1], :] = 0.0
    k = weyl_operator_from_weight(w, grid, tgrid).entries
    assert np.abs(k - k.conj().T).max() <= 1e-10 * np.abs(k).max()


@settings(max_examples=25)
@given(SEEDS, st.sampled_from([8, 12, 16]), st.sampled_from([32, 48, 64]))
def test_quantized_random_density_has_unit_trace_and_is_positive(seed, n_tf, n_t):
    grid = PhaseSpaceGrid.square(-4.0, 4.0, n_tf)
    tgrid = Grid1D.regular(-10.0, 10.0, n_t)
    values = np.random.default_rng(seed).random(grid.shape)
    values[[0, -1], :] = 0.0
    w = Distribution(grid, values).normalized()
    diag = density_diagnostics(quantize_to_kernel(w, gaussian_probe(tgrid, 1.0)))
    assert abs(diag["trace"] - 1.0) <= 1e-10
    assert diag["min_eigenvalue"] >= -1e-10


def _hermite_functions(t, count):
    """h_0..h_{count-1} at the points t, as columns, by the three-term
    recurrence h_{k+1} = sqrt(2/(k+1)) t h_k - sqrt(k/(k+1)) h_{k-1}."""
    h = np.empty((t.size, count))
    h[:, 0] = np.pi ** -0.25 * np.exp(-t ** 2 / 2.0)
    h[:, 1] = np.sqrt(2.0) * t * h[:, 0]
    for k in range(1, count - 1):
        h[:, k + 1] = (np.sqrt(2.0 / (k + 1)) * t * h[:, k]
                       - np.sqrt(k / (k + 1)) * h[:, k - 1])
    return h


_RADIAL_GRID = PhaseSpaceGrid.square(-12.0, 12.0, 192)
_HERMITE_TIME = Grid1D.regular(-16.0, 16.0, 384)
_HERMITE = _hermite_functions(_HERMITE_TIME.points, 30)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.floats(0.6, 3.0))
def test_radial_density_quantizes_to_its_exact_spectrum(p, c):
    # w = rho^p exp(-c rho) with rho = (omega^2 + b^2)/2, at unit mass, and
    # the unit probe: |<h_k|psi_{omega,b}>|^2 = exp(-rho) rho^k/k!, so the
    # operator is diagonal in the Hermite functions with eigenvalues
    # lambda_k = C(k+p, k) c^(p+1)/(1+c)^(k+p+1), a closed form that shares
    # no code with either assembly of the kernel
    omega, b = _RADIAL_GRID.meshes()
    rho = 0.5 * (omega ** 2 + b ** 2)
    w = Distribution(_RADIAL_GRID, rho ** p * np.exp(-c * rho)).normalized()
    k = quantize_to_kernel(w, gaussian_probe(_HERMITE_TIME, 1.0)).entries
    dt = _HERMITE_TIME.step
    matrix = dt * dt * (_HERMITE.T @ k @ _HERMITE)
    n = np.arange(_HERMITE.shape[1])
    binomial = np.cumprod(np.concatenate(([1.0], (n[1:] + p) / n[1:])))
    exact = binomial * c ** (p + 1) / (1.0 + c) ** (n + p + 1)
    assert np.abs(matrix.diagonal() - exact).max() <= 1e-14
    off = matrix - np.diag(matrix.diagonal())
    assert np.abs(off).max() <= 1e-14
    # the trace and the purity are sums over the whole spectrum
    spectrum = _radial_spectrum(p, c)
    diag = density_diagnostics(OperatorKernel(_HERMITE_TIME, k))
    assert abs(diag["trace"] - spectrum.sum()) <= 1e-14
    assert abs(diag["purity"] - np.sum(spectrum ** 2)) <= 1e-14


def _radial_spectrum(p, c):
    """lambda_k = C(k+p, k) c^(p+1)/(1+c)^(k+p+1) of w = rho^p exp(-c rho),
    for every k until the terms underflow: the series summed to convergence."""
    k = np.arange(1.0, 4000.0)
    binomial = np.cumprod(np.concatenate(([1.0], (k + p) / k)))
    log_tail = -(np.arange(binomial.size) + p + 1) * np.log1p(c)
    spectrum = binomial * c ** (p + 1) * np.exp(log_tail)
    assert spectrum[-1] == 0.0
    return spectrum


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(0, 1.0), (2, 1.0), (1, 2.0)]),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_displaced_radial_density_has_the_spectrum_on_displaced_hermite_functions(
        profile, omega0, b0):
    # w centred on z0 = (omega0, b0) quantizes to D(z0) A D(z0)^dagger, so
    # its eigenvectors are D(z0) h_k, exp(1j*omega0*(t - b0/2)) h_k(t - b0),
    # taken here from the recurrence at t - b0, and its spectrum is A's.
    # The profiles are those whose tails the grid holds 1.5 off centre
    # (rho^4 exp(-0.6 rho) there is cut at 3e-12 of its spectrum)
    p, c = profile
    omega, b = _RADIAL_GRID.meshes()
    rho = 0.5 * ((omega - omega0) ** 2 + (b - b0) ** 2)
    w = Distribution(_RADIAL_GRID, rho ** p * np.exp(-c * rho)).normalized()
    k = quantize_to_kernel(w, gaussian_probe(_HERMITE_TIME, 1.0)).entries
    t = _HERMITE_TIME.points
    displaced = (np.exp(1j * omega0 * (t - 0.5 * b0))[:, None]
                 * _hermite_functions(t - b0, _HERMITE.shape[1]))
    dt = _HERMITE_TIME.step
    matrix = dt * dt * (displaced.conj().T @ k @ displaced)
    spectrum = _radial_spectrum(p, c)
    exact = spectrum[:_HERMITE.shape[1]]
    assert np.abs(matrix.diagonal() - exact).max() <= 1e-14
    off = matrix - np.diag(matrix.diagonal())
    assert np.abs(off).max() <= 1e-14
    diag = density_diagnostics(OperatorKernel(_HERMITE_TIME, k))
    assert abs(diag["trace"] - spectrum.sum()) <= 1e-14
    assert abs(diag["purity"] - np.sum(spectrum ** 2)) <= 1e-14


def _quantize_by_b_node_loop(w, psi_a):
    """The b-node loop quantize_to_kernel once ran: the partial Fourier
    transform onto every lag t' - t in -(n_t-1)..n_t-1, then one rank-one
    update per b-node; the reference for the per-lag assembly."""
    tgrid = psi_a.grid
    n_t = tgrid.count
    lags = tgrid.step * np.arange(-(n_t - 1), n_t)
    fourier = np.exp(-1j * np.outer(lags, w.grid.omega_axis.points))
    w_partial = (w.grid.omega_axis.step / _SQRT_2PI) * (fourier @ w.values)
    shifted = batch_fractional_shift(psi_a.values, tgrid.step,
                                     w.grid.b_axis.points)
    lag_index = (np.arange(n_t)[None, :] - np.arange(n_t)[:, None]) + (n_t - 1)
    entries = np.zeros((n_t, n_t), dtype=complex)
    for k in range(w.grid.b_axis.count):
        col = shifted[k]
        entries += w_partial[:, k][lag_index] * (col[:, None] * np.conj(col)[None, :])
    return entries * (w.grid.b_axis.step / _SQRT_2PI)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 40), st.integers(4, 24), st.integers(4, 24),
       st.booleans(), st.floats(0.3, 3.0), st.booleans())
def test_per_lag_kernel_matches_the_b_node_loop(seed, n_t, n_omega, n_b,
                                                gaussian, width, chirped):
    rng = np.random.default_rng(seed)
    lo, hi = rng.uniform((3.0, 2.0, 5.0), (6.0, 4.0, 9.0), (2, 3))
    grid = PhaseSpaceGrid(Grid1D.regular(-lo[0], hi[0], n_omega),
                          Grid1D.regular(-lo[1], hi[1], n_b))
    tgrid = Grid1D.regular(-lo[2], hi[2], n_t)
    if gaussian:
        values = gaussian_distribution(grid, *rng.uniform(0.5, 1.5, 2),
                                       center=rng.uniform(-1.5, 1.5, 2)).values
    else:
        values = rng.random(grid.shape)
    values[[0, -1], :] = 0.0
    w = Distribution(grid, values).normalized()
    t = tgrid.points
    envelope = -t ** 2 / (2.0 * width)
    if chirped:
        # complex translates tell A*conj(B) from conj(A)*B; real ones do not
        chirp, modulation = rng.uniform((-1.0, -3.0), (1.0, 3.0))
        envelope = envelope + 1j * (chirp * t ** 2 + modulation * t)
    probe = SampledSignal(tgrid, np.exp(envelope)).normalized()
    with warnings.catch_warnings():
        # coarse time grids put the shifted probes on the edge; the identity
        # between the two assemblies holds all the same
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        k = quantize_to_kernel(w, probe).entries
        oracle = _quantize_by_b_node_loop(w, probe)
    scale = np.abs(k).max()
    assert np.abs(k - oracle).max() <= 1e-14 * scale
    assert np.array_equal(k, k.conj().T)
    assert abs(tgrid.step * np.trace(k).real - w.mass) <= 1e-10


@pytest.mark.parametrize("extra", [(1, 0), (1, 1), (2, 3)],
                         ids=["one-tile", "one-tile-plus-1", "two-tiles-plus-3"])
def test_tiled_kernel_matches_the_b_node_loop_across_tile_edges(extra, monkeypatch):
    # one tile of lags, a last tile of one lag, and a partial third tile;
    # a lag's work is its product row and its mu-comb row, 2*n_t complex
    # each, so a budget of 64 lags of 64*n_t bytes makes 64-lag tiles
    tile, n_b = 64, 256
    n_t = extra[0] * tile + extra[1]
    monkeypatch.setattr(numerics, "_TILE_BYTES", tile * 64 * n_t)
    rng = np.random.default_rng(n_t)
    grid = PhaseSpaceGrid(Grid1D.regular(-6.0, 6.0, 24), Grid1D.regular(-3.0, 3.0, n_b))
    w = gaussian_distribution(grid, 0.8, 1.1, center=(0.4, -0.3)).normalized()
    tgrid = Grid1D.regular(-9.0, 9.0, n_t)
    t = tgrid.points
    # complex translates tell A*conj(B) from conj(A)*B; real ones do not
    chirp, modulation = rng.uniform((-1.0, -3.0), (1.0, 3.0))
    probe = SampledSignal(tgrid, np.exp(-t ** 2 / 2.0 + 1j * (chirp * t ** 2
                                                              + modulation * t))).normalized()
    k = quantize_to_kernel(w, probe).entries
    oracle = _quantize_by_b_node_loop(w, probe)
    assert np.abs(k - oracle).max() <= 1e-14 * np.abs(k).max()
    assert np.array_equal(k, k.conj().T)
    assert abs(tgrid.step * np.trace(k).real - w.mass) <= 1e-10


def test_kernel_assembly_holds_under_three_blocks_beside_the_entries():
    # beside the kernel the work holds w_p and one tile of lags: their
    # product rows, mu-comb rows and chirp-z work (measured: 1.90 blocks;
    # the time-major translates of every b-node took 2.34)
    n_t, n_b = 384, 256
    w = gaussian_distribution(PhaseSpaceGrid.square(-8.0, 8.0, n_b),
                              center=(0.3, -0.2)).normalized()
    probe = gaussian_probe(Grid1D.regular(-20.0, 20.0, n_t), 1.0)
    quantize_to_kernel(w, probe)
    tracemalloc.start()
    try:
        quantize_to_kernel(w, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = n_t * n_b * 16
    assert peak < n_t * n_t * 16 + 2.56 * block


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_hold_one_matrix_and_two_tiles_beside_the_kernel():
    # a kernel that is not Hermitian: the step-weighted matrix and one tile
    # of adjoint rows (measured: 1.28 matrices); k^dagger, k - k^dagger and
    # its modulus, formed whole, took 2.50.  eigvalsh copies the matrix into
    # a buffer of its own, which tracemalloc does not see.
    n = 384
    rng = np.random.default_rng(4)
    kernel = OperatorKernel(Grid1D.regular(-6.0, 6.0, n),
                            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    density_diagnostics(kernel)
    tracemalloc.start()
    try:
        density_diagnostics(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 + 2 * numerics._TILE_BYTES


def test_diagnostics_of_a_hermitian_kernel_hold_no_matrix():
    # an exactly Hermitian kernel goes to eigvalsh in place: beside it the
    # work holds |k| for the purity, then one tile of adjoint rows
    # (measured: 0.50 matrices), where a step-weighted copy took 1.28
    n = 384
    rng = np.random.default_rng(4)
    k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kernel = OperatorKernel(Grid1D.regular(-6.0, 6.0, n), k + k.conj().T)
    del k
    assert density_diagnostics(kernel)["hermiticity_defect"] == 0.0
    tracemalloc.start()
    try:
        density_diagnostics(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 2 * numerics._TILE_BYTES


def test_diagnostics_of_rank_one_projector():
    psi = gaussian_probe(TIME_GRID, 1.0).values
    kernel = OperatorKernel(TIME_GRID, np.outer(psi, np.conj(psi)))
    diag = density_diagnostics(kernel)
    assert abs(diag["trace"] - 1.0) < 1e-12
    assert abs(diag["purity"] - 1.0) < 1e-12
    assert diag["min_eigenvalue"] >= -1e-10


def test_diagnostics_of_equal_mixture():
    t = TIME_GRID.points
    psi0 = gaussian_probe(TIME_GRID, 1.0).values
    psi1 = SampledSignal(TIME_GRID, t * np.exp(-t ** 2 / 2.0)).normalized().values
    entries = 0.5 * (np.outer(psi0, np.conj(psi0)) + np.outer(psi1, np.conj(psi1)))
    diag = density_diagnostics(OperatorKernel(TIME_GRID, entries))
    assert abs(diag["trace"] - 1.0) < 1e-10
    assert abs(diag["purity"] - 0.5) < 1e-8


# ---------------------------------------------------------------------------
# positivity certificate
# ---------------------------------------------------------------------------

def _planted(seed, spectrum):
    """U diag(spectrum) U^dagger, made exactly Hermitian, for a unitary U
    seeded by ``seed``."""
    n = len(spectrum)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (r.diagonal() / np.abs(r.diagonal()))
    matrix = (u * spectrum) @ u.conj().T
    return 0.5 * (matrix + matrix.conj().T)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(2, 64),
       st.one_of(st.just(0.0), st.floats(-200.0, 200.0)))
def test_certificate_agrees_with_the_planted_spectrum(seed, n, smallest):
    # spectrum: 1, n - 2 draws in [0, 1) and lambda_min = smallest * n * eps,
    # which falls on both sides of -delta >= -n*eps*||A||; on a step of 1
    # the kernel is A itself
    rest = np.random.default_rng(seed).random(n - 2)
    lam_min = smallest * n * np.finfo(float).eps
    kernel = OperatorKernel(Grid1D.regular(0.0, float(n), n),
                            _planted(seed, np.concatenate(([1.0, lam_min], rest))))
    found = positivity_certificate(kernel)
    delta = found["positive_within"]
    assert 0.0 < delta <= n * np.finfo(float).eps * np.sqrt(n)
    if lam_min >= 0.0:
        assert found["positive"] is True
    elif lam_min <= -4.0 * delta:
        assert found["positive"] is False


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(4, 24), st.integers(4, 24), st.integers(2, 96))
def test_quantized_random_density_is_certified_positive(seed, n_omega, n_b, n_t):
    grid = PhaseSpaceGrid(Grid1D.regular(-4.0, 4.0, n_omega), Grid1D.regular(-4.0, 4.0, n_b))
    values = np.random.default_rng(seed).random(grid.shape)
    values[[0, -1], :] = 0.0
    w = Distribution(grid, values).normalized()
    tgrid = Grid1D.regular(-10.0, 10.0, n_t)
    probe = SampledSignal(tgrid, np.exp(-tgrid.points ** 2 / 2.0)).normalized()
    with warnings.catch_warnings():
        # coarse time grids put the probe on the edge; positivity holds all the same
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        kernel = quantize_to_kernel(w, probe)
    found = positivity_certificate(kernel)
    assert found["positive"] is True
    assert found["positive_within"] > 0.0


def test_certificate_reads_the_hermitian_part():
    # a large skew-Hermitian part changes neither outcome; the certificate
    # sees dt*(k + k^dagger)/2, the matrix density_diagnostics reports on
    n = 40
    rng = np.random.default_rng(12)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = 10.0 * (z - z.conj().T)
    grid = Grid1D.regular(0.0, float(n), n)
    spectrum = np.linspace(0.1, 1.0, n)
    for sign, expected in ((1.0, True), (-1.0, False)):
        hermitian = _planted(3, sign * spectrum)
        for k in (hermitian, hermitian + skew):
            assert positivity_certificate(OperatorKernel(grid, k))["positive"] is expected


def test_certificate_does_not_depend_on_the_tiles(monkeypatch):
    # delta's row sums and the Schur complement's update run in tiles; a
    # budget of a few rows gives the same bits
    n = 77
    kernel = OperatorKernel(Grid1D.regular(-3.0, 3.0, n), _planted(8, np.linspace(0.0, 1.0, n)))
    found = positivity_certificate(kernel)
    assert found["positive"] is True
    monkeypatch.setattr(numerics, "_TILE_BYTES", 5 * 32 * n)
    assert positivity_certificate(kernel) == found


def test_certificate_holds_under_one_matrix_beside_the_kernel():
    # two half-size blocks: the leading factor, the solved rows and the
    # Schur complement, at most three quarter-size blocks (measured: 0.75
    # matrices).  Factoring a shifted copy of the whole matrix holds the
    # copy and its factor, two matrices.
    n = 384
    w = overlap_kernel(2.0, 0.5, PhaseSpaceGrid.square(-16.0, 16.0, 64)).normalized()
    kernel = quantize_to_kernel(w, gaussian_probe(Grid1D.regular(-20.0, 20.0, n), 1.0))
    assert positivity_certificate(kernel)["positive"] is True
    tracemalloc.start()
    try:
        positivity_certificate(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16
