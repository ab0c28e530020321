"""Windowed-Fourier analysis on the line: transform, reconstruction,
displacement covariance, and dispersion diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylgabor import gabor, numerics
from weylgabor.cylinder import (
    TruncationWarning,
    cyl_gabor_transform,
    cyl_reconstruct,
    von_mises,
)
from weylgabor.gabor import (
    SampledSignal,
    SlowDecayWarning,
    SupportCoverageWarning,
    TFCoefficients,
    covariance_residual,
    default_tf_grid,
    default_time_grid,
    displace,
    gabor_reconstruct,
    gabor_transform,
    gaussian_probe,
    make_test_signal,
    uncertainty_product,
)
from weylgabor.numerics import EdgeEnergyWarning, Grid1D, PhaseSpaceGrid
from weylgabor.quantize import (
    BandCoverageWarning,
    gaussian_distribution,
    quantize_to_kernel,
)


# ---------------------------------------------------------------------------
# signals and probes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["gaussian", "two_bump", "modulated", "chirp_tones"])
def test_named_signals_have_unit_energy(name):
    s = make_test_signal(name)
    assert abs(s.energy - 1.0) < 1e-12


def test_unknown_signal_name():
    with pytest.raises(ValueError):
        make_test_signal("sawtooth")


@pytest.mark.parametrize("width", [0.2, 1.0, 5.0])
def test_gaussian_probe_unit_norm(width):
    assert abs(gaussian_probe(width=width).norm - 1.0) < 1e-12


def test_probe_rejects_unnormalized_window():
    grid = default_time_grid()
    bad = SampledSignal(grid, 2.0 * make_test_signal("gaussian", grid).values)
    with pytest.raises(ValueError):
        gabor_transform(bad, make_test_signal("gaussian", grid))
    with pytest.raises(ValueError):
        gaussian_probe(width=-1.0)
    # a grid too short to hold the Gaussian fails the unit-norm check
    with pytest.raises(ValueError, match="window must have unit norm"):
        gaussian_probe(Grid1D.regular(-1.0, 1.0, 64), width=5.0)


def _window_consumers():
    """name -> (unit-norm window, call(window), warning the call records with
    that window or None).  The inputs are chosen so that a call which got
    past the norm check would record its warning, where it has one."""
    tgrid = Grid1D.regular(-20.0, 20.0, 128)
    psi = gaussian_probe(tgrid)
    s = make_test_signal("gaussian", tgrid)
    narrow = PhaseSpaceGrid.square(-2.0, 2.0, 32)
    coeffs = gabor_transform(psi, make_test_signal("two_bump", tgrid), narrow)
    w = gaussian_distribution(narrow).normalized()   # reaches the band edge
    vm = von_mises(2.0)
    cut = cyl_gabor_transform(vm, vm, 8)             # tail on the outer m-rows
    return {
        "gabor_transform": (psi, lambda g: gabor_transform(g, s, narrow), None),
        "gabor_reconstruct": (psi, lambda g: gabor_reconstruct(g, coeffs),
                              SupportCoverageWarning),
        "covariance_residual": (psi, lambda g: covariance_residual(g, s, 1.0, 0.5, narrow),
                                None),
        "cyl_gabor_transform": (vm, lambda g: cyl_gabor_transform(g, vm, 8), None),
        "cyl_reconstruct": (vm, lambda g: cyl_reconstruct(g, cut), TruncationWarning),
        "quantize_to_kernel": (psi, lambda g: quantize_to_kernel(w, g),
                               BandCoverageWarning),
    }


@pytest.mark.parametrize("name", sorted(_window_consumers()))
def test_every_window_consumer_rejects_a_non_unit_window(name):
    window, call, warning = _window_consumers()[name]
    if warning is not None:
        with pytest.warns(warning):
            call(window)
    bad = type(window)(window.grid, 2.0 * window.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="window must have unit norm, got 2"):
            call(bad)


def test_signal_shape_validation():
    with pytest.raises(ValueError):
        SampledSignal(default_time_grid(), np.zeros(7))
    with pytest.raises(ValueError):
        SampledSignal(default_time_grid(), np.zeros(1024)).normalized()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_signal_rejects_nonfinite_samples(bad):
    values = np.zeros(1024, dtype=complex)
    values[17] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledSignal(default_time_grid(), values)


@pytest.mark.parametrize("shift", [np.inf, -np.inf, np.nan, np.array([0.5, np.nan, 1.0])],
                         ids=["inf", "-inf", "nan", "nan-in-array"])
@pytest.mark.parametrize("window", ["line", "circle"])
def test_translated_rejects_nonfinite_shifts(window, shift):
    signal = gaussian_probe() if window == "line" else von_mises(2.0)
    with pytest.raises(ValueError, match="shift must be finite"):
        signal.translated(shift)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_displace_and_probe_name_their_nonfinite_arguments(bad):
    probe = gaussian_probe()
    with pytest.raises(ValueError, match="omega must be finite"):
        displace(bad, 0.0, probe)
    with pytest.raises(ValueError, match="b must be finite"):
        displace(1.0, bad, probe)
    with pytest.raises(ValueError, match="width must be positive and finite"):
        gaussian_probe(default_time_grid(), bad)


# ---------------------------------------------------------------------------
# displacement operator
# ---------------------------------------------------------------------------

def test_displace_at_origin_is_identity():
    s = make_test_signal("gaussian")
    np.testing.assert_array_equal(displace(0.0, 0.0, s).values, s.values)


def test_displaced_gaussian_matches_closed_form():
    s = make_test_signal("gaussian")
    t = s.grid.points
    out = displace(2.0, 1.0, s)
    target = np.exp(2j * (t - 0.5)) * np.pi ** -0.25 * np.exp(-(t - 1.0) ** 2 / 2.0)
    assert np.abs(out.values - target).max() < 1e-10


def test_displace_is_unitary():
    s = make_test_signal("two_bump")
    rng = np.random.default_rng(21)
    for _ in range(20):
        omega, b = rng.uniform(-4.0, 4.0, size=2)
        assert abs(displace(omega, b, s).norm - s.norm) < 1e-10


def test_displace_warns_on_hot_line_edges():
    # on the line the shift wraps around, so a signal that has not decayed
    # at the grid edges must still raise the edge warning
    grid = Grid1D.regular(-4.0, 4.0, 128)
    hot = SampledSignal(grid, np.exp(-grid.points ** 2 / 50.0))
    with pytest.warns(EdgeEnergyWarning):
        out = displace(0.5, 0.3, hot)
    assert type(out) is SampledSignal


def test_displacement_composition_phase():
    s = make_test_signal("gaussian")
    omega1, b1 = 1.3, -0.8
    omega2, b2 = -2.1, 0.6
    lhs = displace(omega1, b1, displace(omega2, b2, s)).values
    phase = np.exp(0.5j * (omega1 * b2 - omega2 * b1))
    rhs = phase * displace(omega1 + omega2, b1 + b2, s).values
    assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------------------
# transform and reconstruction
# ---------------------------------------------------------------------------

def test_transform_of_zero_signal_is_zero():
    grid = default_time_grid()
    zero = SampledSignal(grid, np.zeros(grid.count))
    coeffs = gabor_transform(gaussian_probe(grid), zero)
    assert np.abs(coeffs.values).max() == 0.0


def test_transform_requires_shared_time_grid():
    probe = gaussian_probe(Grid1D.regular(-20.0, 20.0, 512))
    s = make_test_signal("gaussian", Grid1D.regular(-20.0, 20.0, 1024))
    with pytest.raises(ValueError):
        gabor_transform(probe, s)


def test_gaussian_self_transform_closed_form():
    s = make_test_signal("gaussian")
    coeffs = gabor_transform(gaussian_probe(), s)
    omega, b = coeffs.grid.meshes()
    target = np.exp(-0.5j * omega * b) * np.exp(-(b ** 2 + omega ** 2) / 4.0)
    assert np.abs(coeffs.values - target).max() < 1e-9


@pytest.mark.parametrize("name", ["gaussian", "two_bump", "modulated"])
def test_parseval_on_default_grids(name):
    s = make_test_signal(name)
    coeffs = gabor_transform(gaussian_probe(), s)
    assert abs(coeffs.energy - s.energy) < 1e-6 * s.energy


@pytest.mark.parametrize("name,bound", [
    ("gaussian", 1e-5),
    ("two_bump", 1e-4),
    ("modulated", 1e-5),
])
def test_round_trip_reconstruction(name, bound):
    s = make_test_signal(name)
    probe = gaussian_probe()
    recon = gabor_reconstruct(probe, gabor_transform(probe, s))
    err = np.sqrt(s.grid.step * np.sum(np.abs(recon.values - s.values) ** 2))
    assert err / s.norm < bound


def test_reconstruct_zero_coefficients():
    probe = gaussian_probe()
    coeffs = gabor_transform(probe, SampledSignal(probe.grid,
                                                  np.zeros(probe.grid.count)))
    assert gabor_reconstruct(probe, coeffs).norm == 0.0


def test_round_trip_error_shrinks_as_ranges_double():
    # fixed time sampling, phase-space window doubled twice
    tg = default_time_grid()
    s = make_test_signal("two_bump", tg)
    probe = gaussian_probe(tg)
    errors = []
    for half, n in ((4.0, 64), (8.0, 128), (16.0, 256)):
        grid = PhaseSpaceGrid.square(-half, half, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportCoverageWarning)
            recon = gabor_reconstruct(probe, gabor_transform(probe, s, grid))
        errors.append(np.sqrt(tg.step * np.sum(np.abs(recon.values - s.values) ** 2)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-5


def _dense_transform(probe, s, grid):
    """Reference form of the transform: the dense Fourier table
    exp(-1j*omega*t) applied to every windowed copy of the signal."""
    windowed = np.conj(probe.translated(grid.b_axis.points)) * s.values
    fourier = np.exp(-1j * np.outer(grid.omega_axis.points, s.grid.points))
    return s.grid.step * fourier @ windowed.T


def _dense_reconstruct(probe, coeffs):
    """Reference form of the resynthesis: the dense mode table exp(1j*omega*t)."""
    grid = coeffs.grid
    windows = probe.translated(grid.b_axis.points)
    modes = np.exp(1j * np.outer(probe.grid.points, grid.omega_axis.points))
    return grid.cell_measure * np.einsum("tk,kt->t", modes @ coeffs.values, windows)


@pytest.mark.parametrize("n_t,n_tf,half", [(128, 32, 6.0), (96, 40, 5.0), (64, 97, 9.0)])
def test_transform_and_resynthesis_match_dense_tables(n_t, n_tf, half):
    tgrid = Grid1D.regular(-12.0, 12.0, n_t)
    probe = gaussian_probe(tgrid)
    s = make_test_signal("two_bump", tgrid)
    grid = PhaseSpaceGrid.square(-half, half, n_tf)
    coeffs = gabor_transform(probe, s, grid)
    assert np.abs(coeffs.values - _dense_transform(probe, s, grid)).max() < 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportCoverageWarning)
        recon = gabor_reconstruct(probe, coeffs)
    assert np.abs(recon.values - _dense_reconstruct(probe, coeffs)).max() < 1e-13


@pytest.mark.parametrize("columns,tiles", [(1, [1] * 40), (7, [7] * 5 + [5])])
def test_resynthesis_over_b_tiles_matches_the_dense_sum(monkeypatch, columns, tiles):
    # 40 b-columns in tiles of 7 leave a short last tile
    tgrid = Grid1D.regular(-12.0, 12.0, 96)
    probe = gaussian_probe(tgrid)
    grid = PhaseSpaceGrid.square(-5.0, 5.0, 40)
    coeffs = gabor_transform(probe, make_test_signal("two_bump", tgrid), grid)
    monkeypatch.setattr(numerics, "_TILE_BYTES", columns * probe.values.nbytes)
    made, original = [], gabor.chirp_z

    def counted(values, *args, **kwargs):
        made.append(len(values))
        return original(values, *args, **kwargs)

    monkeypatch.setattr(gabor, "chirp_z", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportCoverageWarning)
        recon = gabor_reconstruct(probe, coeffs)
    assert made == tiles
    assert np.abs(recon.values - _dense_reconstruct(probe, coeffs)).max() < 1e-13


def _batched_analysis(window, s, comb, shifts):
    """The transform as one batch: every translate at once, windowed, and
    one chirp-z transform of all of them."""
    windowed = window.translated(shifts)
    np.conjugate(windowed, out=windowed)
    windowed *= s.grid.step * s.values
    return numerics.chirp_z(windowed.T, s.grid.comb, comb, sign=-1, axis=0)


def _batched_resynthesis(window, comb, shifts, values, measure):
    """The resynthesis with every translate at once, over b-tiles of
    numerics._TILE_BYTES of modes."""
    windows = window.translated(shifts)
    tile = max(1, numerics._TILE_BYTES // windows[0].nbytes)
    out = np.zeros(window.grid.count, dtype=complex)
    for start in range(0, len(windows), tile):
        modes = numerics.chirp_z(values[:, start:start + tile].T, comb,
                                 window.grid.comb, sign=1)
        modes *= windows[start:start + tile]
        out += modes.sum(axis=0)
    out *= measure
    return out


@pytest.mark.parametrize("tgrid,grid", [
    (Grid1D.regular(-20.0, 20.0, 2048), PhaseSpaceGrid.square(-16.0, 16.0, 512)),
    (Grid1D.regular(-20.0, 20.0, 1000), PhaseSpaceGrid.square(-15.3, 15.3, 201)),
    (default_time_grid(), PhaseSpaceGrid(Grid1D(-8.0, 0.25, 64),
                                         Grid1D(-16.0, math.sqrt(2.0) / 8.0, 256))),
], ids=["16/5-cells", "off-node-765/201-cells", "distinct-fractions"])
def test_tiled_transform_pair_is_the_batched_pair_bit_for_bit(tgrid, grid):
    # rows copied from the fraction translates are the rows of the batch:
    # five fractions, 67 fractions from off the nodes, and all distinct
    probe = gaussian_probe(tgrid)
    s = make_test_signal("chirp_tones", tgrid)
    comb, shifts = grid.omega_axis.comb, grid.b_axis.points
    coeffs = gabor_transform(probe, s, grid)
    assert np.array_equal(coeffs.values, _batched_analysis(probe, s, comb, shifts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportCoverageWarning)
        recon = gabor_reconstruct(probe, coeffs)
    assert np.array_equal(recon.values, _batched_resynthesis(
        probe, comb, shifts, coeffs.values, grid.cell_measure))


def test_tiled_circle_pair_is_the_batched_pair_bit_for_bit():
    vm = von_mises(2.0, 512)
    phi = displace(3, 0.7, vm)
    m_max = 24
    m = np.arange(-m_max, m_max + 1)
    m_comb, thetas = (-m_max, 1.0, 2 * m_max + 1), vm.grid.points
    coeffs = cyl_gabor_transform(vm, phi, m_max)
    # the half-phase products in cylinder's operand order, with named
    # operands: complex multiply is not bitwise commutative, and numpy may
    # compute a product with a temporary operand in that operand's buffer
    half_phase = np.exp(1j * np.outer(m, thetas) / 2.0)
    analyzed = _batched_analysis(vm, phi, m_comb, thetas)
    assert np.array_equal(coeffs.values, half_phase * analyzed)
    phase = np.exp(-1j * np.outer(m, thetas) / 2.0)
    descaled = coeffs.values * phase
    expected = _batched_resynthesis(vm, m_comb, thetas, descaled,
                                    vm.grid.step / (2.0 * np.pi))
    assert np.array_equal(cyl_reconstruct(vm, coeffs).values, expected)


def test_default_pair_translates_at_most_five_rows_once_per_direction(monkeypatch):
    # b-step / dt = 16/5: one call per direction, on a table of the group
    # of 0 and four fractions, with an inverse FFT row for each fraction
    probe = gaussian_probe()
    calls, original = [], numerics.batch_fractional_shift

    def counted(values, step, shifts):
        calls.append(np.size(shifts))
        return original(values, step, shifts)

    monkeypatch.setattr(gabor, "batch_fractional_shift", counted)
    rows = _count_shift_rows(monkeypatch, probe.grid.count)
    coeffs = gabor_transform(probe, make_test_signal("two_bump"))
    assert len(calls) == 1 and calls[0] <= 5 and sum(rows) <= 5
    gabor_reconstruct(probe, coeffs)
    assert len(calls) == 2 and calls[1] <= 5 and sum(rows) <= 10


def test_hot_window_warns_once_per_transform_call(monkeypatch):
    # one translate call per transform and per resynthesis, however small
    # the tiles, and at the default grids with the default budget
    setups = [(1, Grid1D.regular(-6.0, 6.0, 64), PhaseSpaceGrid.square(-4.0, 4.0, 12)),
              (numerics._TILE_BYTES, default_time_grid(), default_tf_grid())]
    for tile_bytes, tgrid, grid in setups:
        monkeypatch.setattr(numerics, "_TILE_BYTES", tile_bytes)
        hot = SampledSignal(tgrid, np.exp(-tgrid.points ** 2 / 50.0)).normalized()
        s = make_test_signal("gaussian", tgrid)
        for call in (lambda: gabor_transform(hot, s, grid),
                     lambda: gabor_reconstruct(hot, TFCoefficients(grid, np.ones(grid.shape)))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught].count(EdgeEnergyWarning) == 1


def test_coverage_warning_on_narrow_grid():
    s = make_test_signal("two_bump")
    probe = gaussian_probe()
    small = PhaseSpaceGrid.square(-2.0, 2.0, 32)
    with pytest.warns(SupportCoverageWarning):
        gabor_reconstruct(probe, gabor_transform(probe, s, small))


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_covariance_residual_vanishes_at_origin():
    s = make_test_signal("gaussian")
    assert covariance_residual(gaussian_probe(), s, 0.0, 0.0) < 1e-12


@pytest.mark.parametrize("omega0,b0", [(1.0, 1.0), (2.0, -0.5), (0.73, -1.37)])
def test_covariance_residual_small_for_resolved_shifts(omega0, b0):
    s = make_test_signal("gaussian")
    probe = gaussian_probe()
    coeffs = gabor_transform(probe, s)
    bound = 1e-6 * np.abs(coeffs.values).max()
    assert covariance_residual(probe, s, omega0, b0) < bound


_SHIFTS = st.floats(-3.5, 3.5, allow_nan=False)


@pytest.mark.parametrize("name", ["gaussian", "two_bump", "modulated"])
@settings(max_examples=10)
@given(omega0=_SHIFTS, b0=_SHIFTS)
def test_covariance_holds_to_roundoff(name, omega0, b0):
    # the reference is the transform on the moved grid, so the residual
    # measures the covariance itself and not an interpolation error
    s = make_test_signal(name)
    probe = gaussian_probe()
    peak = np.abs(gabor_transform(probe, s).values).max()
    assert covariance_residual(probe, s, omega0, b0) < 1e-12 * peak


def test_covariance_phase_sign_is_negative():
    # the transform of the displaced signal picks up exp(-1j*(omega-omega0/2)*b0),
    # checked at a lattice node where the shifted reference is an exact roll
    s = make_test_signal("gaussian")
    probe = gaussian_probe()
    grid = default_tf_grid()
    omega0, b0 = 2.0, 1.0
    base = gabor_transform(probe, s, grid).values
    moved = gabor_transform(probe, displace(omega0, b0, s), grid).values
    i = int(round((3.0 - grid.omega_axis.start) / grid.omega_axis.step))
    j = int(round((1.5 - grid.b_axis.start) / grid.b_axis.step))
    di = int(round(omega0 / grid.omega_axis.step))
    dj = int(round(b0 / grid.b_axis.step))
    ratio = moved[i, j] / base[i - di, j - dj]
    omega = grid.omega_axis.points[i]
    predicted = np.exp(-1j * (omega - 0.5 * omega0) * b0)
    flipped = np.exp(1j * (omega - 0.5 * omega0) * b0)
    assert abs(ratio - predicted) < 1e-9
    assert abs(ratio - flipped) > 1.0


# ---------------------------------------------------------------------------
# dispersion product
# ---------------------------------------------------------------------------

def test_gaussian_saturates_uncertainty_bound():
    assert abs(uncertainty_product(make_test_signal("gaussian")) - 0.5) < 1e-6


@pytest.mark.parametrize("width", [0.2, 5.0])
def test_gaussian_any_width_saturates_bound(width):
    assert abs(uncertainty_product(gaussian_probe(width=width)) - 0.5) < 1e-6


def test_first_hermite_mode_dispersion():
    grid = default_time_grid()
    t = grid.points
    s = SampledSignal(grid, t * np.exp(-t ** 2 / 2.0)).normalized()
    assert abs(uncertainty_product(s) - 1.5) < 1e-5


@pytest.mark.parametrize("name", ["gaussian", "two_bump", "modulated", "chirp_tones"])
def test_uncertainty_lower_bound(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowDecayWarning)
        value = uncertainty_product(make_test_signal(name))
    assert value >= 0.5 - 1e-6


def test_slow_decay_warning():
    grid = Grid1D.regular(-20.0, 20.0, 256)
    flat = SampledSignal(grid, np.ones(256)).normalized()
    with pytest.warns(SlowDecayWarning):
        uncertainty_product(flat)


# ---------------------------------------------------------------------------
# FFT rows of the shift core
# ---------------------------------------------------------------------------

def _count_shift_rows(monkeypatch, length):
    """List that receives the rows of each inverse FFT of ``length`` samples
    the numerics make; chirp-z transforms run on longer padded buffers."""
    rows = []
    original = numerics.ifft

    def counting(x, *args, **kwargs):
        if np.shape(x)[-1] == length:
            rows.append(np.size(x) // length)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(numerics, "ifft", counting)
    return rows


def test_default_translates_transform_at_most_five_rows(monkeypatch):
    # b-step / dt = 0.125 / 0.0390625 = 16/5
    probe = gaussian_probe(default_time_grid())
    rows = _count_shift_rows(monkeypatch, probe.grid.count)
    shifts = default_tf_grid().b_axis.points
    translates = probe.translated(shifts)
    assert sum(rows) <= 5
    np.testing.assert_allclose(translates[3], probe.translated(shifts[3]),
                               rtol=0, atol=1e-13)


def test_circle_transform_on_its_own_angles_transforms_no_rows(monkeypatch):
    vm = von_mises(2.0)
    rows = _count_shift_rows(monkeypatch, vm.grid.count)
    cyl_gabor_transform(vm, vm, 8)
    assert sum(rows) == 0


def test_distinct_fractions_transform_one_row_per_shift(monkeypatch):
    probe = gaussian_probe(default_time_grid())
    rows = _count_shift_rows(monkeypatch, probe.grid.count)
    shifts = -16.0 + np.sqrt(2.0) / 8.0 * np.arange(256)
    probe.translated(shifts)
    assert sum(rows) == shifts.size


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

# one (512, 2048) complex array: 512 shifted copies of a 2048-sample probe
_BATCH_BYTES = 512 * 2048 * 16


def _peak_bytes(call):
    """Peak of numpy's traced allocations during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_translate_holds_one_batch_and_a_half():
    # a step of 16/5 cells: four small FFT translates, rolled into the one
    # output batch
    probe = gaussian_probe(Grid1D.regular(-20.0, 20.0, 2048))
    shifts = np.linspace(-16.0, 16.0, 512, endpoint=False)
    assert _peak_bytes(lambda: probe.translated(shifts)) < 1.25 * _BATCH_BYTES


@pytest.mark.parametrize("start, cells, fft_rows",
                         [(-16.0, 165.0 / 127, 127), (-16.0, 165.0 / 251, 251),
                          (-15.625, 165.0 / 128, 127),
                          (-16.0, 3.2 * math.sqrt(2.0), 512)],
                         ids=["127-127", "251-251", "128-127", "distinct-512"])
def test_comb_translate_makes_one_fft_row_per_fraction_in_one_batch(
        monkeypatch, start, cells, fft_rows):
    # a step of 165/q cells off the nodes gives q fractions, and one of
    # sqrt(2)*3.2 cells a distinct fraction per shift.  From a node (-15.625
    # is 800 cells) a step of 165/128 cells gives whole cells and 127
    # fractions, with +1/2 and -1/2 one translate.  Beside the output
    # batch the work holds one translate twice over.
    probe = gaussian_probe(Grid1D.regular(-20.0, 20.0, 2048))
    shifts = start + cells * probe.grid.step * np.arange(512)
    rows = _count_shift_rows(monkeypatch, probe.grid.count)
    assert _peak_bytes(lambda: probe.translated(shifts)) < 1.25 * _BATCH_BYTES
    assert sum(rows) == fft_rows


def _large_transform_inputs():
    tgrid = Grid1D.regular(-20.0, 20.0, 2048)
    probe = gaussian_probe(tgrid)
    s = make_test_signal("chirp_tones", tgrid)
    return probe, s, PhaseSpaceGrid.square(-16.0, 16.0, 512)


def test_transform_peak_memory_stays_below_half_a_batch():
    # the (512, 512) result (a quarter batch), the table of five fraction
    # translates, and one tile of windowed copies and its chirp-z work; no
    # batch of translates, no zero-padded buffer of all lines, no Fourier
    # table
    probe, s, grid = _large_transform_inputs()
    assert _peak_bytes(lambda: gabor_transform(probe, s, grid)) < 0.5 * _BATCH_BYTES


def test_reconstruct_peak_memory_stays_below_a_quarter_batch():
    # the table of five fraction translates, one tile of windows, one tile
    # of modes and one chirp-z tile; no batch of translates and no
    # (n_t, n_b) block of modes
    probe, s, grid = _large_transform_inputs()
    coeffs = gabor_transform(probe, s, grid)
    assert _peak_bytes(lambda: gabor_reconstruct(probe, coeffs)) < 0.25 * _BATCH_BYTES
