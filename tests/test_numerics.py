"""Grids, Bessel evaluation, quadrature, spectral shifts, minima search."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import iv

from weylgabor import numerics
from weylgabor.numerics import (
    EdgeEnergyWarning,
    Grid1D,
    PhaseSpaceGrid,
    batch_fractional_shift,
    bessel_i,
    chirp_z,
    edge_mass_share,
    edge_peak_ratio,
    find_local_minima,
    grid_convolve,
    periodic_trapezoid,
    spectral_shift,
)
from weylgabor.numerics import (
    _fraction_groups,
    _next_fast_len,
    _refine_design,
    _separable_convolve,
    _wrap_free_window,
)

# frozen once from the ascending power series sum_k (x/2)^(2k) / (k!)^2
I0_AT_2 = 2.279585302336067


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_regular_grid_is_half_open():
    g = Grid1D.regular(-2.0, 2.0, 8)
    assert g.step == 0.5
    assert g.count == 8
    np.testing.assert_array_equal(g.points, -2.0 + 0.5 * np.arange(8))
    assert g.points[-1] == 1.5  # hi itself is not a sample
    assert g.span == 4.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(start=0.0, step=0.0, count=4)
    with pytest.raises(ValueError):
        Grid1D(start=0.0, step=1.0, count=1)
    with pytest.raises(ValueError):
        Grid1D.regular(1.0, 1.0, 4)


@pytest.mark.parametrize("start,step", [(0.0, math.nan), (0.0, math.inf),
                                        (math.nan, 1.0), (math.inf, 1.0),
                                        (-math.inf, 1.0)])
def test_grid_rejects_nonfinite_start_and_step(start, step):
    with pytest.raises(ValueError, match="must be finite"):
        Grid1D(start=start, step=step, count=4)


def test_origin_index():
    assert Grid1D.regular(-4.0, 4.0, 16).origin_index() == 8
    off = Grid1D(start=0.25, step=1.0, count=4)
    with pytest.raises(ValueError):
        off.origin_index()


def test_angular_frequencies_match_fft_comb():
    g = Grid1D.regular(-5.0, 5.0, 32)
    np.testing.assert_allclose(
        g.angular_frequencies(),
        2.0 * np.pi * np.fft.fftfreq(32, d=g.step), rtol=0, atol=0)


def test_phase_space_grid_measure_and_integrate():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 64)
    assert grid.shape == (64, 64)
    cell = (8.0 / 64) ** 2 / (2.0 * np.pi)
    assert abs(grid.cell_measure - cell) < 1e-16
    ones = np.ones(grid.shape)
    assert abs(grid.integrate(ones) - 64.0 / (2.0 * np.pi)) < 1e-12
    with pytest.raises(ValueError):
        grid.integrate(np.ones((3, 3)))


def test_phase_space_meshes_are_indexed_omega_then_b():
    grid = PhaseSpaceGrid(Grid1D.regular(0.0, 2.0, 2), Grid1D.regular(0.0, 3.0, 3))
    omega, b = grid.meshes()
    assert omega.shape == (2, 3)
    assert omega[1, 0] == 1.0 and b[0, 2] == 2.0


# ---------------------------------------------------------------------------
# modified Bessel function
# ---------------------------------------------------------------------------

def test_bessel_base_cases():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert abs(bessel_i(0, 2.0) - I0_AT_2) < 1e-14


@pytest.mark.parametrize("x", [5e-324, 1e-310, 2.2250738585072014e-308, 1e-301])
def test_bessel_at_tiny_arguments_is_the_leading_term(x):
    # scipy's iv gives NaN here, and 0.0 for I_1(1e-301)
    assert bessel_i(0, x) == 1.0
    assert bessel_i(1, x) == x / 2.0
    assert bessel_i(4, x) == 0.0


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_bessel_three_term_recurrence(x):
    for nu in range(1, 11):
        lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
        rhs = 2.0 * nu / x * bessel_i(nu, x)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1e-300)


@pytest.mark.parametrize("order,x", [
    (0, 0.3), (3, 1.0), (7, 25.0),        # power-series branch
    (0, 35.0), (5, 100.0), (20, 300.0),   # Miller recurrence branch
    (0, 600.0), (40, 50.0), (64, 80.0),
])
def test_bessel_against_scipy(order, x):
    ref = iv(order, x)
    assert abs(bessel_i(order, x) - ref) < 1e-12 * ref


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_i(65, 1.0)
    with pytest.raises(ValueError):
        bessel_i(2.5, 1.0)
    with pytest.raises(ValueError):
        bessel_i(0, -1.0)


@pytest.mark.parametrize("order", [0, 1, 4, 20, 64])
def test_bessel_on_an_array_is_the_scalar_calls(order):
    # the first row holds the leading-term entries, the second iv's; the
    # rest repeat entries of both kinds at scattered positions
    x = np.array([[0.0, 5e-324, 1e-310, 1e-301],
                  [0.3, 2.0, 35.0, 600.0],
                  [2.0, 0.0, 5e-324, 0.3],
                  [5e-324, 600.0, 0.0, 2.0]])
    cube = np.stack([x, x[::-1, ::-1], x.T])
    for arg in (x, cube):
        values = bessel_i(order, arg)
        assert isinstance(values, np.ndarray) and values.shape == arg.shape
        scalars = [bessel_i(order, v) for v in arg.ravel().tolist()]
        assert np.array_equal(values, np.reshape(scalars, arg.shape))
    assert isinstance(bessel_i(order, 2.0), float)
    with pytest.raises(ValueError):
        bessel_i(order, np.array([1.0, -1e-300, 2.0]))


def test_bessel_at_a_signed_zero_is_positive_zero():
    # np.unique keeps whichever equal zero sorts first; every zero gives +0.0
    for x in (-0.0, np.array([-0.0, 0.0]), np.array([0.0, -0.0, 1.0])):
        assert not np.signbit(bessel_i(1, x)).any()


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, np.array([0.5, np.nan, 0.0])],
                         ids=["nan", "inf", "-inf", "nan-in-array"])
@pytest.mark.parametrize("order", [0, 2])
def test_bessel_rejects_nonfinite_arguments(order, x):
    # NaN fails the negativity check and would take the leading term
    with pytest.raises(ValueError, match="x must be finite"):
        bessel_i(order, x)


# ---------------------------------------------------------------------------
# periodic quadrature
# ---------------------------------------------------------------------------

def test_periodic_trapezoid_constant():
    assert abs(periodic_trapezoid(np.ones(64)) - 2.0 * np.pi) < 1e-13


def test_periodic_trapezoid_pure_mode_vanishes():
    gamma = 2.0 * np.pi * np.arange(64) / 64
    assert abs(periodic_trapezoid(np.exp(1j * gamma))) < 1e-14


def test_periodic_trapezoid_von_mises_identity():
    # integral of exp(x*cos(g)) over the circle is 2*pi*I0(x)
    gamma = 2.0 * np.pi * np.arange(256) / 256
    value = periodic_trapezoid(np.exp(2.0 * np.cos(gamma)))
    assert abs(value - 2.0 * np.pi * I0_AT_2) < 1e-12


def test_periodic_trapezoid_exact_for_trig_polynomials():
    rng = np.random.default_rng(5)
    n = 64
    gamma = 2.0 * np.pi * np.arange(n) / n
    coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
    values = sum(c * np.exp(1j * (k - 10) * gamma) for k, c in enumerate(coeffs))
    exact = 2.0 * np.pi * coeffs[10]  # only the constant mode survives
    assert abs(periodic_trapezoid(values) - exact) < 1e-13 * abs(exact)


def test_periodic_trapezoid_explicit_step():
    vals = np.ones(10)
    assert periodic_trapezoid(vals, step=0.25) == 2.5


# ---------------------------------------------------------------------------
# fractional shift
# ---------------------------------------------------------------------------

def _unit_gaussian(grid):
    return np.pi ** -0.25 * np.exp(-grid.points ** 2 / 2.0)


def test_shift_by_zero_is_identity():
    grid = Grid1D.regular(-20.0, 20.0, 256)
    s = _unit_gaussian(grid)
    np.testing.assert_array_equal(batch_fractional_shift(s, grid.step, 0.0), s)


def test_shift_matches_analytic_gaussian():
    grid = Grid1D.regular(-20.0, 20.0, 1024)
    s = _unit_gaussian(grid)
    shifted = batch_fractional_shift(s, grid.step, 1.5)
    target = np.pi ** -0.25 * np.exp(-(grid.points - 1.5) ** 2 / 2.0)
    assert np.abs(shifted - target).max() < 1e-10


def test_integer_lattice_shift_is_exact_roll():
    grid = Grid1D.regular(-10.0, 10.0, 128)
    rng = np.random.default_rng(0)
    s = rng.normal(size=128) + 1j * rng.normal(size=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        out = batch_fractional_shift(s, grid.step, 7 * grid.step)
    np.testing.assert_array_equal(out, np.roll(s, 7))


def test_shift_round_trip():
    grid = Grid1D.regular(-20.0, 20.0, 512)
    s = _unit_gaussian(grid)
    back = batch_fractional_shift(batch_fractional_shift(s, grid.step, 2.3), grid.step, -2.3)
    assert np.abs(back - s).max() < 1e-12


def test_shift_composes_additively():
    grid = Grid1D.regular(-20.0, 20.0, 512)
    s = _unit_gaussian(grid)
    one = batch_fractional_shift(batch_fractional_shift(s, grid.step, 1.1), grid.step, 0.7)
    two = batch_fractional_shift(s, grid.step, 1.8)
    assert np.abs(one - two).max() < 1e-11


def test_shift_warns_on_hot_edges():
    with pytest.warns(EdgeEnergyWarning):
        batch_fractional_shift(np.ones(64), 0.1, 0.05)


def test_shift_rejects_matrices():
    # all-ones samples have hot edges: a warning issued before the shape
    # check would turn into an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift in (spectral_shift, batch_fractional_shift):
            with pytest.raises(ValueError, match="1-D samples"):
                shift(np.ones((4, 4)), 0.1, 0.05)
            with pytest.raises(ValueError, match="1-D samples"):
                shift(np.ones(4), 0.1, np.zeros((2, 2)))


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_shift_rejects_a_step_that_is_not_positive(step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift in (spectral_shift, batch_fractional_shift):
            with pytest.raises(ValueError, match="^step must be positive$"):
                shift(np.ones(8), step, 0.5)


def test_batch_shift_matches_singles():
    grid = Grid1D.regular(-20.0, 20.0, 256)
    s = _unit_gaussian(grid) * np.exp(0.3j * grid.points)
    shifts = np.array([-2.0, -0.37, 0.0, 1.9])
    rows = batch_fractional_shift(s, grid.step, shifts)
    for k, b in enumerate(shifts):
        np.testing.assert_allclose(rows[k],
                                   batch_fractional_shift(s, grid.step, b),
                                   rtol=0, atol=1e-14)


# a comb of shifts whose step is p/q cells shares q FFT translates; every
# row must still be the translate of its own shift
_COMB_SIZES = st.sampled_from((64, 128, 255))


def _two_bumps(grid):
    t = grid.points
    return np.exp(-t ** 2 / 2.0 + 0.7j * t) + 0.4 * np.exp(-(t - 3.0) ** 2)


def _assert_rows_are_single_shifts(s, step, shifts):
    rows = spectral_shift(s, step, shifts)
    singles = np.array([spectral_shift(s, step, b) for b in shifts])
    np.testing.assert_allclose(rows, singles, rtol=0,
                               atol=1e-13 * np.abs(s).max())


@given(n=_COMB_SIZES, start=st.floats(-20.0, 20.0),
       q=st.integers(1, 7), p=st.integers(-21, 21), count=st.integers(1, 64))
def test_rational_comb_rows_match_single_shifts(n, start, q, p, count):
    grid = Grid1D.regular(-20.0, 20.0, n)
    shifts = start + np.arange(count) * (p / q) * grid.step
    _assert_rows_are_single_shifts(_two_bumps(grid), grid.step, shifts)


def _assert_rows_equal_single_shifts(s, step, shifts):
    rows = spectral_shift(s, step, shifts)
    np.testing.assert_array_equal(
        rows, np.array([spectral_shift(s, step, b) for b in shifts]))


# far combs: 16 shifts from 2000.3 cells
@example(n=64, start=2000.3 * 40.0 / 64, count=16)
@example(n=255, start=2000.3 * 40.0 / 255, count=16)
@given(n=_COMB_SIZES, start=st.floats(-20.0, 20.0), count=st.integers(2, 24))
def test_comb_of_distinct_fractions_matches_single_shifts(n, start, count):
    # each shift its own fraction: its row is its single shift, bit for bit
    grid = Grid1D.regular(-20.0, 20.0, n)
    shifts = start + np.arange(count) * math.sqrt(2.0) * grid.step
    _assert_rows_equal_single_shifts(_two_bumps(grid), grid.step, shifts)


@given(n=_COMB_SIZES, first=st.integers(-600, 600), p=st.integers(-300, 300),
       count=st.integers(1, 24))
def test_whole_cell_comb_rows_are_exact_rolls(n, first, p, count):
    grid = Grid1D.regular(-20.0, 20.0, n)
    rng = np.random.default_rng(n)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    cells = first + p * np.arange(count)
    rows = spectral_shift(s, grid.step, cells * grid.step)
    for row, k in zip(rows, cells):
        np.testing.assert_array_equal(row, np.roll(s, k))


def test_far_single_shift_keeps_the_roundoff_of_its_fraction():
    # 2000.3 cells: the phase ramp is that of 0.3 cells and the 2000 whole
    # cells are an exact roll, so the roundoff does not grow with the shift
    grid = Grid1D.regular(-20.0, 20.0, 64)
    cells = 2000.3

    def harmonics(offset):
        # sum_k exp(2 pi i k (t - offset) / 40), each phase reduced exactly
        turns = [(Fraction(t) - offset) / 40 for t in grid.points]
        return sum(np.exp(2j * np.pi * np.array([float(k * x % 1) for x in turns]))
                   for k in (-31, -7, 3, 30))

    s = harmonics(0)
    exact = harmonics(Fraction(cells) * Fraction(grid.step))
    out = spectral_shift(s, grid.step, cells * grid.step)
    assert np.abs(out - exact).max() < 2e-14 * np.abs(s).max()


def test_half_cells_and_the_top_of_the_cell_share_one_translate(monkeypatch):
    # +1/2 is -1/2 a cell on, and so is a fraction just below +1/2: twelve
    # shifts with the fractions 1/2 and 1/4 take two inverse-FFT rows
    rows = []
    original = numerics.ifft

    def counting(x, *args, **kwargs):
        rows.append(np.size(x) // 64)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(numerics, "ifft", counting)
    grid = Grid1D.regular(-16.0, 16.0, 64)
    cells = np.array([0.5, 1.5, -0.5, -1.5, 2.5 - 4e-14, 3.5 + 4e-14,
                      0.25, 1.25, -0.75, 3.0, 4.0, -2.0])
    shifts = cells * grid.step
    spectral_shift(_two_bumps(grid), grid.step, shifts)
    assert sum(rows) == 2
    _assert_rows_are_single_shifts(_two_bumps(grid), grid.step, shifts)


def _translates_by_group(values, step, shifts):
    """spectral_shift with one inverse FFT call per group of fractions:
    the form that the batched calls replaced, the reference for their
    bits."""
    n = values.size
    starts, groups = numerics._split_shifts(shifts, step, n)
    spectrum = numerics.fft(values)
    nu = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    out = np.empty((shifts.size, n), dtype=complex)
    doubled = np.empty(2 * n, dtype=complex)
    for fraction, members in groups:
        if fraction:
            ramp = -1j * (fraction * step * nu)
            np.exp(ramp, out=ramp)
            numerics.ifft(np.multiply(spectrum, ramp, out=ramp), out=doubled[:n])
        else:
            doubled[:n] = values
        doubled[n:] = doubled[:n]
        for i in members:
            out[i] = doubled[starts[i]:starts[i] + n]
    return out


@pytest.mark.parametrize("n", [64, 1023, 2048])
@pytest.mark.parametrize("cells", [16 / 5, 165 / 127, math.sqrt(2.0) / 16],
                         ids=["16/5", "165/127", "sqrt2/16"])
def test_batched_inverse_ffts_give_the_bits_of_one_call_per_group(monkeypatch, n, cells):
    # 512 shifts from 0.37 cells: 5, 127 and 512 groups, in blocks of the
    # default budget and in blocks of 7 translates (24*n bytes each, with
    # their phases) and a remainder
    grid = Grid1D.regular(-20.0, 20.0, n)
    s = _two_bumps(grid)
    shifts = (0.37 + cells * np.arange(512)) * grid.step
    expected = _translates_by_group(s, grid.step, shifts)
    np.testing.assert_array_equal(spectral_shift(s, grid.step, shifts), expected)
    monkeypatch.setattr(numerics, "_TILE_BYTES", 7 * 24 * n)
    np.testing.assert_array_equal(spectral_shift(s, grid.step, shifts), expected)


def test_close_fractions_group_by_their_smallest_member():
    # neighbours 0.6e-12 cells apart chain across 1.8e-12 cells, farther
    # than the tolerance from the first; whole cells are group 0
    fraction = 0.3 + 0.6e-12 * np.array([3.0, 0.0, 2.0, 1.0])
    fraction = np.append(fraction, [0.0, 4e-13, -0.2])
    groups = _fraction_groups(fraction)
    assert [sorted(members) for _, members in groups] == [[4, 5], [6], [1, 3], [0, 2]]
    np.testing.assert_array_equal([head for head, _ in groups],
                                  [0.0, -0.2, 0.3, 0.3 + 1.2e-12])


# ---------------------------------------------------------------------------
# chirp-z transform
# ---------------------------------------------------------------------------

_FREQUENCY_COUNTS = {"below": lambda n: max(1, n // 2), "equal": lambda n: n,
                     "above": lambda n: 2 * n + 3, "one": lambda n: 1}


@pytest.mark.parametrize("counts", sorted(_FREQUENCY_COUNTS))
@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
@settings(max_examples=15)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40),
       st.floats(-10.0, 10.0), st.floats(0.01, 0.5),
       st.floats(-10.0, 10.0), st.floats(-0.5, 0.5))
def test_chirp_z_matches_the_dense_table(counts, sign, axis, seed, n, x0, dx, f0, df):
    # the dense formula is the oracle: exp(sign*1j*outer(f, x)) @ values
    n_f = _FREQUENCY_COUNTS[counts](n)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    x = x0 + dx * np.arange(n)
    f = f0 + df * np.arange(n_f)
    dense = np.exp(sign * 1j * np.outer(f, x)) @ values
    fast = chirp_z(values if axis == 0 else values.T, (x0, dx, n), (f0, df, n_f),
                   sign=sign, axis=axis)
    assert fast.shape == (dense.shape if axis == 0 else dense.T.shape)
    fast = fast if axis == 0 else fast.T
    assert np.all(np.abs(fast - dense) <= 1e-12 * np.abs(values).sum(axis=0))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_z_tiles_equal_per_line_calls(monkeypatch, sign, axis):
    # 11 lines in tiles of 4: the last tile is short.  Each line must equal
    # its own 1-D call bit for bit, and the dense table to roundoff.
    n, n_f, lines = 24, 10, 11
    nodes, comb = (-1.5, 0.125, n), (-3.0, 0.7, n_f)
    fft_bytes = 16 * numerics._next_fast_len(n + n_f - 1)
    monkeypatch.setattr(numerics, "_TILE_BYTES", 4 * fft_bytes + fft_bytes // 2)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(lines, n)) + 1j * rng.normal(size=(lines, n))
    tiled = chirp_z(values if axis == 1 else values.T, nodes, comb, sign, axis=axis)
    assert tiled.flags.c_contiguous
    tiled = tiled if axis == 1 else tiled.T
    for row, line in zip(tiled, values):
        assert np.array_equal(row, chirp_z(line, nodes, comb, sign))
    x = nodes[0] + nodes[1] * np.arange(n)
    f = comb[0] + comb[1] * np.arange(n_f)
    dense = values @ np.exp(sign * 1j * np.outer(f, x)).T
    assert np.all(np.abs(tiled - dense).T <= 1e-12 * np.abs(values).sum(axis=1))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_z_of_a_real_block_is_its_complex_cast(monkeypatch, sign, axis):
    # real values are not copied to complex: the real-by-complex pre-chirp
    # product must give the bits of the cast block, across short tiles too
    n, n_f = 40, 23
    nodes, comb = (-2.0, 0.1, n), (-1.5, 0.3, n_f)
    monkeypatch.setattr(numerics, "_TILE_BYTES",
                        3 * 16 * numerics._next_fast_len(n + n_f - 1))
    values = np.random.default_rng(5).normal(size=(n, 7))
    values = values if axis == 0 else values.T
    real = chirp_z(values, nodes, comb, sign, axis=axis)
    assert np.array_equal(real, chirp_z(values.astype(complex), nodes, comb,
                                        sign, axis=axis))


def test_chirp_z_tiles_a_middle_axis(monkeypatch):
    # along axis 1 of a (5, n, 3) block each tile holds whole entries of
    # axis 0, three lines each
    n, n_f = 16, 7
    nodes, comb = (0.0, 0.25, n), (-1.0, 0.5, n_f)
    monkeypatch.setattr(numerics, "_TILE_BYTES",
                        2 * 3 * 16 * numerics._next_fast_len(n + n_f - 1))
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, n, 3)) + 1j * rng.normal(size=(5, n, 3))
    tiled = chirp_z(values, nodes, comb, axis=1)
    assert tiled.shape == (5, n_f, 3) and tiled.flags.c_contiguous
    for i in range(5):
        for j in range(3):
            assert np.array_equal(tiled[i, :, j], chirp_z(values[i, :, j], nodes, comb))


def test_next_fast_len_matches_scipy():
    # the package picks its FFT lengths without importing scipy.fft
    from scipy.fft import next_fast_len

    targets = range(1, 10001)
    for real in (False, True):
        assert ([_next_fast_len(t, real) for t in targets]
                == [next_fast_len(t, real) for t in targets])


def test_chirp_z_rejects_mismatched_input():
    values = np.ones((4, 6))
    with pytest.raises(ValueError, match="values hold 6 samples"):
        chirp_z(values, (0.0, 1.0, 4), (0.0, 1.0, 3))
    with pytest.raises(ValueError, match="at least one frequency"):
        chirp_z(values, (0.0, 1.0, 6), (0.0, 1.0, 0))
    with pytest.raises(ValueError, match="sign"):
        chirp_z(values, (0.0, 1.0, 6), (0.0, 1.0, 3), sign=2)


def test_edge_peak_ratio_reads_chosen_border_lines():
    values = np.zeros((5, 6))
    values[2, 3] = -4.0
    values[2, 0] = 1.0
    values[4, 2] = 0.5
    assert edge_peak_ratio(values) == 0.25
    assert edge_peak_ratio(values, axes=(0,)) == 0.125
    assert edge_peak_ratio(values, axes=(1,)) == 0.25
    assert edge_peak_ratio(np.zeros(8)) == 0.0
    assert edge_peak_ratio(np.array([3.0, 1.0, 6.0, 2.0j])) == 0.5


def test_edge_mass_share_counts_corners_once():
    values = np.ones((4, 5))
    assert edge_mass_share(values) == 14.0 / 20.0
    assert edge_mass_share(values, axes=(0,)) == 10.0 / 20.0
    assert edge_mass_share(values, axes=(1,)) == 8.0 / 20.0
    assert edge_mass_share(np.zeros((4, 5))) == 0.0


def _edge_peak_ratio_of_magnitudes(values, axes=None):
    """Reference form of edge_peak_ratio: |values| of the whole array,
    refused when its peak is NaN or infinite."""
    mag = np.abs(np.asarray(values))
    peak = mag.max()
    if not np.isfinite(peak):
        raise ValueError("values must be finite")
    if peak == 0.0:
        return 0.0
    axes = range(mag.ndim) if axes is None else axes
    edge = max(np.take(mag, [0, -1], axis=ax).max() for ax in axes)
    return float(edge / peak)


def _edge_mass_share_by_cells(values, axes=None):
    """Reference form of edge_mass_share: the edge cells picked one at a
    time, in row-major order, refused when the total is NaN or infinite."""
    values = np.asarray(values)
    total = values.sum()
    if not np.isfinite(total):
        raise ValueError("values must be finite")
    if not total > 0:
        return 0.0
    axes = range(values.ndim) if axes is None else axes
    edge = [values[index] for index in np.ndindex(values.shape)
            if any(index[ax] in (0, values.shape[ax] - 1) for ax in axes)]
    return float(np.array(edge, dtype=values.dtype).sum() / total)


def _outcome(function, *args):
    """The float a call returns, told apart by sign and NaN, or the type of
    what it raises (warnings are errors in this suite)."""
    try:
        value = function(*args)
    except Exception as exc:  # the oracle must raise the same
        return type(exc)
    return ("nan",) if math.isnan(value) else (value, math.copysign(1.0, value))


_EDGE_SPECIALS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def _edge_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    size = math.prod(shape)
    zeros_only = draw(st.booleans())  # an all-zero array, zeros of either sign
    parts = []
    for _ in range(draw(st.integers(1, 2))):  # real, or real and imaginary
        part = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
        for index, special in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                                      _EDGE_SPECIALS), max_size=2)):
            part[index] = special
        parts.append(np.copysign(0.0, part) if zeros_only else part)
    values = np.empty(size, dtype=float if len(parts) == 1 else complex)
    values.real = parts[0]
    if len(parts) == 2:
        values.imag = parts[1]
    axes = draw(st.one_of(st.none(), st.permutations(range(len(shape))).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda k: tuple(order[:k])))))
    return values.reshape(shape), axes


@example(case=(np.array([[0.0, -0.0], [-0.0, 0.0]]), None))
@example(case=(np.array([1.0, math.nan, 2.0]), (0,)))
@example(case=(np.array([[-3.0, 1.0, 0.5]]), ()))
@example(case=(np.array([[0.5, 1.0], [-3.0, 0.25]]), (1,)))
@example(case=(np.array([[0.5, 1.0, 2.0], [3.0, 0.25, 1.5], [1.0, 2.0, 0.5]]), None))
@given(case=_edge_cases())
def test_edge_checks_equal_their_whole_array_forms(case):
    # same float for every input, signed zeros and NaN included, and the
    # same error where the whole-array forms raise
    values, axes = case
    with np.errstate(all="ignore"):
        assert (_outcome(edge_peak_ratio, values, axes)
                == _outcome(_edge_peak_ratio_of_magnitudes, values, axes))
        assert (_outcome(edge_mass_share, values, axes)
                == _outcome(_edge_mass_share_by_cells, values, axes))


# ---------------------------------------------------------------------------
# phase-space convolution
# ---------------------------------------------------------------------------

def _gaussian_2d(grid, var_omega, var_b):
    omega, b = grid.meshes()
    values = np.exp(-omega ** 2 / (2 * var_omega) - b ** 2 / (2 * var_b))
    norm = 2.0 * np.pi * np.sqrt(var_omega * var_b) / (2.0 * np.pi)
    return values / norm


def test_convolve_with_cell_delta_recenters():
    grid = PhaseSpaceGrid.square(-8.0, 8.0, 128)
    g = _gaussian_2d(grid, 1.0, 1.0)
    delta = np.zeros(grid.shape)
    delta[grid.omega_axis.origin_index(), grid.b_axis.origin_index()] = 1.0 / grid.cell_measure
    out = grid_convolve(delta, g, grid)
    assert np.abs(out - g).max() < 1e-6 * g.max()


def test_convolve_gaussians_adds_variances():
    grid = PhaseSpaceGrid.square(-12.0, 12.0, 192)
    f = _gaussian_2d(grid, 1.0, 0.5)
    g = _gaussian_2d(grid, 2.0, 1.5)
    out = grid_convolve(f, g, grid)
    target = _gaussian_2d(grid, 3.0, 2.0)
    assert np.abs(out - target).max() < 1e-8


def test_convolve_conserves_mass_product():
    grid = PhaseSpaceGrid.square(-10.0, 10.0, 128)
    f = _gaussian_2d(grid, 0.8, 1.1)
    g = _gaussian_2d(grid, 1.3, 0.6)
    out = grid_convolve(f, g, grid)
    product = grid.integrate(f) * grid.integrate(g)
    assert abs(grid.integrate(out) - product) < 1e-10


def test_convolve_commutes():
    grid = PhaseSpaceGrid.square(-10.0, 10.0, 96)
    rng = np.random.default_rng(3)
    omega, b = grid.meshes()
    env = np.exp(-(omega ** 2 + b ** 2) / 4.0)
    f = env * (1.0 + 0.2 * np.cos(omega))
    g = env * (1.0 + 0.1 * np.sin(b))
    fg = grid_convolve(f, g, grid)
    gf = grid_convolve(g, f, grid)
    assert np.abs(fg - gf).max() < 1e-12


_ORIGINS = {"first": lambda n: 0, "last": lambda n: n - 1,
            "middle": lambda n: n // 2, "off-centre": lambda n: n // 4}


@pytest.mark.parametrize("origin", sorted(_ORIGINS))
@pytest.mark.parametrize("n", [7, 8])
def test_convolve_matches_the_direct_double_sum(n, origin):
    # the padding is trimmed to the window kept around the origin: an
    # origin at either end needs the full 2n - 1, one in the middle 1.5n
    axes = [Grid1D(-_ORIGINS[origin](count) * 0.25, 0.25, count) for count in (n, n + 3)]
    grid = PhaseSpaceGrid(*axes)
    rng = np.random.default_rng(n)
    f, g = rng.random(grid.shape), rng.random(grid.shape)
    (n0, n1), s0, s1 = grid.shape, axes[0].origin_index(), axes[1].origin_index()
    full = np.zeros((2 * n0 - 1, 2 * n1 - 1))
    for i in range(n0):
        for j in range(n1):
            full[i:i + n0, j:j + n1] += f[i, j] * g
    direct = grid.cell_measure * full[s0:s0 + n0, s1:s1 + n1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        out = grid_convolve(f, g, grid)
    assert np.abs(out - direct).max() < 1e-13 * direct.max()


def _untiled_separable_convolve(f, along_omega, along_b, grid):
    """Reference form of _separable_convolve: each pass transforms every
    line at once, in one padded block."""
    (s0, p0), (s1, p1) = _wrap_free_window(grid.omega_axis), _wrap_free_window(grid.b_axis)
    n0, n1 = grid.shape
    spectrum = np.fft.rfft(f, p0, axis=0)
    spectrum *= (grid.cell_measure * np.fft.rfft(along_omega, p0))[:, None]
    lines = np.fft.irfft(spectrum, p0, axis=0)[s0:s0 + n0]
    spectrum = np.fft.rfft(lines, p1, axis=1)
    spectrum *= np.fft.rfft(along_b, p1)
    return np.fft.irfft(spectrum, p1, axis=1)[:, s1:s1 + n1]


@st.composite
def _origin_axis(draw):
    count = draw(st.integers(2, 40))
    step = draw(st.sampled_from([0.1, 0.25, 0.3]))
    return Grid1D(-draw(st.integers(0, count - 1)) * step, step, count)


@example(seed=0, omega_axis=Grid1D(-1.0, 0.25, 9), b_axis=Grid1D(0.0, 0.25, 14),
         lines=0, spare=0)  # one line per tile in both passes
@example(seed=1, omega_axis=Grid1D(-1.0, 0.25, 9), b_axis=Grid1D(-3.0, 0.25, 14),
         lines=40, spare=0)  # the grid below one tile
@given(seed=st.integers(0, 2 ** 32 - 1), omega_axis=_origin_axis(), b_axis=_origin_axis(),
       lines=st.integers(0, 43), spare=st.integers(0, 100))
def test_tiled_separable_convolve_is_the_untiled_one_bit_for_bit(seed, omega_axis, b_axis,
                                                                  lines, spare):
    # omega-pass tiles of `lines` columns (one when 0), b-pass tiles of as
    # many rows as that budget holds; origins anywhere on non-square grids
    grid = PhaseSpaceGrid(omega_axis, b_axis)
    rng = np.random.default_rng(seed)
    f = rng.random(grid.shape)
    along_omega, along_b = rng.random(omega_axis.count), rng.random(b_axis.count)
    tile_bytes = lines * 16 * _wrap_free_window(omega_axis)[1] + spare
    with mock.patch.object(numerics, "_TILE_BYTES", tile_bytes):
        tiled = _separable_convolve(f, along_omega, along_b, grid)
    assert tiled.flags.c_contiguous
    assert np.array_equal(tiled, _untiled_separable_convolve(f, along_omega, along_b, grid))


def test_convolve_warns_on_leaky_edges():
    grid = PhaseSpaceGrid.square(-2.0, 2.0, 32)
    wide = _gaussian_2d(grid, 9.0, 9.0)
    tight = _gaussian_2d(grid, 0.05, 0.05)
    with pytest.warns(EdgeEnergyWarning):
        grid_convolve(wide, tight, grid)


def test_convolve_warning_names_truncation_not_wrap_around():
    grid = PhaseSpaceGrid.square(-2.0, 2.0, 32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid_convolve(_gaussian_2d(grid, 9.0, 9.0), _gaussian_2d(grid, 0.05, 0.05), grid)
    texts = [str(w.message) for w in caught]
    assert texts and all("truncated" in t and "wrap" not in t for t in texts)


def test_convolve_shape_mismatch():
    grid = PhaseSpaceGrid.square(-2.0, 2.0, 32)
    with pytest.raises(ValueError):
        grid_convolve(np.ones((32, 32)), np.ones((16, 16)), grid)


# ---------------------------------------------------------------------------
# minima search
# ---------------------------------------------------------------------------

def test_paraboloid_has_single_origin_minimum():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 128)
    omega, b = grid.meshes()
    hits = find_local_minima(omega ** 2 + b ** 2, grid)
    assert len(hits) == 1
    om, bb, value = hits[0]
    assert abs(om) < 1e-12 and abs(bb) < 1e-12
    assert value < 1e-12


def test_zero_of_polynomial_factor_is_found():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 128)
    omega, b = grid.meshes()
    z = b + 1j * omega
    w = np.abs(z - 1.0) ** 2 * np.exp(-np.abs(z) ** 2)
    hits = find_local_minima(w, grid)
    assert len(hits) == 1
    om, bb, _ = hits[0]
    cell = grid.b_axis.step
    assert abs(bb - 1.0) < cell and abs(om) < cell


def test_constant_surface_has_no_minima():
    grid = PhaseSpaceGrid.square(-1.0, 1.0, 16)
    assert find_local_minima(np.ones(grid.shape), grid) == []


def test_off_lattice_minimum_is_refined():
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 64)
    omega, b = grid.meshes()
    w = (omega - 0.31) ** 2 + (b + 0.27) ** 2
    hits = find_local_minima(w, grid, rel_threshold=1.0)
    # quadratic surface, so the 3x3 least-squares fit recovers it exactly
    assert len(hits) == 1
    om, bb, _ = hits[0]
    assert abs(om - 0.31) < 1e-9 and abs(bb + 0.27) < 1e-9


def test_refine_design_is_the_quadratic_fit_pseudo_inverse():
    u, v = np.repeat((-1.0, 0.0, 1.0), 3), np.tile((-1.0, 0.0, 1.0), 3)
    design = np.column_stack([np.ones(9), u, v, u * u, u * v, v * v])
    assert np.array_equal(_refine_design(), np.linalg.pinv(design))
    assert _refine_design() is _refine_design()


def test_minima_sorted_by_depth():
    grid = PhaseSpaceGrid.square(-8.0, 8.0, 128)
    omega, b = grid.meshes()
    deep = 0.2 + (omega - 3.0) ** 2 + b ** 2
    shallow = 1.0 + (omega + 3.0) ** 2 + b ** 2
    w = np.minimum(deep, shallow)
    hits = find_local_minima(w, grid, rel_threshold=1.0)
    assert len(hits) == 2
    assert hits[0][2] < hits[1][2]
    assert abs(hits[0][0] - 3.0) < 0.01


def test_threshold_validation():
    grid = PhaseSpaceGrid.square(-1.0, 1.0, 16)
    w = np.ones(grid.shape)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            find_local_minima(w, grid, rel_threshold=bad)
    with pytest.raises(ValueError):
        find_local_minima(np.ones((4, 4)), grid)
