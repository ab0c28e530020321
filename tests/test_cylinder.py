"""Windowed analysis on the circle: integer-frequency displacements, the
von Mises reproducing kernel, and the transform/resynthesis pair."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import iv

from weylgabor.cylinder import (
    CircularSignal,
    CylCoefficients,
    TruncationWarning,
    adaptive_m_cutoff,
    circle_grid,
    cyl_gabor_transform,
    cyl_reconstruct,
    displace,
    displacement_matrix_element,
    reproducing_kernel,
    truncated_trace,
    von_mises,
)
from weylgabor.numerics import EdgeEnergyWarning, Grid1D, bessel_i, spectral_shift

TWO_PI = 2.0 * np.pi

# frozen once from the ascending power series for I0 at 2
I0_AT_2 = 2.279585302336067


def _fourier_mode(n, n_gamma=256):
    grid = circle_grid(n_gamma)
    return CircularSignal(grid, np.exp(1j * n * grid.points) / np.sqrt(TWO_PI))


def _inner(f, g):
    return complex(f.grid.step * np.sum(np.conj(f.values) * g.values))


# ---------------------------------------------------------------------------
# grids and windows
# ---------------------------------------------------------------------------

def test_circle_grid_covers_once():
    grid = circle_grid(64)
    assert grid.points[0] == 0.0
    assert abs(grid.span - TWO_PI) < 1e-12
    assert abs(grid.points[-1] + grid.step - TWO_PI) < 1e-12


def test_circular_signal_rejects_noncircle_grid():
    with pytest.raises(ValueError):
        CircularSignal(Grid1D.regular(-1.0, 1.0, 64), np.zeros(64))
    with pytest.raises(ValueError):
        CircularSignal(circle_grid(64), np.zeros(63))


def test_circular_signal_is_a_finite_sampled_signal():
    w = von_mises(2.0, 64)
    assert type(CircularSignal(w.grid, 3.0 * w.values).normalized()) is CircularSignal
    with pytest.raises(ValueError, match="finite"):
        CircularSignal(w.grid, np.full(64, np.nan))


def test_von_mises_flat_at_zero_concentration():
    w = von_mises(0.0)
    np.testing.assert_allclose(w.values, 1.0 / np.sqrt(TWO_PI), rtol=0, atol=1e-15)


def test_von_mises_unit_norm():
    assert abs(von_mises(1.0).norm - 1.0) < 1e-12
    assert abs(von_mises(5e-324).norm - 1.0) < 1e-12


def test_von_mises_peak_value():
    w = von_mises(1.0)
    assert abs(w.values[0] - np.e / np.sqrt(TWO_PI * I0_AT_2)) < 1e-12


def test_von_mises_concentration_range():
    with pytest.raises(ValueError):
        von_mises(-0.1)
    with pytest.raises(ValueError):
        von_mises(50.5)


# ---------------------------------------------------------------------------
# displacement operators
# ---------------------------------------------------------------------------

def test_displace_at_origin_is_identity():
    w = von_mises(2.0)
    out = displace(0, 0.0, w)
    assert np.abs(out.values - w.values).max() < 1e-14


def test_displace_is_unitary():
    w = von_mises(2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(-8, 9))
        theta = float(rng.uniform(0.0, TWO_PI))
        assert abs(displace(m, theta, w).norm - 1.0) < 1e-12


def test_displacement_composition_phase():
    w = von_mises(2.0)
    m1, t1, m2, t2 = 3, 0.7, -2, 1.1
    lhs = displace(m1, t1, displace(m2, t2, w)).values
    phase = np.exp(0.5j * (m1 * t2 - m2 * t1))
    rhs = phase * displace(m1 + m2, t1 + t2, w).values
    assert np.abs(lhs - rhs).max() < 1e-11


def test_displacement_conjugation_rule():
    # D(m,t) D(m',t') D(m,t)^-1 = exp(1j*(m t' - m' t)) D(m',t')
    w = von_mises(2.0)
    m1, t1, m2, t2 = 3, 0.7, -2, 1.1
    chain = displace(m1, t1, displace(m2, t2, displace(-m1, -t1, w))).values
    rhs = np.exp(1j * (m1 * t2 - m2 * t1)) * displace(m2, t2, w).values
    assert np.abs(chain - rhs).max() < 1e-11


def test_displace_keeps_the_circle_and_never_checks_edges():
    # a von Mises window peaks at gamma = 0, the first sample; a rotation
    # has no edge, so the shared displacement must not warn
    w = von_mises(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EdgeEnergyWarning)
        moved = displace(2, 0.37, w)
    assert type(moved) is CircularSignal


def test_full_turn_flips_sign_for_odd_m():
    w = von_mises(2.0)
    plus = displace(3, 0.9 + TWO_PI, w).values
    base = displace(3, 0.9, w).values
    assert np.abs(plus + base).max() < 1e-11


# ---------------------------------------------------------------------------
# matrix elements on the Fourier basis
# ---------------------------------------------------------------------------

def test_matrix_element_worked_example():
    assert displacement_matrix_element(2, np.pi, 3, 1) == pytest.approx(1.0)


def test_matrix_element_selection_rule():
    assert displacement_matrix_element(2, 0.3, 3, 2) == 0j
    assert displacement_matrix_element(1, 1.0, 4, 4) == 0j


def test_matrix_elements_match_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(-8, 9))
        n = int(rng.integers(-8, 9))
        theta = float(rng.uniform(0.0, TWO_PI))
        moved = displace(m, theta, _fourier_mode(n - m))
        quad = _inner(_fourier_mode(n), moved)
        closed = displacement_matrix_element(m, theta, n, n - m)
        assert abs(quad - closed) < 1e-12
        # a mismatched output index pairs to zero
        off = _inner(_fourier_mode(n + 1), moved)
        assert abs(off) < 1e-12


def test_truncated_trace_vanishes_off_zero_mode():
    assert truncated_trace(3, 0.8, 10) == 0j
    assert truncated_trace(-1, 2.0, 4) == 0j


def test_truncated_trace_at_origin_counts_modes():
    assert truncated_trace(0, 0.0, 10) == pytest.approx(21.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_truncated_trace_dirichlet_form(theta):
    n_cut = 12
    closed = np.sin((n_cut + 0.5) * theta) / np.sin(theta / 2.0)
    assert abs(truncated_trace(0, theta, n_cut) - closed) < 1e-10


def test_truncated_trace_requires_positive_cut():
    with pytest.raises(ValueError):
        truncated_trace(0, 0.5, 0)


def test_trace_pairing_against_poisson_kernel():
    # pairing (1/2pi) integral f(theta) trace_N(theta) recovers the partial
    # Fourier mass of f; for f the Poisson kernel at r = 0.9 the deficit from
    # the full mass 19 is exactly 2 r^(N+1) / (1 - r)
    grid = circle_grid(512)
    r = 0.9
    f = (1.0 - r ** 2) / (1.0 - 2.0 * r * np.cos(grid.points) + r ** 2)
    cases = [
        (8, 7.748409780000004, 1e-12),
        (32, 0.6180630876526528, 1e-11),
        (128, 2.502152142788614e-05, 1e-6),
    ]
    deficits = []
    for n_cut, tail, rtol in cases:
        traces = np.array([truncated_trace(0, t, n_cut) for t in grid.points])
        pairing = grid.step / TWO_PI * np.sum(f * traces)
        assert abs(pairing.imag) < 1e-12
        deficit = 19.0 - pairing.real
        assert deficit == pytest.approx(tail, rel=rtol)
        deficits.append(deficit)
    assert deficits[0] > deficits[1] > deficits[2]


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------

def test_kernel_coincident_points_give_exactly_one():
    assert reproducing_kernel(2.0, 3, 1.234, 3, 1.234) == 1.0 + 0j
    assert reproducing_kernel(0.7, -2, 0.0, -2, 0.0) == 1.0 + 0j


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m, mp = (int(v) for v in rng.integers(-8, 9, size=2))
        t, tp = rng.uniform(0.0, TWO_PI, size=2)
        k = reproducing_kernel(1.5, m, t, mp, tp)
        assert abs(k - np.conj(reproducing_kernel(1.5, mp, tp, m, t))) < 1e-15


@pytest.mark.parametrize("lam", [0.5, 2.0, 40.0])
def test_kernel_grid_matches_scipy_bessel(lam):
    # theta - theta' spans (-4*pi, 4*pi), so cos of the half-difference
    # takes both signs; negative arguments fold as I_n(-x) = (-1)^n I_n(x)
    axis = Grid1D.regular(-TWO_PI, TWO_PI, 41).points
    t, tp = axis[:, None], axis[None, :]
    for m, mp in ((3, 0), (-2, 3), (1, 1)):
        grid = reproducing_kernel(lam, m, t, mp, tp)
        x = 2.0 * lam * np.cos((t - tp) / 2.0)
        nu = abs(m - mp)
        radial = np.sign(x) ** nu * iv(nu, np.abs(x)) / iv(0, 2.0 * lam)
        expected = np.exp(1j * (mp * t - m * tp) / 2.0) * radial
        assert grid.shape == (41, 41)
        assert (x < 0).any()
        assert np.array_equal(grid, expected)
    assert isinstance(reproducing_kernel(lam, 1, 0.3, 0, 2.0), complex)


def test_kernel_modulus_is_bessel_ratio():
    lam, m, t, mp, tp = 2.0, 4, 0.9, 1, 2.2
    k = reproducing_kernel(lam, m, t, mp, tp)
    x = 2.0 * lam * np.cos((t - tp) / 2.0)
    assert abs(abs(k) - bessel_i(3, abs(x)) / bessel_i(0, 2.0 * lam)) < 1e-13


def test_kernel_matches_quadrature():
    lam = 2.0
    w = von_mises(lam)
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, mp = (int(v) for v in rng.integers(-8, 9, size=2))
        t, tp = (float(v) for v in rng.uniform(0.0, TWO_PI, size=2))
        quad = _inner(displace(m, t, w), displace(mp, tp, w))
        assert abs(quad - reproducing_kernel(lam, m, t, mp, tp)) < 1e-10


def test_kernel_full_turn_sign():
    base = reproducing_kernel(2.0, 3, 0.9, -1, 0.4)
    assert abs(reproducing_kernel(2.0, 3, 0.9 + TWO_PI, -1, 0.4) + base) < 1e-12
    even = reproducing_kernel(2.0, 4, 0.9, -1, 0.4)
    assert abs(reproducing_kernel(2.0, 4, 0.9 + TWO_PI, -1, 0.4) - even) < 1e-12


def test_kernel_rejects_nonpositive_concentration():
    with pytest.raises(ValueError):
        reproducing_kernel(0.0, 1, 0.0, 0, 0.0)


def test_kernel_rejects_concentration_beyond_von_mises_range():
    # lambda <= 50 bounds I0(2*lambda) by 1.1e42, as for von_mises
    reproducing_kernel(50.0, 1, 0.0, 0, 0.0)
    with pytest.raises(ValueError):
        reproducing_kernel(50.5, 1, 0.0, 0, 0.0)


# ---------------------------------------------------------------------------
# adaptive cutoff
# ---------------------------------------------------------------------------

def test_adaptive_cutoff_von_mises_alone():
    assert adaptive_m_cutoff(von_mises(2.0, 128)) == 11
    assert adaptive_m_cutoff(von_mises(2.0)) == 11


def test_adaptive_cutoff_grows_with_displaced_signal():
    w = von_mises(2.0, 128)
    assert adaptive_m_cutoff(w, displace(2, 0.7, w)) == 13


def test_adaptive_cutoff_grid_mismatch():
    with pytest.raises(ValueError):
        adaptive_m_cutoff(von_mises(2.0, 128), von_mises(2.0, 256))


# ---------------------------------------------------------------------------
# transform and resynthesis
# ---------------------------------------------------------------------------

def test_transform_of_zero_signal():
    w = von_mises(2.0)
    zero = CircularSignal(w.grid, np.zeros(w.grid.count))
    assert np.abs(cyl_gabor_transform(w, zero, 8).values).max() == 0.0


def test_self_transform_equals_kernel_at_origin():
    w = von_mises(2.0)
    coeffs = cyl_gabor_transform(w, w, 12)
    thetas = w.grid.points
    for i, m in enumerate(coeffs.m_values):
        for j in range(0, w.grid.count, 16):
            k = reproducing_kernel(2.0, int(m), float(thetas[j]), 0, 0.0)
            assert abs(coeffs.values[i, j] - k) < 1e-10


def test_transform_parseval():
    w = von_mises(2.0)
    grid = w.grid
    sig = CircularSignal(grid, np.exp(3j * grid.points) * (1.0 + np.cos(grid.points)))
    sig = sig.normalized()
    coeffs = cyl_gabor_transform(w, sig, 32)
    assert abs(coeffs.energy - sig.energy) < 1e-8


def test_transform_window_must_be_normalized():
    w = von_mises(2.0)
    bad = CircularSignal(w.grid, 2.0 * w.values)
    with pytest.raises(ValueError):
        cyl_gabor_transform(bad, w, 8)
    with pytest.raises(ValueError):
        cyl_reconstruct(bad, cyl_gabor_transform(w, w, 8))


def test_transform_m_range_limited_by_sampling():
    w = von_mises(2.0, 16)
    with pytest.raises(ValueError):
        cyl_gabor_transform(w, w, 8)


def test_round_trip_von_mises():
    w = von_mises(2.0)
    rec = cyl_reconstruct(w, cyl_gabor_transform(w, w, 12))
    rel = np.abs(rec.values - w.values).max() / np.abs(w.values).max()
    assert rel < 1e-8


def test_round_trip_modulated_signal():
    w = von_mises(2.0)
    grid = w.grid
    sig = CircularSignal(grid, np.exp(3j * grid.points) * (1.0 + np.cos(grid.points)))
    sig = sig.normalized()
    rec = cyl_reconstruct(w, cyl_gabor_transform(w, sig, 32))
    rel = np.abs(rec.values - sig.values).max() / np.abs(sig.values).max()
    assert rel < 1e-8


def test_periodic_shifts_raise_no_edge_warning():
    # a von Mises window peaks at gamma = 0, the first grid sample; on the
    # circle that is no edge, so the shifts must not warn about wrap-around
    w = von_mises(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EdgeEnergyWarning)
        moved = displace(1, 0.3, w)
        cyl_reconstruct(w, cyl_gabor_transform(w, moved, 24))


def test_reconstruct_warns_on_small_cutoff():
    w = von_mises(2.0)
    grid = w.grid
    sig = CircularSignal(grid, np.exp(3j * grid.points) * (1.0 + np.cos(grid.points)))
    sig = sig.normalized()
    with pytest.warns(TruncationWarning):
        cyl_reconstruct(w, cyl_gabor_transform(w, sig, 3))


def test_coefficient_shape_validation():
    with pytest.raises(ValueError):
        CylCoefficients(4, circle_grid(32), np.zeros((8, 32)))


# ---------------------------------------------------------------------------
# transform against independent oracles
# ---------------------------------------------------------------------------

def _fft_gather_transform(psi, phi, m_max):
    """Reference form of the circle transform: for each angle, one FFT of
    the windowed product conj(psi(g - theta)) phi(g), its m-slices gathered
    from the signed FFT comb and multiplied by exp(1j*m*theta/2)."""
    thetas = phi.grid.points
    windows = spectral_shift(psi.values, psi.grid.step, thetas)
    spectra = phi.grid.step * np.fft.fft(np.conj(windows) * phi.values[None, :], axis=1)
    m_vals = np.arange(-m_max, m_max + 1)
    gathered = spectra[:, m_vals % phi.grid.count].T
    return np.exp(1j * np.outer(m_vals, thetas) / 2.0) * gathered


def _random_circular_signal(seed, n_gamma):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n_gamma) + 1j * rng.normal(size=n_gamma)
    return CircularSignal(circle_grid(n_gamma), values).normalized()


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([15, 16, 33, 64]),
       st.floats(0.0, 1.0), st.floats(0.0, 5.0))
def test_transform_matches_fft_gather_and_inner_products(seed, n_gamma, m_frac, lam):
    psi = von_mises(lam, n_gamma).normalized()
    phi = _random_circular_signal(seed, n_gamma)
    m_max = int(round(m_frac * ((n_gamma - 1) // 2)))
    coeffs = cyl_gabor_transform(psi, phi, m_max)
    assert np.abs(coeffs.values - _fft_gather_transform(psi, phi, m_max)).max() < 1e-12
    rng = np.random.default_rng(seed + 1)
    for _ in range(6):
        i = int(rng.integers(0, 2 * m_max + 1))
        j = int(rng.integers(0, n_gamma))
        m, theta = int(coeffs.m_values[i]), float(phi.grid.points[j])
        direct = _inner(displace(m, theta, psi), phi)
        assert abs(coeffs.values[i, j] - direct) < 1e-12


@pytest.mark.parametrize("n_gamma", [15, 64])
def test_one_frequency_comb_matches_fft_gather_and_direct_sums(n_gamma):
    # m_max = 0: the comb holds m = 0 alone, so there is no step to infer
    psi = von_mises(1.5, n_gamma).normalized()
    phi = _random_circular_signal(7, n_gamma)
    coeffs = cyl_gabor_transform(psi, phi, 0)
    assert coeffs.values.shape == (1, n_gamma)
    assert np.abs(coeffs.values - _fft_gather_transform(psi, phi, 0)).max() < 1e-12
    for j, theta in enumerate(phi.grid.points):
        direct = _inner(displace(0, float(theta), psi), phi)
        assert abs(coeffs.values[0, j] - direct) < 1e-12
    with pytest.warns(TruncationWarning):
        recon = cyl_reconstruct(psi, coeffs)
    # resynthesis at m = 0: (dtheta/2pi) sum_theta S(0, theta) psi(g - theta)
    windows = spectral_shift(psi.values, psi.grid.step, phi.grid.points)
    direct = phi.grid.step / TWO_PI * (coeffs.values[0] @ windows)
    assert np.abs(recon.values - direct).max() < 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([15, 33]), st.floats(0.0, 5.0))
def test_full_comb_transform_is_parseval(seed, n_gamma, lam):
    # with all n = 2*M + 1 Fourier indices the comb is a full DFT, so the
    # coefficient energy equals the signal energy up to roundoff
    psi = von_mises(lam, n_gamma).normalized()
    phi = _random_circular_signal(seed, n_gamma)
    coeffs = cyl_gabor_transform(psi, phi, (n_gamma - 1) // 2)
    assert abs(coeffs.energy - phi.energy) < 1e-12
