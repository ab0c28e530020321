"""Covariant quantization of phase-space densities and their smoothed portraits.

A probability density w(omega, b) on the time-frequency plane (mass 1
against d(omega) d(b) / (2*pi)) is mapped to an integral operator on the
sampled time axis by smearing the displaced projectors of a unit-norm
probe:

    rho_w = sum over grid cells of  w * |psi_{omega,b}><psi_{omega,b}| * dM,

which lands on the kernel

    R(t, t') = (1/sqrt(2*pi)) integral db  w_p(t'-t, b) psi(t-b) conj(psi(t'-b)),

where w_p(xi, b) = (1/sqrt(2*pi)) integral d(omega) exp(-1j*omega*xi) w(omega, b)
is the partial Fourier transform of w along the frequency axis.  The
assembly below is an exact regrouping of the cell-weighted sum of
projectors onto spectrally displaced probe copies (which keep exact unit
norm): at each lag the sum over b-nodes becomes a sum over the
frequencies of the probe's lag product, the form
A_f = integral varpi(zeta) fhat(zeta) D(zeta) d(zeta)/(2*pi), with varpi
the probe's ambiguity function, on the (lag, frequency) lattice.  So the
kernel has trace equal to the mass of w and is positive semidefinite, both
up to float roundoff, for every non-negative w.

The reverse direction is the smoothed portrait: the expectation values of
rho_w against displaced projectors of a second probe form the convolution
of w with the two-probe overlap density P(omega, b) = overlap_kernel(a, r),
a product of one Gaussian in omega and one in b, so the portrait smooths
one axis at a time.

overlap_kernel_quadrature has no caller in the package but stays here as
the documented oracle of overlap_kernel, which the acceptance tests
import from this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from . import numerics
from .gabor import SampledSignal, _require_unit_norm
from .numerics import (
    _TRUNCATED_EDGES,
    EdgeEnergyWarning,
    Grid1D,
    PhaseSpaceGrid,
    _require_finite,
    _separable_convolve,
    _warn_health,
    chirp_z,
    edge_peak_ratio,
)

__all__ = [
    "BandCoverageWarning",
    "Distribution",
    "OperatorKernel",
    "gaussian_distribution",
    "point_mass_distribution",
    "overlap_kernel",
    "overlap_kernel_quadrature",
    "portrait",
    "quantize_to_kernel",
    "weyl_operator_from_weight",
    "kernel_diagnostics",
    "density_diagnostics",
    "positivity_certificate",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class BandCoverageWarning(UserWarning):
    """The distribution carries visible weight at the edge of its frequency
    band, so the quantized kernel undersamples the intended operator."""


# ---------------------------------------------------------------------------
# containers and builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Distribution:
    """Non-negative density on a phase-space grid, measure d(omega)d(b)/(2*pi)."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError("values must match the grid shape")
        # min and max are NaN or infinite if any entry is, and give the
        # peak |value|: no mask or |values| copy of the grid is built
        low, high = values.min(), values.max()
        _require_finite((low, high), "distribution values")
        peak = max(high, -low)
        if peak > 0 and low < -1e-9 * peak:
            raise ValueError("distribution values must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def mass(self) -> float:
        return float(self.grid.integrate(self.values))

    def normalized(self) -> "Distribution":
        m = self.mass
        if not 0 < m < np.inf:  # massless, or values summing beyond float range
            raise ValueError("cannot normalize a distribution of mass %r" % m)
        return Distribution(self.grid, self.values / m)


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Integral kernel K(t_i, t_j) of an operator on sampled signals:
    (K s)(t_i) = quad_weight * sum_j entries[i, j] s[j]."""

    time_grid: Grid1D
    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=complex)
        n = self.time_grid.count
        if entries.shape != (n, n):
            raise ValueError("entries must be a square matrix on the time grid")
        # as for Distribution: min and max of the real and imaginary parts,
        # with no mask of the matrix
        parts = entries.view(float)
        _require_finite((parts.min(), parts.max()), "entries")
        object.__setattr__(self, "entries", entries)

    @property
    def quad_weight(self) -> float:
        return self.time_grid.step


def gaussian_distribution(grid: PhaseSpaceGrid, sigma_omega: float = 1.0,
                          sigma_b: float = 1.0, center=(0.0, 0.0)) -> Distribution:
    """Unit-mass Gaussian density exp(-(omega-omega0)^2/(2*sigma_omega^2))
    * exp(-(b-b0)^2/(2*sigma_b^2)) / (sigma_omega*sigma_b) about ``center`` =
    (omega0, b0): the outer product of its two axis Gaussians.  A width
    whose 2*sigma^2 underflows to 0, or a pair whose product is below the
    smallest normal float, where the peak 1/(sigma_omega*sigma_b) can
    overflow, raises a ValueError naming it."""
    _require_finite(sigma_omega, "sigma_omega")
    _require_finite(sigma_b, "sigma_b")
    _require_finite(center, "center")
    if sigma_omega <= 0 or sigma_b <= 0:
        raise ValueError("standard deviations must be positive")
    for sigma, name in ((sigma_omega, "sigma_omega"), (sigma_b, "sigma_b")):
        # only a width below 1 is squared here: a wide one may overflow
        if sigma < 1.0 and 2.0 * sigma ** 2 == 0.0:
            raise ValueError("%s is too small: 2*%s**2 underflows to 0" % (name, name))
    if sigma_omega < np.finfo(float).tiny / sigma_b:
        raise ValueError("sigma_omega * sigma_b is too small: the peak density overflows")
    along_omega = _axis_gaussian(grid.omega_axis, center[0], sigma_omega)
    along_b = _axis_gaussian(grid.b_axis, center[1], sigma_b)
    return Distribution(grid, np.outer(along_omega, along_b) / (sigma_omega * sigma_b))


def _axis_gaussian(axis: Grid1D, center: float, sigma: float) -> np.ndarray:
    """exp(-(x - center)^2/(2*sigma^2)) at the points x of ``axis``.  sigma
    is squared as a numpy float, so an overflowing 2*sigma^2 or quotient
    takes its limit, exp(-x^2/inf) = 1 or exp(-inf) = 0, without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(-(axis.points - center) ** 2 / (2.0 * np.float64(sigma) ** 2))


def point_mass_distribution(grid: PhaseSpaceGrid, omega0: float, b0: float) -> Distribution:
    """Unit mass concentrated on the single grid cell nearest (omega0, b0)."""
    _require_finite(omega0, "omega0")
    _require_finite(b0, "b0")
    values = np.zeros(grid.shape)
    i = int(round((omega0 - grid.omega_axis.start) / grid.omega_axis.step))
    j = int(round((b0 - grid.b_axis.start) / grid.b_axis.step))
    if not (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]):
        raise ValueError("(omega0, b0) is outside the grid")
    values[i, j] = 1.0 / grid.cell_measure
    return Distribution(grid, values)


# ---------------------------------------------------------------------------
# two-probe overlap density
# ---------------------------------------------------------------------------

def _overlap_widths(a: float, r: float) -> tuple:
    """(sigma_omega, sigma_b) of the overlap density of probes of widths a
    and r: the roots of sigma_omega^2 = (r+a)/(2*r*a) = 0.5/a + 0.5/r and
    sigma_b^2 = (r+a)/2 = 0.5*a + 0.5*r, summed in that form so that no
    product or sum of the widths overflows.  Only a width below about
    2.8e-309 makes 0.5/a overflow, and it is refused."""
    _require_finite(a, "a")
    _require_finite(r, "r")
    if a <= 0 or r <= 0:
        raise ValueError("probe widths must be positive")
    a, r = float(a), float(r)  # an overflow in float arithmetic is inf, not a warning
    var_omega = 0.5 / a + 0.5 / r
    if var_omega == float("inf"):
        raise ValueError("probe widths are too small: 0.5/a + 0.5/r overflows")
    return np.sqrt(var_omega), np.sqrt(0.5 * a + 0.5 * r)


def overlap_kernel(a: float, r: float, grid: PhaseSpaceGrid) -> Distribution:
    """Closed-form overlap density of two Gaussian probes of widths a and r:

        P(omega, b) = 2*sqrt(r*a)/(r+a)
                      * exp(-(r*a/(r+a)) * omega^2) * exp(-b^2/(r+a)),

    the centred gaussian_distribution with sigma_omega^2 = (r+a)/(2*r*a) and
    sigma_b^2 = (r+a)/2.  Unit mass under d(omega) d(b)/(2*pi).  The
    prefactor is pinned by the overlap_kernel_quadrature oracle and by the
    unit-mass requirement; the width product (r+a)/(2*sqrt(r*a)) is >= 1
    for every width pair (equality at a = r).
    """
    return gaussian_distribution(grid, *_overlap_widths(a, r))


def overlap_kernel_quadrature(psi_a: SampledSignal, psi_r: SampledSignal,
                              omega: float, b: float) -> float:
    """Direct quadrature |integral exp(-1j*omega*tau) conj(psi_r(tau))
    psi_a(tau + b) d tau|^2; the ground truth behind overlap_kernel."""
    _require_finite(omega, "omega")
    _require_finite(b, "b")
    if psi_a.grid != psi_r.grid:
        raise ValueError("probes must share a grid")
    tau = psi_a.grid.points
    advanced = psi_a.translated(-b)
    integral = psi_a.grid.step * np.sum(
        np.exp(-1j * omega * tau) * np.conj(psi_r.values) * advanced)
    return float(np.abs(integral) ** 2)


def portrait(w: Distribution, a: float, r: float) -> Distribution:
    """Smoothed (lower-symbol) density: the convolution w * overlap_kernel,
    a Gaussian blur with sigma_omega^2 = (r+a)/(2*r*a) and
    sigma_b^2 = (r+a)/2, clipped at 0 against FFT roundoff.

    The overlap density is the outer product of one Gaussian along each
    axis, so the blur runs one axis at a time: a real FFT convolution of
    every omega-line, then of every b-line, each padded to its axis's
    wrap-free length, as grid_convolve pads both (its oracle).  No n^2
    kernel is built: each pass runs in tiles of lines, written into the
    result and clipped there, so beside w the work holds the result and
    one tile of about numerics._TILE_BYTES.  Both axes must hold 0 on a
    lattice point.

    Mass is conserved exactly when both factors are contained in the grid;
    a wide overlap kernel or an edge-heavy w pushes mass off-grid, and
    either one warns about hot edges (EdgeEnergyWarning).
    """
    _require_unit_mass(w, "portrait")
    sigma_omega, sigma_b = _overlap_widths(a, r)
    along_omega = _axis_gaussian(w.grid.omega_axis, 0.0, sigma_omega)
    along_b = _axis_gaussian(w.grid.b_axis, 0.0, sigma_b) / (sigma_omega * sigma_b)
    smoothed = _separable_convolve(w.values, along_omega, along_b, w.grid)
    np.maximum(smoothed, 0.0, out=smoothed)
    # the edge ratio of an outer product is the larger of its factors'
    kernel_edge = max(edge_peak_ratio(along_omega), edge_peak_ratio(along_b))
    for ratio, which in ((edge_peak_ratio(w.values), "density"),
                         (kernel_edge, "overlap kernel")):
        _warn_health(ratio, 1e-8, EdgeEnergyWarning, "portrait (%s)" % which, _TRUNCATED_EDGES)
    return Distribution(w.grid, smoothed)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _require_unit_mass(w: Distribution, who: str) -> None:
    if not abs(w.mass - 1.0) <= 1e-6:  # a NaN mass fails too
        raise ValueError("%s requires unit-mass input (mass = %.9g); call "
                         "normalized() first" % (who, w.mass))


# the BandCoverageWarning text, after the name of what reaches the band edge
_BAND_EDGE = " reaches %.2e of its peak at the frequency-band edge; the operator is band-truncated"


def quantize_to_kernel(w: Distribution, psi_a: SampledSignal) -> OperatorKernel:
    """Kernel of the density operator obtained by smearing displaced-probe
    projectors with the density w.

    w is real, so w_p(-xi) = conj w_p(xi) and the kernel is Hermitian: only
    the lags t' - t = L*dt for L = 0..n_t-1 are transformed, by one chirp-z
    transform over the omega-axis with the kernel exp(+1j*omega*xi), which
    gives conj w_p directly.  The L-th lower diagonal is

        entries[j + L, j] = sum_b R_L(t_j - b) conj w_p(L*dt, b) db/sqrt(2*pi),
        R_L(u) = conj P(u) * P(u + L*dt),

    with P the probe's band-limited periodic interpolant, the one
    SampledSignal.translated samples.  R_L is a trigonometric polynomial
    with frequencies mu_m = 2*pi*m/(n_t*dt), |m| < n_t, so its coefficients
    are one length-2*n_t FFT of its samples at the half-points
    t_0 + k*dt/2, and the sum over b regroups exactly into
    sum_m Rhat_L(m) C_L(m) exp(2j*pi*m*j/n_t), where C_L is one chirp-z
    transform of the conj w_p row from the b-comb onto the mu-comb.  The
    exponential is n_t-periodic in m, so m is folded mod n_t and the
    diagonal is one length-n_t inverse FFT: O(n_t*(n_t + n_b)*log(n_t + n_b))
    in all, where the sum over b-nodes took n_t^2*n_b multiply-adds, and no
    translate is made at any b-node.

    The probe's half-point samples come from one translated call, with
    shifts 0 and -dt/2, held twice over, so that P(u + L*dt) is a sliding
    window of them.  The lags run in tiles of about numerics._TILE_BYTES
    of product rows; beside the kernel the work holds conj w_p and the
    tile's product rows, their mu-comb rows and the chirp-z work: about
    1.9 (n_t, n_b) blocks at n_t 384, n_b 256.  Each upper diagonal is the
    conjugate of the lower one, and the diagonal, |P|^2 against real
    weights, is set exactly real, so the kernel is exactly Hermitian.
    Trace equals mass(w) to roundoff and the kernel is positive
    semidefinite up to roundoff by construction.  No BLAS routine is
    called, so the bits do not depend on the BLAS thread count.
    """
    _require_unit_mass(w, "quantize_to_kernel")
    _require_unit_norm(psi_a)
    _warn_health(edge_peak_ratio(w.values, axes=(0,)), 1e-8, BandCoverageWarning,
                 "quantize_to_kernel", "distribution" + _BAND_EDGE)
    tgrid = psi_a.grid
    n_t = tgrid.count
    w_conj = chirp_z(w.values, w.grid.omega_axis.comb, (0.0, tgrid.step, n_t),
                     sign=1, axis=0)                        # (n_t, n_b)
    w_conj *= w.grid.omega_axis.step / _SQRT_2PI
    # P at the half-points t_0 + k*dt/2, k = 0..2*n_t-1, held twice over:
    # window L is P(u + L*dt) at the same half-points u
    halves = psi_a.translated(np.array([0.0, -0.5 * tgrid.step]))
    doubled = np.tile(halves.T, (2, 1)).reshape(-1)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, 2 * n_t)[::2]
    conj_p = np.conj(doubled[:2 * n_t])
    mu_step = 2.0 * np.pi / tgrid.span
    mu_comb = (-(n_t - 1) * mu_step, mu_step, 2 * n_t - 1)
    # a lag's product row and its mu-comb row, 2*n_t complex each
    tile = numerics._tile_lines(64 * n_t)
    products = np.empty((min(tile, n_t), 2 * n_t), dtype=complex)
    entries = np.empty((n_t, n_t), dtype=complex)
    flat = entries.reshape(-1)
    for l0 in range(0, n_t, tile):
        rows = min(tile, n_t - l0)
        spectra = products[:rows]
        np.multiply(conj_p, windows[l0:l0 + rows], out=spectra)
        fft(spectra, out=spectra)                # 2*n_t * Rhat_L(m mod 2*n_t)
        weights = chirp_z(w_conj[l0:l0 + rows], w.grid.b_axis.comb, mu_comb,
                          sign=-1)                 # C_L(m), m = -(n_t-1)..n_t-1
        spectra[:, :n_t] *= weights[:, n_t - 1:]
        spectra[:, n_t + 1:] *= weights[:, :n_t - 1]
        spectra[:, 1:n_t] += spectra[:, n_t + 1:]  # fold m mod n_t
        diagonals = ifft(spectra[:, :n_t], out=spectra[:, :n_t])
        for lag in range(l0, l0 + rows):
            lower = diagonals[lag - l0, :n_t - lag]
            flat[_diagonal(n_t, lag)] = lower                       # entries[j + L, j]
            np.conjugate(lower, out=flat[_diagonal(n_t, -lag)])  # entries[j, j + L]
    flat[::n_t + 1].imag = 0.0
    # n_t * ifft of the fold, and 1/(2*n_t) of the FFT
    entries *= 0.5 * w.grid.b_axis.step / _SQRT_2PI
    return OperatorKernel(tgrid, entries)


def weyl_operator_from_weight(w_values: np.ndarray, grid: PhaseSpaceGrid,
                              time_grid: Grid1D) -> OperatorKernel:
    """Kernel of M = sum over cells of w(omega, b) * displacement(omega, b) * dM
    for a real or complex weight w on the phase-space grid.

    Each displacement is realized in split form: half of the modulation on
    each side of a circulant (spectral) shift, giving matrix entries
    exp(1j*omega*(t_i + t_j)/2) * shift_row[i - j].  The split form keeps
    the discrete adjoint identity D(omega, b)^dagger = D(-omega, -b) exact,
    so real weights with the symmetry w(-omega, -b) = w(omega, b) produce
    Hermitian kernels to roundoff (the one-sided modulation fails this at
    spectral-leakage level for frequencies off the FFT comb).  A wrapped
    pair, |i - j| >= n/2, meets the circulant shift on a periodic image of
    one node, so its midpoint is ambiguous by n*dt/2: it takes the mean of
    the two images (t_i + t_j)/2 -+ n*dt/2, i.e. its phase is multiplied by
    cos(omega*n*dt/2).  Both (i, j) and (j, i) get the same mean, so the
    symmetry above still gives Hermitian kernels.

    The sum is regrouped exactly, one axis at a time, as the symplectic
    Fourier transform of w on the lattice.  Each shift row is the inverse
    FFT of exp(-1j*b*nu) on the FFT frequencies nu, so the b-sums
    B(omega, c) = sum_b w(omega, b) * shift_b[c], at every lag c mod n,
    are one chirp-z transform of w along b onto nu and one inverse FFT.
    Diagonal i - j = d has its midpoints at t_min(i,j) + |d|*dt/2: nodes
    |d|//2 on of the comb t_0 + k*dt when |d| is even, or of
    t_0 + dt/2 + k*dt when it is odd.  So the omega-sum along each
    diagonal is one chirp-z transform of the row B(., d mod n), times
    cos(omega*n*dt/2) when wrapped, onto its comb.  The diagonals run in
    tiles of about numerics._TILE_BYTES, one transform per tile:
    O((n_omega*(n_b + n) + n*(n_omega + n))*log) in all, where the sum
    over b-nodes took about 1.5*n^2*n_b multiply-adds.  Beside the kernel
    the work holds B, (n, n_omega) complex, and one tile of diagonals with
    its chirp-z work.  No BLAS routine is called, so the bits do not
    depend on the BLAS thread count.  Linear in w; a point mass
    2*pi*delta at the origin returns the identity kernel.
    """
    # a real weight stays real: chirp_z takes it without a complex copy
    w_values = np.asarray(w_values, dtype=float if np.isrealobj(w_values) else complex)
    if w_values.shape != grid.shape:
        raise ValueError("weight must match the grid shape")
    _require_finite(w_values, "weight")
    _warn_health(edge_peak_ratio(w_values, axes=(0,)), 1e-8, BandCoverageWarning,
                 "weyl_operator_from_weight", "weight" + _BAND_EDGE)
    n_t, n_omega = time_grid.count, grid.shape[0]
    t0, dt = time_grid.start, time_grid.step
    nu_step = 2.0 * np.pi / time_grid.span
    # B(omega, c), lag-major: w's b-sums on the FFT frequencies from
    # -(n_t//2) on, put in FFT order, then one inverse FFT over them
    lags = np.fft.ifftshift(chirp_z(w_values.T, grid.b_axis.comb,
                                    (-(n_t // 2) * nu_step, nu_step, n_t), axis=0), axes=0)
    ifft(lags, axis=0, out=lags)
    lags *= grid.cell_measure / dt                            # (n_t, n_omega)
    # the mean of a wrapped pair's two midpoint images
    image_mean = np.cos(0.5 * n_t * dt * grid.omega_axis.points)
    matrix = np.empty((n_t, n_t), dtype=complex)
    flat = matrix.reshape(-1)
    # a diagonal's row of B, its omega-sums and its zero-padded chirp-z line
    tile = numerics._tile_lines(16 * (n_omega + n_t + numerics._next_fast_len(n_omega + n_t - 1)))
    diagonals = np.arange(1 - n_t, n_t)
    for parity in (0, 1):  # even |d| on the nodes t_k, odd on t_k + dt/2
        on_comb = diagonals[np.abs(diagonals) % 2 == parity]
        for d0 in range(0, on_comb.size, tile):
            block = on_comb[d0:d0 + tile]
            rows = lags[block % n_t]
            rows[2 * np.abs(block) >= n_t] *= image_mean
            sums = chirp_z(rows, grid.omega_axis.comb, (t0 + 0.5 * parity * dt, dt, n_t),
                           sign=1)
            for d, row in zip(block.tolist(), sums):
                first = abs(d) // 2
                flat[_diagonal(n_t, d)] = row[first:first + n_t - abs(d)]
    return OperatorKernel(time_grid, matrix)


def _diagonal(n: int, d: int) -> slice:
    """The strided slice of the flat form of a C-ordered n x n matrix that
    holds its diagonal d: entries [j + d, j] for d >= 0, [i, i - d] for
    d < 0."""
    start = d * n if d >= 0 else -d
    return slice(start, start + (n - abs(d)) * (n + 1), n + 1)


def _adjoint_tiles(k: np.ndarray):
    """(r0, rows r0.. of k^dagger) of a square k, in tiles written into one
    buffer that fills numerics._TILE_BYTES: k^dagger is never formed
    whole."""
    n = k.shape[0]
    # a row of k^dagger, and of the tile's k - k^dagger and its modulus
    buffer = np.empty((min(numerics._tile_lines(40 * n), n), n), dtype=complex)
    rows = buffer.shape[0]
    for r0 in range(0, n, rows):
        tile = buffer[:min(rows, n - r0)]
        np.conjugate(k[:, r0:r0 + tile.shape[0]].T, out=tile)
        yield r0, tile


def kernel_diagnostics(kernel: OperatorKernel) -> dict:
    """Trace, Hermiticity defect and purity of the operator represented by
    the kernel: the diagnostics that need no factorization.

    The trace is the sum of dt*k's diagonal, the purity dt^2 * sum |k|^2,
    and the defect the largest |k - k^dagger|.  k^dagger is never formed
    whole: its rows, conj(k[:, tile]).T, run in tiles whose buffers fill
    numerics._TILE_BYTES, each giving its share of the defect.  Beside the
    kernel the work holds |k| for the purity, then one tile.
    """
    k = kernel.entries
    dt = kernel.quad_weight
    # before any tile is made, so that |k|^2 is never held beside it
    purity = float(dt ** 2 * np.sum(np.abs(k) ** 2))
    trace = float(np.real(np.sum(dt * k.diagonal())))
    defect = 0.0
    for r0, tile in _adjoint_tiles(k):
        defect = max(defect, float(np.abs(k[r0:r0 + len(tile)] - tile).max()))
    return {"trace": trace, "hermiticity_defect": defect, "purity": purity}


def density_diagnostics(kernel: OperatorKernel) -> dict:
    """kernel_diagnostics plus the smallest eigenvalue of the operator,
    min_eigenvalue.

    The eigenvalues are those of the step-weighted symmetrized matrix
    dt*(k + k^dagger)/2, the operator's matrix in the discrete L2 inner
    product.  A kernel whose defect is exactly 0, as is every kernel
    quantize_to_kernel makes, is its own symmetrized part, so its smallest
    eigenvalue is reported as dt * lambda_min(k), read from k in place:
    beside the kernel the work holds eigvalsh's own copy.  Any other
    kernel is summed into one step-weighted copy, its adjoint rows in
    tiles of numerics._TILE_BYTES and scaled by the real step, so beside
    the kernel that work holds the matrix, one tile and eigvalsh's copy.
    min_eigenvalue is roundoff for a quantized kernel and its last bits
    move with the BLAS thread count; positivity_certificate decides
    positivity from one Cholesky factorization instead.
    """
    report = kernel_diagnostics(kernel)
    k = kernel.entries
    dt = kernel.quad_weight
    if report["hermiticity_defect"] == 0.0:
        smallest = dt * np.linalg.eigvalsh(k).min()
    else:
        matrix = dt * k
        for r0, tile in _adjoint_tiles(k):
            tile *= dt
            block = matrix[r0:r0 + tile.shape[0]]
            block += tile
            block *= 0.5
        smallest = np.linalg.eigvalsh(matrix).min()
    return {
        "trace": report["trace"],
        "hermiticity_defect": report["hermiticity_defect"],
        "min_eigenvalue": float(smallest),
        "purity": report["purity"],
    }


def _hermitian_block(k: np.ndarray, rows: slice, cols: slice, dt: float) -> np.ndarray:
    """The (rows, cols) block of dt*(k + k^dagger)/2, a fresh array.  For an
    exactly Hermitian k it is dt*k[rows, cols] bit for bit: 2x and the
    power-of-two scales are exact."""
    block = np.conjugate(k[cols, rows].T)
    block += k[rows, cols]
    block *= 0.5 * dt
    return block


def positivity_certificate(kernel: OperatorKernel) -> dict:
    """Whether the operator is positive semidefinite to within roundoff,
    decided by one Cholesky factorization.

    Let A = dt*(k + k^dagger)/2, the matrix whose eigenvalues
    density_diagnostics reports (dt*k itself for an exactly Hermitian
    kernel), and delta = n*eps*dt*max_i sum_j |k_ij|, that is
    n*eps*max_i sum_j |(dt*k)_ij|, with eps the float64 machine epsilon.
    positive_within is delta, and positive is whether the Cholesky
    factorization of A + delta*I succeeds.  In exact arithmetic it
    succeeds exactly when lambda_min(A) > -delta; so success certifies
    lambda_min(A) >= -delta, up to the factorization's own backward error
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
    which for a positive definite matrix is far below delta.  A quantized
    kernel's lambda_min is roundoff, a few percent of delta in size or
    less, so the outcome does not move with the BLAS thread count; delta
    comes from numpy row sums and has the same bits under any.  Failure
    says only that lambda_min(A) is not certified above -delta; a zero
    kernel, with delta 0, is not certified.

    The factorization runs on two half-size blocks: the leading block is
    factored, the upper right block is solved against its factor
    (np.linalg.solve: numpy has no triangular solve), and the Schur
    complement, whose lower triangle is updated in tiles of
    numerics._TILE_BYTES, is factored in turn.  No n x n matrix is made:
    beside the kernel the work holds at most three quarter-size blocks,
    and the LAPACK calls their copies of one or two of them.
    """
    k = kernel.entries
    dt = kernel.quad_weight
    n = k.shape[0]
    rows = numerics._tile_lines(8 * n)
    widest = max(float(np.abs(k[r0:r0 + rows]).sum(axis=1).max())
                 for r0 in range(0, n, rows))
    delta = n * np.finfo(float).eps * dt * widest
    lead, trail = slice(0, (n + 1) // 2), slice((n + 1) // 2, n)
    try:
        shifted = _hermitian_block(k, lead, lead, dt)
        shifted.flat[::shifted.shape[0] + 1] += delta
        factor = np.linalg.cholesky(shifted)
        del shifted
        solved = np.linalg.solve(factor, _hermitian_block(k, lead, trail, dt))
        del factor
        schur = _hermitian_block(k, trail, trail, dt)
        schur.flat[::schur.shape[0] + 1] += delta
        # cholesky reads only the lower triangle: rows r0.. up to the
        # diagonal; a row of the tile holds its conjugate and its product
        tile = numerics._tile_lines(32 * solved.shape[0])
        for r0 in range(0, schur.shape[0], tile):
            r1 = min(r0 + tile, schur.shape[0])
            schur[r0:r1, :r1] -= np.conjugate(solved[:, r0:r1].T) @ solved[:, :r1]
        del solved
        np.linalg.cholesky(schur)
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    return {"positive": positive, "positive_within": float(delta)}
