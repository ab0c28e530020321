"""Gabor (windowed-Fourier) analysis on the real line.

Conventions
-----------

The transform puts no half-phase on the window:

    S(omega, b) = integral exp(-1j*omega*t) conj(psi(t - b)) s(t) dt

and the reconstruction mirrors it,

    s(t) = integral S(omega, b) exp(1j*omega*t) psi(t - b) d(omega) d(b) / (2*pi).

The displacement operator, by contrast, carries the symmetric half-phase

    (displace(omega, b) s)(t) = exp(1j*omega*(t - b/2)) s(t - b),

whose composition picks up exp(1j*(omega*b' - omega'*b)/2).  The two
conventions differ by a phase exp(1j*omega*b/2) on the coefficient level;
covariance_residual carries the resulting cross factor explicitly.

The displacement, analysis and resynthesis here serve the circle as well:
weylgabor.cylinder runs them on the integer frequency comb.  Both sums over
a uniform frequency comb are chirp-z transforms (numerics.chirp_z), so the
analysis costs O(n_b*(n_t + n_omega)*log) and no n_omega x n_t table of
exponentials is ever built.  The n_b window translates cost
O(q*n_t*log(n_t) + n_b*n_t) when the b-step is p/q time steps (16/5 at the
default grids): one call per transform makes a (g, n_t) table of the
translates of the g <= q distinct cell fractions, and every other
translate is an exact roll of one of them, copied into the tile that
uses it.  Beside its input and result each direction holds that table
and tiles of work within the one budget, numerics._TILE_BYTES; no
(n_b, n_t) batch of translates is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft

from . import numerics
from .numerics import (
    Grid1D,
    PhaseSpaceGrid,
    _require_finite,
    _warn_health,
    batch_fractional_shift,
    chirp_z,
    edge_peak_ratio,
)

__all__ = [
    "SupportCoverageWarning",
    "SlowDecayWarning",
    "SampledSignal",
    "TFCoefficients",
    "default_time_grid",
    "default_tf_grid",
    "gaussian_probe",
    "make_test_signal",
    "displace",
    "gabor_transform",
    "gabor_reconstruct",
    "covariance_residual",
    "uncertainty_product",
]


class SupportCoverageWarning(UserWarning):
    """The phase-space grid misses a visible fraction of the coefficient
    energy, so reconstruction is lossy."""


class SlowDecayWarning(UserWarning):
    """The signal decays too slowly on this grid for second moments to be
    trustworthy."""


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex samples of a signal on a uniform time grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.count,):
            raise ValueError("values must be a vector matching the grid")
        _require_finite(values, "signal values")
        object.__setattr__(self, "values", values)

    @property
    def energy(self) -> float:
        """Squared L2 norm, step-weighted."""
        return float(self.grid.step * np.sum(np.abs(self.values) ** 2))

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.energy))

    def normalized(self) -> "SampledSignal":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero signal")
        return type(self)(self.grid, self.values / n)

    def translated(self, b) -> np.ndarray:
        """Samples of t -> s(t - b), band-limited; an array of shifts gives
        one translate per row.  Every module shifts a line signal through
        here: displace and the overlap quadrature one shift at a time,
        quantize_to_kernel its half-point samples, and the transform and the
        resynthesis one shift per distinct cell fraction of theirs.
        Shifts that differ by whole time steps share one FFT translate
        and are exact rolls of it (see numerics.spectral_shift).  The
        shift wraps around the grid, so hot edges raise an
        EdgeEnergyWarning."""
        return batch_fractional_shift(self.values, self.grid.step, b)


@dataclass(frozen=True, eq=False)
class TFCoefficients:
    """Gabor coefficients on a phase-space grid, indexed [omega, b]."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise ValueError("coefficient array must match the grid shape")
        object.__setattr__(self, "values", values)

    @property
    def energy(self) -> float:
        """Coefficient energy against the cell measure d(omega)d(b)/(2*pi)."""
        return float(self.grid.cell_measure * np.sum(np.abs(self.values) ** 2))


def default_time_grid() -> Grid1D:
    """[-20, 20) with 1024 samples; unit-width Gaussians are edge-clean here."""
    return Grid1D.regular(-20.0, 20.0, 1024)


def default_tf_grid() -> PhaseSpaceGrid:
    """[-16, 16)^2 with 256 x 256 cells."""
    return PhaseSpaceGrid.square(-16.0, 16.0, 256)


def gaussian_probe(grid: Grid1D | None = None, width: float = 1.0) -> SampledSignal:
    """Unit-norm Gaussian window (pi*width)^(-1/4) exp(-t^2/(2*width)).

    ``width`` is the variance-like scale parameter (the probe's time
    variance is width/2).  A grid too short or too coarse to hold the
    Gaussian fails the unit-norm check.
    """
    if not 0.0 < width < np.inf:
        raise ValueError("width must be positive and finite, got %r" % width)
    grid = grid or default_time_grid()
    t = grid.points
    values = (np.pi * width) ** -0.25 * np.exp(-(t ** 2) / (2.0 * width))
    window = SampledSignal(grid, values)
    _require_unit_norm(window)
    return window


def make_test_signal(name: str, grid: Grid1D | None = None) -> SampledSignal:
    """Named unit-norm test signals used by the tests and the CLI.

    * gaussian    -- unit-width Gaussian
    * two_bump    -- exp(-(t-3)^2/2) + exp(-(t+3)^2/2) exp(5j t)
    * modulated   -- exp(5j t) exp(-t^2/2)
    * chirp_tones -- two windowed tones plus a slow linear chirp
    """
    grid = grid or default_time_grid()
    t = grid.points
    if name == "gaussian":
        values = np.pi ** -0.25 * np.exp(-t ** 2 / 2.0)
    elif name == "two_bump":
        values = np.exp(-(t - 3.0) ** 2 / 2.0) + np.exp(-(t + 3.0) ** 2 / 2.0) * np.exp(5j * t)
    elif name == "modulated":
        values = np.exp(5j * t) * np.exp(-t ** 2 / 2.0)
    elif name == "chirp_tones":
        values = (np.exp(8j * t) * np.exp(-(t + 10.0) ** 2 / 8.0)
                  + np.exp(-5j * t) * np.exp(-(t - 8.0) ** 2 / 18.0)
                  + np.exp(0.15j * t ** 2) * np.exp(-t ** 2 / 72.0))
    else:
        raise ValueError("unknown test signal %r" % name)
    return SampledSignal(grid, values).normalized()


# ---------------------------------------------------------------------------
# displacement, analysis and resynthesis
# ---------------------------------------------------------------------------

def displace(omega: float, b: float, s: SampledSignal) -> SampledSignal:
    """Phase-space displacement exp(1j*omega*(t - b/2)) s(t - b).

    Unitary on well-contained signals; composing two displacements
    multiplies by exp(1j*(omega*b' - omega'*b)/2).  The result has the
    type of ``s``, whose ``translated`` supplies s(t - b): on the circle
    (integer omega, angle b) this is the cylinder's displacement.
    A non-finite omega or b raises a ValueError naming it.
    """
    _require_finite(omega, "omega")
    _require_finite(b, "b")
    phase = np.exp(1j * omega * (s.grid.points - 0.5 * b))
    return type(s)(s.grid, phase * s.translated(b))


def _require_unit_norm(window: SampledSignal) -> None:
    """Every window of the transform, the resynthesis and the quantization
    is a unit-norm signal."""
    if abs(window.norm - 1.0) > 1e-10:
        raise ValueError("window must have unit norm, got %.12g" % window.norm)


def _window_tiles(window: SampledSignal, shifts: np.ndarray, rows: int):
    """(start, tile) of a unit-norm window: row k of ``tile`` is
    window(t - shifts[start + k]), in tiles of ``rows`` rows written into
    one buffer.

    The shifts split as in numerics.spectral_shift into whole cells and
    groups of cell fractions.  One ``translated`` call makes the translate
    of each group's defining member (its smallest fraction; any member of
    the group of 0), a (g, n_t) table held twice over, and every row is
    copied out of it as an exact roll by the whole cells it lies from its
    member: the row that translating all the shifts at once would give,
    bit for bit, with g <= q when the shifts step by p/q cells."""
    _require_unit_norm(window)
    n = window.grid.count
    starts, groups = numerics._split_shifts(shifts, window.grid.step, n)
    members = [group for _, group in groups if group]
    places = [None] * len(shifts)
    for g, group in enumerate(members):
        for i in group:
            places[i] = (g, (starts[i] - starts[group[0]]) % n)
    table = window.translated(shifts[[group[0] for group in members]])
    table = np.concatenate((table, table), axis=1)
    buffer = np.empty((min(rows, len(shifts)), n), dtype=complex)
    for start in range(0, len(shifts), rows):
        tile = buffer[:len(shifts) - start]
        for k, (g, at) in enumerate(places[start:start + rows]):
            tile[k] = table[g, at:at + n]
        yield start, tile


def _analyze(window: SampledSignal, s: SampledSignal, comb: tuple,
             shifts: np.ndarray) -> np.ndarray:
    """sum_t exp(-1j*omega*t) conj(window(t - b)) s(t) dt, indexed [omega, b],
    for the uniform frequency comb ``comb`` = (start, step, count): one
    chirp-z transform of every windowed copy of the signal.

    The b-rows run in _window_tiles of chirp_z's own tile size: each tile
    of windows is conjugated and weighted in place, transformed, and
    written into its columns of the result."""
    weight = s.grid.step * s.values
    result = np.empty((comb[2], len(shifts)), dtype=complex)
    rows = numerics._chirp_tile_rows(s.grid.count, comb[2])
    for start, tile in _window_tiles(window, shifts, rows):
        np.conjugate(tile, out=tile)
        tile *= weight
        # along t of the [t, b] view, so the tile is a compact [omega, b] array
        result[:, start:start + rows] = chirp_z(tile.T, s.grid.comb, comb,
                                                sign=-1, axis=0)
    return result


def _synthesize(window: SampledSignal, comb: tuple, shifts: np.ndarray,
                values: np.ndarray, measure: float) -> np.ndarray:
    """measure * sum_{omega, b} values[omega, b] exp(1j*omega*t) window(t - b),
    for ``values`` on the uniform frequency comb ``comb`` = (start, step, count).

    The b-columns run in _window_tiles of numerics._TILE_BYTES of modes:
    each tile's chirp-z modes are multiplied by its tile of windows and
    summed into the result, so neither an (n_b, n_t) block of modes nor
    one of windows is held."""
    n_t = window.grid.count
    rows = numerics._tile_lines(16 * n_t)
    out = np.zeros(n_t, dtype=complex)
    for start, tile in _window_tiles(window, shifts, rows):
        modes = chirp_z(values[:, start:start + rows].T, comb, window.grid.comb,
                        sign=1)                                          # (rows, n_t)
        modes *= tile
        out += modes.sum(axis=0)
    out *= measure
    return out


def gabor_transform(probe: SampledSignal, s: SampledSignal,
                    grid: PhaseSpaceGrid | None = None) -> TFCoefficients:
    """S(omega, b) = sum_t exp(-1j*omega*t) conj(psi(t-b)) s(t) dt on the grid,
    for a unit-norm window psi = probe."""
    grid = grid or default_tf_grid()
    if probe.grid != s.grid:
        raise ValueError("probe and signal must share a time grid")
    return TFCoefficients(grid, _analyze(probe, s, grid.omega_axis.comb,
                                         grid.b_axis.points))


def gabor_reconstruct(probe: SampledSignal, coeffs: TFCoefficients) -> SampledSignal:
    """Resynthesis s(t) = sum S(omega,b) exp(1j*omega*t) psi(t-b) dM.

    Warns when the resynthesized energy differs from the coefficient energy
    by more than 1 % (grid does not cover the signal's time-frequency
    support).
    """
    grid = coeffs.grid
    out = SampledSignal(probe.grid, _synthesize(
        probe, grid.omega_axis.comb, grid.b_axis.points,
        coeffs.values, grid.cell_measure))
    target = coeffs.energy
    mismatch = abs(out.energy - target) / target if target > 0 else 0.0
    _warn_health(mismatch, 0.01, SupportCoverageWarning, "gabor_reconstruct",
                 "reconstructed energy differs from the coefficient energy by "
                 "%.3g of it; grid coverage is insufficient")
    return out


# ---------------------------------------------------------------------------
# covariance and uncertainty diagnostics
# ---------------------------------------------------------------------------

def covariance_residual(probe: SampledSignal, s: SampledSignal, omega0: float,
                        b0: float, grid: PhaseSpaceGrid | None = None) -> float:
    """Max-abs defect of the displacement covariance of the transform.

    Compares the transform of the displaced signal against
    exp(-1j*(omega - omega0/2)*b0) * S(omega - omega0, b - b0), the
    reference being the transform itself on the grid moved by
    (omega0, b0), so nothing is interpolated.  The phase is forced by the
    conventions at the top of this module: substituting u = t - b0 in the
    transform of the displaced signal gives exp(-1j*omega*b0)
    exp(1j*omega0*b0/2) out front, nothing else.
    """
    grid = grid or default_tf_grid()
    om, b = grid.omega_axis, grid.b_axis
    moved = PhaseSpaceGrid(Grid1D(om.start - omega0, om.step, om.count),
                           Grid1D(b.start - b0, b.step, b.count))
    lhs = gabor_transform(probe, displace(omega0, b0, s), grid).values
    rhs = gabor_transform(probe, s, moved).values
    rhs *= np.exp(-1j * (om.points[:, None] - 0.5 * omega0) * b0)
    return float(np.abs(lhs - rhs).max())


def uncertainty_product(s: SampledSignal) -> float:
    """Time-frequency dispersion product Delta_t * Delta_omega.

    Second moments are computed from the step-weighted samples in time and
    from the DFT-domain density over the signed FFT frequency comb; for a
    Gaussian the product saturates the lower bound 1/2.
    """
    mag2 = np.abs(s.values) ** 2
    _warn_health(edge_peak_ratio(mag2), 1e-6, SlowDecayWarning, "uncertainty_product",
                 "signal reaches %.2e of its peak at the grid edges; moments are unreliable")
    t = s.grid.points
    total = mag2.sum()
    mean_t = (t * mag2).sum() / total
    var_t = ((t - mean_t) ** 2 * mag2).sum() / total

    spectrum = fft(s.values)
    smag2 = np.abs(spectrum) ** 2
    nu = s.grid.angular_frequencies()
    stotal = smag2.sum()
    mean_nu = (nu * smag2).sum() / stotal
    var_nu = ((nu - mean_nu) ** 2 * smag2).sum() / stotal
    return float(np.sqrt(var_t * var_nu))
