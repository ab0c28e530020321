"""Grids, special functions, and spectral utilities shared across the package.

Discrete conventions, once and for all
--------------------------------------

Continuous formulas are discretized on uniform grids with point ``i`` at
``start + i*step``.  Integrals over the line become plain Riemann sums
``step * sum(...)``, which are spectrally accurate for smooth decaying
integrands, and integrals over the phase-space plane carry the cell
measure ``d(omega) d(b) / (2*pi)``.  The forward Fourier kernel is
``exp(-1j*omega*t)``; where a symmetric ``1/sqrt(2*pi)`` normalization is
needed it is written explicitly at the call site, never hidden inside a
helper.  A Fourier sum between two uniform combs is one chirp-z
transform (``chirp_z``), with one exception: ``quantize_to_kernel`` keeps
its dense (n_t, n_omega) lag table, because at the kernel sizes it is run
at (n_t <= 384) the chirp-z form gained nothing and would change the
bytes of ``kernel.csv``.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft, irfftn, rfftn

__all__ = [
    "EdgeEnergyWarning",
    "Grid1D",
    "PhaseSpaceGrid",
    "bessel_i",
    "periodic_trapezoid",
    "edge_peak_ratio",
    "edge_mass_share",
    "spectral_shift",
    "batch_fractional_shift",
    "chirp_z",
    "grid_convolve",
    "find_local_minima",
]


class EdgeEnergyWarning(UserWarning):
    """Samples near the grid edge are large enough to wrap around in a
    spectral shift or to be truncated by a convolution."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: point ``i`` sits at ``start + i*step`` for 0 <= i < count.

    Grids are half-open: ``regular(lo, hi, n)`` covers [lo, hi) with n cells
    of width (hi-lo)/n, so ``hi`` itself is not a sample.  This keeps the
    lattice FFT-aligned, makes the cell measure exact, and puts 0 on a
    sample point for symmetric power-of-two windows.
    """

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise ValueError("grid start and step must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @classmethod
    def regular(cls, lo: float, hi: float, n: int) -> "Grid1D":
        """Grid of ``n`` cells covering [lo, hi)."""
        if not hi > lo:
            raise ValueError("need hi > lo")
        return cls(start=float(lo), step=(float(hi) - float(lo)) / int(n), count=int(n))

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def span(self) -> float:
        """Total length covered, ``step * count``."""
        return self.step * self.count

    @property
    def comb(self) -> tuple:
        """``(start, step, count)``, the form ``chirp_z`` takes."""
        return (self.start, self.step, self.count)

    def angular_frequencies(self) -> np.ndarray:
        """Angular FFT frequency comb 2*pi*k/(count*step), in FFT ordering."""
        return 2.0 * np.pi * fftfreq(self.count, d=self.step)

    def origin_index(self) -> int:
        """Index of the sample at 0; raises if 0 is not on the lattice."""
        pos = -self.start / self.step
        k = int(round(pos))
        if abs(pos - k) > 1e-9 or not 0 <= k < self.count:
            raise ValueError("grid origin is not on the lattice")
        return k


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular (omega, b) lattice; 2-D arrays are indexed [omega, b].

    Every discrete sum over the grid is weighted by the cell measure
    ``d(omega)*d(b)/(2*pi)``.
    """

    omega_axis: Grid1D
    b_axis: Grid1D

    @classmethod
    def square(cls, lo: float, hi: float, n: int) -> "PhaseSpaceGrid":
        axis = Grid1D.regular(lo, hi, n)
        return cls(omega_axis=axis, b_axis=axis)

    @property
    def shape(self) -> tuple:
        return (self.omega_axis.count, self.b_axis.count)

    @property
    def cell_measure(self) -> float:
        return self.omega_axis.step * self.b_axis.step / (2.0 * np.pi)

    def meshes(self):
        """(omega, b) coordinate arrays of shape ``self.shape``."""
        return np.meshgrid(self.omega_axis.points, self.b_axis.points, indexing="ij")

    def integrate(self, values: np.ndarray):
        """Sum of ``values`` against the cell measure d(omega)d(b)/(2*pi)."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError("array shape %r does not match grid %r" % (values.shape, self.shape))
        return self.cell_measure * values.sum()


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

_BESSEL_ORDER_CAP = 64


def _integer_order(order, cap: int) -> int:
    """``order`` as an int in [0, cap]; anything else is a ValueError."""
    n = int(order)
    if n != order or n < 0 or n > cap:
        raise ValueError("order must be an integer in [0, %d], got %r" % (cap, order))
    return n


def bessel_i(order: int, x):
    """I_order(x) for integer order in [0, 64] and x >= 0, from scipy's
    ``iv`` (Amos's algorithm): the package's one Bessel function.  A
    scalar x gives a float, an array x an array of the scalar values.
    At or below x = 1e-300, where ``iv`` returns NaN or a spurious 0, the
    leading term (x/2)^n / n! is exact.  Negative arguments are
    rejected; callers can fold them out with I_n(-x) = (-1)^n I_n(x).
    """
    n = _integer_order(order, _BESSEL_ORDER_CAP)
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("x must be non-negative; use I_n(-x) = (-1)^n I_n(x)")
    from scipy.special import iv  # on first use: scipy is slow to import

    big = x > 1e-300
    lead = (np.where(big, 0.0, x) / 2.0) ** n / math.factorial(n)  # big x would overflow
    values = np.where(big, iv(n, x), lead)
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# quadrature and spectral shifts
# ---------------------------------------------------------------------------

def periodic_trapezoid(values: np.ndarray, step: float | None = None):
    """Quadrature over one full period sampled uniformly with no duplicated
    endpoint: step * sum(values).  With ``step`` omitted the grid is assumed
    to cover [0, 2*pi).  Spectrally accurate for smooth periodic integrands.
    """
    values = np.asarray(values)
    if step is None:
        step = 2.0 * np.pi / values.shape[-1]
    return step * values.sum(axis=-1)


def edge_peak_ratio(values: np.ndarray, axes: tuple | None = None) -> float:
    """Largest |value| on the first and last lines along each of ``axes``
    (every axis by default), divided by the largest |value| anywhere; 0.0
    for an all-zero array."""
    mag = np.abs(np.asarray(values))
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    axes = range(mag.ndim) if axes is None else axes
    edge = max(np.take(mag, [0, -1], axis=ax).max() for ax in axes)
    return float(edge / peak)


def edge_mass_share(values: np.ndarray, axes: tuple | None = None) -> float:
    """Sum over the first and last lines along each of ``axes`` (every axis
    by default), each cell counted once, divided by the total sum; 0.0 when
    the total is not positive.  Meant for non-negative densities."""
    values = np.asarray(values)
    total = values.sum()
    if not total > 0:
        return 0.0
    border = np.zeros(values.shape, dtype=bool)
    for ax in range(values.ndim) if axes is None else axes:
        np.moveaxis(border, ax, 0)[[0, -1]] = True
    return float(values[border].sum() / total)


def _warn_hot_edges(values: np.ndarray, what: str, effect: str) -> None:
    """Warn when the edge samples exceed 1e-8 of the peak."""
    ratio = edge_peak_ratio(values)
    if ratio > 1e-8:
        warnings.warn(
            "%s: edge samples reach %.2e of the peak; %s" % (what, ratio, effect),
            EdgeEnergyWarning,
            stacklevel=3,
        )


# a shift within this many cells of a whole number of cells is an exact
# roll, and fractions closer than this share one FFT translate
_CELL_TOLERANCE = 1e-12


def spectral_shift(values: np.ndarray, step: float, shift) -> np.ndarray:
    """Band-limited translate of 1-D samples: samples of t -> s(t - shift).

    The translate wraps periodically, which is exact for periodic
    band-limited signals and needs decayed edges otherwise (no check
    here).  A 1-D array of shifts returns one translate per entry, stacked
    as rows.

    Each shift splits into whole cells and a fraction in [-1/2, 1/2), and
    a whole-cell shift of the samples is an exact roll.  A fraction within
    1e-12 below 1/2 is taken one cell on, just below -1/2, so that it joins
    the fractions at -1/2.  Every shift whose fraction lies within 1e-12
    cells above a group's smallest fraction shares that fraction's FFT
    phase ramp translate, and each row is copied out of its group's
    translate, held twice over, as a roll by its whole cells; fractions
    within 1e-12 of 0 are rolls of the samples themselves.  So the inverse
    FFT runs one row per distinct fraction, and the forward FFT once if any
    fraction needs it: a comb whose step is p/q cells costs at most q FFT
    rows plus copying, O(q*n*log(n) + n_shifts*n), and a comb of whole
    cells, or a single whole-cell shift, no FFT at all.  Beside the result
    the work holds one translate twice over and its ramp.  A single shift
    is its fraction's translate rolled, so its roundoff does not grow with
    the shift, and a row whose fraction is its group's (every row, when
    the fractions are distinct) is that single shift bit for bit.
    Anything but 1-D samples and a scalar or 1-D array of finite shifts
    raises a ValueError.  The result is always a fresh array.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or np.ndim(shift) > 1:
        raise ValueError("expected 1-D samples and a scalar or 1-D array of shifts")
    if not np.all(np.isfinite(shift)):
        raise ValueError("shift must be finite")
    n = values.size
    shifts = np.atleast_1d(np.asarray(shift, dtype=float))
    cells = shifts / step
    whole = np.floor(cells + (0.5 + _CELL_TOLERANCE))
    starts = np.mod(-whole, n).astype(np.intp).tolist()
    groups = _fraction_groups(cells - whole)
    # the forward FFT only when some group moves
    spectrum = fft(values) if len(groups) > 1 else None
    nu = 2.0 * np.pi * fftfreq(n, d=step)
    out = np.empty((shifts.size, n), dtype=complex)
    doubled = np.empty(2 * n, dtype=complex)
    for fraction, members in groups:
        if fraction:
            ramp = -1j * (fraction * step * nu)
            np.exp(ramp, out=ramp)
            # spectrum first: complex multiply is not bitwise commutative
            ifft(np.multiply(spectrum, ramp, out=ramp), out=doubled[:n])
        else:
            doubled[:n] = values
        doubled[n:] = doubled[:n]
        # row i rolled by k cells is the window that starts at -k mod n
        for i in members:
            out[i] = doubled[starts[i]:starts[i] + n]
    return out if np.ndim(shift) else out[0]


def _fraction_groups(fraction: np.ndarray) -> list:
    """(fraction, member indices) of each group of fractions of a cell: the
    group of 0 first, of those within the tolerance of 0 (it may be empty),
    then groups formed on the sorted fractions, each of those within the
    tolerance above its smallest member, which is the group's fraction."""
    moving = np.abs(fraction) >= _CELL_TOLERANCE
    order = np.flatnonzero(moving)
    order = order[np.argsort(fraction[order])].tolist()
    ordered = fraction[order].tolist()
    groups, head = [(0.0, np.flatnonzero(~moving).tolist())], 0
    while head < len(ordered):
        end = bisect.bisect_right(ordered, ordered[head] + _CELL_TOLERANCE, head)
        groups.append((ordered[head], order[head:end]))
        head = end
    return groups


def batch_fractional_shift(values: np.ndarray, step: float, shifts) -> np.ndarray:
    """Band-limited translates of 1-D samples: t -> s(t - shift) on the same
    grid, checked.

    A scalar shift gives one translate; a 1-D array of shifts gives one
    translate per entry, stacked as rows (every window position of a
    windowed transform is a shifted copy of the same probe).  The work is
    ``spectral_shift``'s: one forward FFT, one inverse FFT row per distinct
    fraction of a cell, and exact rolls for the whole cells.  The shift
    wraps periodically, so a warning is issued when the input carries
    visible energy at the grid edges.
    """
    # shift first, so that bad input raises before any warning
    out = spectral_shift(values, step, shifts)
    _warn_hot_edges(values, "batch_fractional_shift",
                    "wrap-around will contaminate the result")
    return out


def _next_fast_len(target: int, real: bool = False) -> int:
    """Smallest length >= target that pocketfft transforms fastest: one with
    no prime factor above 11, or above 5 for a real transform (the lengths
    scipy.fft.next_fast_len gives).  Each odd smooth part below the best
    length so far is doubled up to the target."""
    best = 1 << max(target - 1, 0).bit_length()
    odd = [1]
    for prime in (3, 5) if real else (3, 5, 7, 11):
        for part in list(odd):
            part *= prime
            while part < best:
                odd.append(part)
                part *= prime
    for part in odd:
        doubled = part << max(-(-target // part) - 1, 0).bit_length()
        best = min(best, doubled)
    return best


def chirp_z(values: np.ndarray, nodes: tuple, comb: tuple, sign: int = -1,
            axis: int = -1) -> np.ndarray:
    """Fourier sums between two uniform combs, along ``axis``:

        out[k] = sum_j values[j] * exp(sign*1j*f_k*x_j),

    for nodes x_j = x0 + j*dx given as ``nodes`` = (x0, dx, n), where n is
    the length of ``axis``, and frequencies f_k = f0 + k*df given as
    ``comb`` = (f0, df, n_f) with any n_f >= 1; ``sign`` is +1 or -1.

    Bluestein's chirp-z transform: kj = (k^2 + j^2 - (k - j)^2)/2 splits
    the kernel into a pre-chirp on j, a post-chirp on k and a chirp in the
    lag k - j, so the sum is one FFT convolution of length
    _next_fast_len(n + n_f - 1), O((n + n_f) log(n + n_f)) per line instead
    of the n*n_f of a dense table.  The indices j and k are counted from the
    middle of each comb, which keeps the linear phases small, and each
    quadratic phase is exponentiated from an exact product, so the three
    cancel as k*j would and leave roundoff at the level of a dense table.
    The result is a view into the one zero-padded work buffer; the FFTs and
    the post-chirp run in place.
    """
    x0, dx, n = nodes
    f0, df, n_f = comb
    moved = np.moveaxis(np.asarray(values, dtype=complex), axis, -1)
    if moved.shape[-1] != n:
        raise ValueError("values hold %d samples along the axis, the nodes %d"
                         % (moved.shape[-1], n))
    if n_f < 1:
        raise ValueError("the comb needs at least one frequency")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mid_j, mid_k = n // 2, n_f // 2
    x_mid, f_mid = x0 + mid_j * dx, f0 + mid_k * df
    rate = 0.5 * sign * df * dx
    j = np.arange(n) - mid_j
    k = np.arange(n_f) - mid_k
    size = _next_fast_len(n + n_f - 1)
    # buffer position r holds the lag k - j = r, or r - size past the comb
    lag = np.arange(size)
    lag[n_f:] -= size
    lag -= mid_k - mid_j
    chirp = _square_chirp(-rate, lag)
    fft(chirp, out=chirp)
    work = np.zeros(moved.shape[:-1] + (size,), dtype=complex)
    pre = np.exp(1j * sign * f_mid * dx * j) * _square_chirp(rate, j)
    np.multiply(moved, pre, out=work[..., :n])
    fft(work, out=work)
    work *= chirp
    out = ifft(work, out=work)[..., :n_f]
    out *= np.exp(1j * sign * (f_mid * x_mid + df * x_mid * k)) * _square_chirp(rate, k)
    return np.moveaxis(out, -1, axis)


def _square_chirp(rate: float, m: np.ndarray) -> np.ndarray:
    """exp(1j*rate*m**2) for integers m, to a few ulps however large the
    phase: the rate is split so that its leading part times m**2 is exact
    in float64, the exponential reduces that exact phase itself, and the
    rest of the rate leaves a phase too small to carry visible roundoff."""
    square = m * m
    bits = 53 - int(square.max()).bit_length()
    exponent = math.frexp(rate)[1]
    lead = math.ldexp(round(math.ldexp(rate, bits - exponent)), exponent - bits)
    return np.exp(1j * (lead * square)) * np.exp(1j * ((rate - lead) * square))


def grid_convolve(f: np.ndarray, g: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Phase-space convolution (f * g)(x) = sum f(x') g(x - x') dM on the grid,
    with the cell measure dM = d(omega) d(b) / (2*pi).

    Uses a zero-padded FFT convolution and keeps the n x n window of the
    full (2n - 1) x (2n - 1) result that starts at the origin index s of
    each axis.  That window is free of wrap-around for any circular length
    P >= max(2n - 1 - s, n + s), so each axis is padded only to the next
    fast length of that bound: about 1.5n for a centred origin, the full
    2n - 1 for an origin at either end.  Both axes must contain 0 on a
    lattice point so the restriction is exact; both inputs should decay at
    the boundary (checked, warning only), since mass pushed beyond the
    lattice is lost.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != grid.shape or g.shape != grid.shape:
        raise ValueError("inputs must live on the given grid")
    for values, which in ((f, "first"), (g, "second")):
        _warn_hot_edges(values, "grid_convolve (%s input)" % which,
                        "mass beyond the lattice is truncated")
    s0 = grid.omega_axis.origin_index()
    s1 = grid.b_axis.origin_index()
    n0, n1 = grid.shape
    fshape = [_next_fast_len(max(2 * n - 1 - s, n + s), real=True)
              for n, s in ((n0, s0), (n1, s1))]
    spectrum = rfftn(f, fshape, axes=(0, 1))
    spectrum *= rfftn(g, fshape, axes=(0, 1))
    full = irfftn(spectrum, fshape, axes=(0, 1))
    return grid.cell_measure * full[s0:s0 + n0, s1:s1 + n1]


# ---------------------------------------------------------------------------
# minima detection
# ---------------------------------------------------------------------------

def find_local_minima(w: np.ndarray, grid: PhaseSpaceGrid,
                      rel_threshold: float = 1e-2) -> list:
    """Strict interior local minima of a non-negative grid function.

    A grid point qualifies when it is strictly below all 8 neighbors and
    below rel_threshold * max(w) (1.0 keeps every strict minimum).  Each hit
    is refined to sub-cell accuracy
    with a least-squares quadratic fit on its 3x3 neighborhood.  Returns
    [(omega, b, value), ...] sorted by refined value, ascending.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != grid.shape:
        raise ValueError("array shape does not match grid")
    if not 0.0 < rel_threshold <= 1.0:
        raise ValueError("rel_threshold must lie in (0, 1]")
    peak = w.max()
    core = w[1:-1, 1:-1]
    strict = np.ones(core.shape, dtype=bool)
    n0, n1 = w.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            strict &= core < w[1 + di:n0 - 1 + di, 1 + dj:n1 - 1 + dj]
    strict &= core < rel_threshold * peak
    hits = []
    om_pts = grid.omega_axis.points
    b_pts = grid.b_axis.points
    for i, j in zip(*np.nonzero(strict)):
        i, j = int(i) + 1, int(j) + 1
        du, dv, value = _refine_minimum(w, i, j)
        hits.append((om_pts[i] + du * grid.omega_axis.step,
                     b_pts[j] + dv * grid.b_axis.step,
                     value))
    hits.sort(key=lambda t: t[2])
    return hits


@functools.cache
def _refine_design() -> np.ndarray:
    """Least-squares fit of a full quadratic in the cell offsets (u, v) to a
    3x3 patch flattened row by row; computed on first use, so importing
    the package runs no SVD."""
    u, v = np.repeat((-1.0, 0.0, 1.0), 3), np.tile((-1.0, 0.0, 1.0), 3)
    return np.linalg.pinv(np.column_stack([np.ones(9), u, v, u * u, u * v, v * v]))


def _refine_minimum(w: np.ndarray, i: int, j: int):
    """Least-squares quadratic over the 3x3 patch centered at (i, j);
    returns (d_row, d_col, value) with offsets in cell units, clamped to
    one cell."""
    coeff = _refine_design() @ w[i - 1:i + 2, j - 1:j + 2].ravel()
    c0, cu, cv, cuu, cuv, cvv = coeff
    hess = np.array([[2.0 * cuu, cuv], [cuv, 2.0 * cvv]])
    try:
        d = np.linalg.solve(hess, [-cu, -cv])
    except np.linalg.LinAlgError:
        d = np.zeros(2)
    if not np.all(np.isfinite(d)) or np.max(np.abs(d)) > 1.0:
        return 0.0, 0.0, float(w[i, j])
    value = (c0 + cu * d[0] + cv * d[1]
             + cuu * d[0] ** 2 + cuv * d[0] * d[1] + cvv * d[1] ** 2)
    return float(d[0]), float(d[1]), float(max(value, 0.0))
