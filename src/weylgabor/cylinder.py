"""Windowed Fourier analysis on the semi-discrete cylinder Z x S1.

Circular signals live in L2(S1, d gamma); the phase space pairs an integer
Fourier index m with an angle theta.  The displacement operator acts by

    (displace(m, theta) phi)(gamma)
        = exp(1j*m*(gamma - theta/2)) phi(gamma - theta),

which is gabor.displace at omega = m, b = theta (re-exported here; a
CircularSignal translates by a periodic rotation).  Angles are raw reals:
adding 2*pi flips the sign for odd m through the half-phase (the
representation is projective in theta).  Two displacements
compose with the phase exp(1j*(m*theta' - m'*theta)/2), and the transform
of a signal phi against a unit-norm window psi is
S(m, theta) = <displace(m, theta) psi | phi>: the line's windowed Fourier
analysis on the integer comb m = -M..M, times exp(1j*m*theta/2).
Resynthesis is the line's too, with the cell measure d(theta)/(2*pi)
summed over m.

The von Mises window exp(lambda*cos(gamma)) / sqrt(2*pi*I0(2*lambda)) is
the circular stand-in for the Gaussian; its reproducing kernel has the
closed form implemented in reproducing_kernel, validated against direct
quadrature (which is the ground truth for the phase and normalization).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft

from .gabor import SampledSignal, _analyze, _synthesize, displace
from .numerics import Grid1D, bessel_i, edge_mass_share, spectral_shift

__all__ = [
    "TruncationWarning",
    "CircularSignal",
    "CylCoefficients",
    "circle_grid",
    "von_mises",
    "displace",
    "displacement_matrix_element",
    "truncated_trace",
    "reproducing_kernel",
    "adaptive_m_cutoff",
    "cyl_gabor_transform",
    "cyl_reconstruct",
]

_TWO_PI = 2.0 * np.pi


class TruncationWarning(UserWarning):
    """The Fourier-index cutoff M leaves visible coefficient energy on the
    outermost rows; reconstruction will be lossy."""


def circle_grid(n: int) -> Grid1D:
    """n uniform nodes on [0, 2*pi), no duplicated endpoint."""
    return Grid1D(start=0.0, step=_TWO_PI / int(n), count=int(n))


def _check_circle(grid: Grid1D) -> None:
    if abs(grid.start) > 1e-12 or abs(grid.span - _TWO_PI) > 1e-9:
        raise ValueError("grid must cover [0, 2*pi) starting at 0")


class CircularSignal(SampledSignal):
    """Complex samples on a uniform [0, 2*pi) grid, periodic indexing."""

    def __post_init__(self):
        _check_circle(self.grid)
        super().__post_init__()

    def translated(self, theta) -> np.ndarray:
        """Samples of g -> phi(g - theta), one row per angle for an array;
        a rotation, so there is no edge to check.  Angles on the signal's
        own nodes are exact rolls, with no FFT."""
        return spectral_shift(self.values, self.grid.step, theta)


@dataclass(frozen=True, eq=False)
class CylCoefficients:
    """Transform coefficients, rows m = -m_max .. m_max, columns theta."""

    m_max: int
    theta_axis: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (2 * self.m_max + 1, self.theta_axis.count):
            raise ValueError("coefficient array must be (2*m_max+1, n_theta)")
        object.__setattr__(self, "values", values)

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)

    @property
    def energy(self) -> float:
        """Coefficient energy: sum over m of the d(theta)/(2*pi) integral."""
        return float(self.theta_axis.step / _TWO_PI * np.sum(np.abs(self.values) ** 2))


# ---------------------------------------------------------------------------
# windows and displacement
# ---------------------------------------------------------------------------

def von_mises(lam: float, n_gamma: int = 256) -> CircularSignal:
    """Unit-norm von Mises window exp(lam*cos g) / sqrt(2*pi*I0(2*lam))."""
    if not 0.0 <= lam <= 50.0:
        raise ValueError("lambda must lie in [0, 50], got %r" % lam)
    grid = circle_grid(n_gamma)
    norm = np.sqrt(_TWO_PI * bessel_i(0, 2.0 * lam))
    return CircularSignal(grid, np.exp(lam * np.cos(grid.points)) / norm)


def displacement_matrix_element(m: int, theta: float, n: int, nprime: int) -> complex:
    """<e_n| displace(m, theta) |e_n'> on the Fourier basis e_n = e^{ing}/sqrt(2pi).

    The selection rule is n - m == n'; on the diagonal this forces m == 0.
    """
    if n - m != nprime:
        return 0j
    return complex(np.exp(1j * (m / 2.0 - n) * theta))


def truncated_trace(m: int, theta: float, n_cut: int) -> complex:
    """Sum of the diagonal matrix elements over |n| <= n_cut.

    Exactly 0 for m != 0 by the selection rule; for m == 0 the sum is the
    Dirichlet kernel sin((n_cut + 1/2) theta) / sin(theta / 2), which
    concentrates at theta = 0 as n_cut grows.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    if m != 0:
        return 0j
    n = np.arange(-n_cut, n_cut + 1)
    return complex(np.exp(-1j * n * theta).sum())


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------

def reproducing_kernel(lam: float, m: int, theta, mprime: int, thetaprime):
    """Overlap <psi_{m,theta} | psi_{m',theta'}> of displaced von Mises
    windows, in closed form:

        exp(1j*(m'*theta - m*theta')/2)
            * I_{m-m'}(2*lam*cos((theta-theta')/2)) / I0(2*lam).

    The half-angle is evaluated on the raw difference of the angle
    arguments (no wrapping): the kernel is 2*pi-periodic only up to the
    sign (-1)^(m-m'), exactly like the displacement phase.  Coincident
    arguments give exactly 1.  theta and thetaprime broadcast against each
    other (an outer grid from a column and a row); scalar angles return a
    complex.  Both Bessel values come from bessel_i, a negative argument
    folded by parity as sign(x)^n * I_n(|x|), so |m - m'| <= 64; lambda
    lies in (0, 50], as for von_mises, where I0(2*lambda) < 1.1e42.
    """
    if not 0.0 < lam <= 50.0:
        raise ValueError("lambda must lie in (0, 50], got %r" % lam)
    theta = np.asarray(theta, dtype=float)
    thetaprime = np.asarray(thetaprime, dtype=float)
    x = 2.0 * lam * np.cos((theta - thetaprime) / 2.0)
    n = abs(m - mprime)
    radial = np.sign(x) ** n * bessel_i(n, np.abs(x)) / bessel_i(0, 2.0 * lam)
    kernel = np.exp(1j * (mprime * theta - m * thetaprime) / 2.0) * radial
    return complex(kernel) if kernel.ndim == 0 else kernel


# ---------------------------------------------------------------------------
# transform / reconstruction
# ---------------------------------------------------------------------------

def adaptive_m_cutoff(psi: CircularSignal, phi: CircularSignal | None = None) -> int:
    """Smallest M whose Fourier tail of conj(psi)*phi holds less than 1e-12
    of the product's energy.  A heuristic for choosing the m-range of the
    transform; for von Mises windows with lambda <= 5, M = 32 is already in
    the flat-tail regime.
    """
    phi = phi or psi
    if psi.grid.count != phi.grid.count:
        raise ValueError("signals must share a grid")
    product = np.conj(psi.values) * phi.values
    power = np.abs(fft(product)) ** 2
    total = power.sum()
    if total == 0.0:
        return 1
    half = psi.grid.count // 2
    ms = np.minimum(np.arange(psi.grid.count),
                    psi.grid.count - np.arange(psi.grid.count))
    for m_cut in range(1, half):
        if power[ms > m_cut].sum() < 1e-12 * total:
            return m_cut
    return half - 1


def cyl_gabor_transform(psi: CircularSignal, phi: CircularSignal,
                        m_max: int) -> CylCoefficients:
    """Coefficients S(m, theta) = <displace(m, theta) psi | phi> for
    |m| <= m_max on the signal's own angle nodes.

    The line's windowed Fourier analysis on the integer comb, times the
    half-phase exp(1j*m*theta/2) that the line's coefficients leave out.
    """
    if psi.grid.count != phi.grid.count:
        raise ValueError("window and signal must share a grid")
    if 2 * m_max + 1 > phi.grid.count:
        raise ValueError("m_max too large for %d-point signals" % phi.grid.count)
    m_comb, thetas = (-m_max, 1.0, 2 * m_max + 1), phi.grid.points
    half_phase = np.exp(1j * np.outer(np.arange(-m_max, m_max + 1), thetas) / 2.0)
    return CylCoefficients(m_max, phi.grid, half_phase * _analyze(psi, phi, m_comb, thetas))


def cyl_reconstruct(psi: CircularSignal, coeffs: CylCoefficients) -> CircularSignal:
    """Resynthesis phi(g) = (1/2pi) sum_m integral S(m,theta)
    (displace(m,theta) psi)(g) d(theta).

    Warns when the outermost m-rows hold more than 1e-10 of the
    coefficient energy (cutoff too small); a window that is not unit-norm
    raises first.
    """
    thetas = coeffs.theta_axis.points
    descaled = coeffs.values * np.exp(-1j * np.outer(coeffs.m_values, thetas) / 2.0)
    m_comb = (-coeffs.m_max, 1.0, 2 * coeffs.m_max + 1)
    out = CircularSignal(psi.grid, _synthesize(
        psi, m_comb, thetas, descaled, coeffs.theta_axis.step / _TWO_PI))
    tail = edge_mass_share(np.abs(coeffs.values) ** 2, axes=(0,))
    if tail > 1e-10:
        warnings.warn(
            "outermost m-rows carry %.2e of the coefficient energy; "
            "increase m_max" % tail,
            TruncationWarning,
            stacklevel=2,
        )
    return out
