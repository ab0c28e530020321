"""Planar zero constellations: densities vanishing on a prescribed zero set,
their smoothed portraits, and how well smoothing preserves the zeros.

A finite multiset of planar points {z_i = b_i + 1j*omega_i} defines the
density

    w(omega, b) = (1/norm) * exp(-(1-s)*b^2 - (1/s-1)*omega^2)
                  * |prod_i (z - z_i)|^2,      z = b + 1j*omega,

for a shape parameter s in (0, 1).  The polynomial factor vanishes exactly
at the zeros; the anisotropic Gaussian envelope keeps the mass finite.
The normalization is always computed by quadrature on the evaluation grid.

With Hermite polynomials in place of the zero-set polynomial the same
envelope gives an orthogonal family: the Gram integrals are diagonal with
the closed-form diagonal gram_diagonal(n, s).

The experiment driver compares the minima of w with the minima of its
smoothed portrait and quantifies discrete rotational symmetry through a
Hausdorff residual.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from math import comb, factorial
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .gabor import gaussian_probe
from .numerics import (
    Grid1D,
    PhaseSpaceGrid,
    _integer_order,
    edge_mass_share,
    find_local_minima,
)
from .quantize import (
    Distribution,
    OperatorKernel,
    density_diagnostics,
    portrait,
    quantize_to_kernel,
)

__all__ = [
    "MassLeakageWarning",
    "StellarParams",
    "StellarDensity",
    "pentagon_zeros",
    "pentagon_params",
    "hermite_poly",
    "anisotropic_stellar_weight",
    "stellar_weight",
    "stellar_distribution",
    "hermite_gram",
    "gram_diagonal",
    "default_gram_grid",
    "stellar_experiment",
    "quantize_stellar",
]

_HERMITE_CAP = 30


class MassLeakageWarning(UserWarning):
    """A visible fraction of the density's mass sits on the boundary ring of
    the evaluation grid, so on-grid normalization misstates the density."""


def _envelope_rates(s: float) -> tuple:
    """The envelope rates (1 - s, 1/s - 1) of exp(-(1-s)b^2 - (1/s-1)omega^2),
    for a shape parameter s in (0, 1); anything else is a ValueError."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0,1)")
    return 1.0 - s, 1.0 / s - 1.0


@dataclass(frozen=True)
class StellarParams:
    """Shape parameter, probe widths for the portrait, and evaluation grid."""

    s: float
    probe_a: float
    probe_r: float
    grid: PhaseSpaceGrid

    def __post_init__(self):
        _envelope_rates(self.s)
        if self.probe_a <= 0 or self.probe_r <= 0:
            raise ValueError("probe widths must be positive")


class StellarDensity(NamedTuple):
    distribution: Distribution
    normalization: float
    tail_fraction: float


def pentagon_zeros() -> np.ndarray:
    """The origin plus the five fifth roots of unity."""
    return np.concatenate(([0.0 + 0.0j], np.exp(2j * np.pi * np.arange(5) / 5.0)))


def pentagon_params() -> StellarParams:
    """Reference configuration for the pentagon run: s = 0.945, probe widths
    a = r = 2 (reading the overloaded 'a = b = 2' as the two probe widths),
    grid [-4, 4)^2 at 512 x 512."""
    return StellarParams(s=0.945, probe_a=2.0, probe_r=2.0,
                         grid=PhaseSpaceGrid.square(-4.0, 4.0, 512))


def _hermite_rows(n: int, z):
    """H_0(z), ..., H_n(z) via the recurrence
    H_{k+1}(z) = 2 z H_k(z) - 2 k H_{k-1}(z), in the dtype of z."""
    h_prev = np.ones_like(z)
    yield h_prev
    if n == 0:
        return
    h = 2.0 * z
    yield h
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
        yield h


def hermite_poly(n: int, z) -> np.ndarray:
    """Physicists' Hermite polynomial H_n at a complex argument."""
    n = _integer_order(n, _HERMITE_CAP)
    for h in _hermite_rows(n, np.asarray(z, dtype=complex)):
        pass
    return h


def anisotropic_stellar_weight(zeros: Sequence[complex], rate_b: float,
                               rate_omega: float, z) -> np.ndarray:
    """Unnormalized density exp(-rate_b*b^2 - rate_omega*omega^2) *
    |prod (z - z_i)|^2 at complex points z = b + 1j*omega.

    Swapping the two rates while mapping each zero z_i to 1j*conj(z_i)
    transposes the density between the b and omega axes exactly, because
    |prod (1j*conj(z) - z_i)| = |prod (z - 1j*conj(z_i))|.
    """
    if rate_b <= 0 or rate_omega <= 0:
        raise ValueError("envelope rates must be positive")
    z = np.asarray(z, dtype=complex)
    poly = np.ones_like(z)
    for zero in zeros:
        poly = poly * (z - zero)
    b = z.real
    omega = z.imag
    return np.exp(-rate_b * b ** 2 - rate_omega * omega ** 2) * np.abs(poly) ** 2


def stellar_weight(zeros: Sequence[complex], s: float, z) -> np.ndarray:
    """Unnormalized stellar density at complex points z = b + 1j*omega."""
    return anisotropic_stellar_weight(zeros, *_envelope_rates(s), z)


def stellar_distribution(zeros: Sequence[complex], s: float,
                         grid: PhaseSpaceGrid) -> StellarDensity:
    """Normalized stellar density on the grid.

    The normalization constant is the on-grid quadrature of the raw weight;
    it is reported alongside the boundary-ring mass fraction.  A boundary
    fraction above 1e-6 triggers MassLeakageWarning: the grid is then too
    small for the on-grid normalization to approximate the plane integral
    (the reference pentagon run is itself in this regime, since its
    polynomial growth peaks well outside any grid that resolves the zeros).
    """
    omega_mesh, b_mesh = grid.meshes()
    values = stellar_weight(zeros, s, b_mesh + 1j * omega_mesh)
    raw_total = float(grid.integrate(values))
    if raw_total <= 0:
        raise ValueError("density has no mass on the grid")
    tail = edge_mass_share(values)
    if tail > 1e-6:
        warnings.warn(
            "boundary ring holds %.3g of the on-grid mass; normalization is "
            "grid-truncated" % tail,
            MassLeakageWarning,
            stacklevel=2,
        )
    return StellarDensity(Distribution(grid, values / raw_total),
                          float(raw_total), tail)


def gram_diagonal(n: int, s: float) -> float:
    """Closed-form diagonal Gram value
    (pi*sqrt(s)/(1-s)) * (2(1+s)/(1-s))^n * n!."""
    rate_b, _ = _envelope_rates(s)
    return float(np.pi * np.sqrt(s) / rate_b
                 * (2.0 * (1.0 + s) / rate_b) ** n * factorial(n))


def default_gram_grid(s: float, n_points: int = 384) -> PhaseSpaceGrid:
    """Quadrature window sized so the weighted Hermite products up to degree
    8 decay below 1e-9 of their peak before the boundary."""
    min_rate, _ = _envelope_rates(s)
    half = max(12.0, 4.0 * np.sqrt(9.0 / min_rate))
    return PhaseSpaceGrid.square(-half, half, n_points)


@functools.cache
def _gauss_hermite() -> tuple:
    """Nodes and weights of the 9-point Gauss-Hermite rule for weight
    exp(-x^2), exact up to degree 17; computed on first use, so importing
    the package runs no eigensolver."""
    return hermgauss(9)


def _tensor_gram(m: int, n: int, b, u, omega, v) -> complex:
    """sum_{i,l} u_i v_l H_m(z_il) conj(H_n(z_il)), z_il = b_i + 1j*omega_l,
    as sum_{j,k} C(m,j) C(n,k) A[j,k] B[m-j, n-k], with the real b-table
    A[j,k] = sum_i u_i H_j(b_i) H_k(b_i) and the omega-table
    B[p,q] = sum_l v_l (2j*omega_l)^p conj((2j*omega_l)^q).
    """
    top = max(m, n)
    h = np.array(list(_hermite_rows(top, b)))
    a = (h * u) @ h.T
    powers = (2j * omega) ** np.arange(top + 1)[:, None]
    bmat = (powers * v) @ powers.conj().T
    cm = np.array([comb(m, j) for j in range(m + 1)], dtype=float)
    cn = np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    return complex(cm @ (a[:m + 1, :n + 1] * bmat[m::-1, n::-1]) @ cn)


def hermite_gram(m: int, n: int, s: float,
                 grid: PhaseSpaceGrid | None = None) -> complex:
    """Quadrature of H_m(z) conj(H_n(z)) exp(-(1-s)b^2 - (1/s-1)omega^2)
    over the plane (measure db domega), z = b + 1j*omega.

    Diagonal in (m, n) with diagonal gram_diagonal(n, s).  Both rules are
    tensor products, evaluated through the addition theorem
    H_m(b + 1j*omega) = sum_j C(m,j) H_j(b) (2j*omega)^(m-j), which splits
    the double sum into one table per axis (see _tensor_gram): one call
    costs O((n_b + n_omega) * max(m, n)^2) rather than O(n_b * n_omega * m).

    With no grid the 9-node Gauss-Hermite rule, scaled by 1/sqrt(rate) on
    each axis, is exact up to roundoff, because the integrand is a
    polynomial of degree at most 16 in each of b and omega times the
    Gaussian.  With a grid the result is the Riemann sum
    step_b * step_omega * sum over the mesh, factored exactly.
    """
    m = _integer_order(m, 8)
    n = _integer_order(n, 8)
    rate_b, rate_omega = _envelope_rates(s)
    if grid is None:
        x, w = _gauss_hermite()
        sb, so = np.sqrt(rate_b), np.sqrt(rate_omega)
        return _tensor_gram(m, n, x / sb, w / sb, x / so, w / so)
    b, omega = grid.b_axis.points, grid.omega_axis.points
    return _tensor_gram(m, n, b, grid.b_axis.step * np.exp(-rate_b * b ** 2),
                        omega, grid.omega_axis.step * np.exp(-rate_omega * omega ** 2))


def _greedy_match(zeros: Sequence[complex], minima, cutoff: float) -> dict:
    """Greedy nearest-neighbor assignment of minima to source zeros."""
    zs = np.asarray(list(zeros), dtype=complex)
    mins = np.array([m[1] + 1j * m[0] for m in minima], dtype=complex)
    pairs = []
    for i, z in enumerate(zs):
        for j, mz in enumerate(mins):
            d = abs(z - mz)
            if d <= cutoff:
                pairs.append((d, i, j))
    pairs.sort(key=lambda item: item[0])
    zero_used = set()
    min_used = set()
    matched = []
    for d, i, j in pairs:
        if i in zero_used or j in min_used:
            continue
        zero_used.add(i)
        min_used.add(j)
        matched.append((i, j, d))
    matched.sort(key=lambda item: item[0])
    displacements = [float(d) for _, _, d in matched]
    return {
        "matched": len(matched),
        "unmatched_zeros": len(zs) - len(zero_used),
        "unmatched_minima": len(mins) - len(min_used),
        "pairs": [[int(i), int(j)] for i, j, _ in matched],
        "displacements": displacements,
        "max_displacement": max(displacements) if displacements else None,
    }


def _rotation_residual(minima, fold: int):
    """Hausdorff distance between the minima farther than 0.25 from the
    origin and their rotation by 2*pi/fold about it; None when no such
    minima exist."""
    pts = np.array([m[1] + 1j * m[0] for m in minima], dtype=complex)
    pts = pts[np.abs(pts) > 0.25]
    if pts.size == 0:
        return None
    rotated = pts * np.exp(2j * np.pi / fold)
    dist = np.abs(pts[:, None] - rotated[None, :])
    forward = dist.min(axis=1).max()
    backward = dist.min(axis=0).max()
    return float(max(forward, backward))


def stellar_experiment(zeros: Sequence[complex], params: StellarParams,
                       rel_threshold: float = 1e-2, match_cutoff: float = 0.5,
                       symmetry_fold: int | None = None):
    """Build the stellar density, smooth it, locate the minima of both, and
    report zero preservation and discrete rotational symmetry; returns the
    report, the normalized density and its portrait.

    Minima are matched to the source zeros greedily by distance with the
    given cutoff; unmatched entries on either side are counted, never
    force-matched.  The symmetry residual is the Hausdorff distance between
    the non-origin minima and their rotation by 2*pi/symmetry_fold.
    """
    if symmetry_fold is not None and symmetry_fold < 2:
        raise ValueError("symmetry fold must be at least 2")
    if not match_cutoff > 0:
        raise ValueError("match cutoff must be positive")
    density = stellar_distribution(zeros, params.s, params.grid)
    w = density.distribution
    smoothed = portrait(w, params.probe_a, params.probe_r)
    w_minima = find_local_minima(w.values, params.grid, rel_threshold)
    p_minima = find_local_minima(smoothed.values, params.grid, rel_threshold)
    report = {
        "zeros": [[float(z.real), float(z.imag)] for z in np.asarray(list(zeros), dtype=complex)],
        "s": params.s,
        "probe_a": params.probe_a,
        "probe_r": params.probe_r,
        "normalization": density.normalization,
        "tail_fraction": density.tail_fraction,
        "w_mass": w.mass,
        "portrait_mass": smoothed.mass,
        "w_minima": [[float(om), float(b), float(v)] for om, b, v in w_minima],
        "portrait_minima": [[float(om), float(b), float(v)] for om, b, v in p_minima],
        "w_match": _greedy_match(zeros, w_minima, match_cutoff),
        "portrait_match": _greedy_match(zeros, p_minima, match_cutoff),
    }
    if symmetry_fold is not None:
        report["symmetry_fold"] = symmetry_fold
        report["w_symmetry_residual"] = _rotation_residual(w_minima, symmetry_fold)
        report["portrait_symmetry_residual"] = _rotation_residual(p_minima, symmetry_fold)
    return report, w, smoothed


def quantize_stellar(zeros: Sequence[complex], params: StellarParams,
                     time_grid: Grid1D):
    """Quantize the stellar density with a Gaussian probe of width probe_a
    on ``time_grid``; returns the operator kernel and its diagnostics."""
    density = stellar_distribution(zeros, params.s, params.grid)
    probe = gaussian_probe(time_grid, params.probe_a)
    kernel = quantize_to_kernel(density.distribution, probe)
    return kernel, density_diagnostics(kernel)
