"""Each library module exports, in ``__all__``, every public function and
class it defines, the library boundaries name the argument that carries a
non-finite value, and every health warning names the stage that raised it."""

import inspect
import re
import warnings

import numpy as np
import pytest

from weylgabor import cylinder, gabor, groups, numerics, quantize, stellar

GRID = numerics.PhaseSpaceGrid.square(-4.0, 4.0, 32)
PROBE = gabor.gaussian_probe(numerics.Grid1D.regular(-8.0, 8.0, 64))


@pytest.mark.parametrize("module", [numerics, groups, gabor, cylinder,
                                    quantize, stellar],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert defined <= set(module.__all__)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,call", [
    ("sigma_omega", lambda bad: quantize.gaussian_distribution(GRID, bad, 1.0)),
    ("sigma_b", lambda bad: quantize.gaussian_distribution(GRID, 1.0, bad)),
    ("center", lambda bad: quantize.gaussian_distribution(GRID, 1.0, 1.0, (bad, 0.0))),
    ("center", lambda bad: quantize.gaussian_distribution(GRID, 1.0, 1.0, (0.0, bad))),
    ("omega0", lambda bad: quantize.point_mass_distribution(GRID, bad, 0.0)),
    ("b0", lambda bad: quantize.point_mass_distribution(GRID, 0.0, bad)),
    ("a", lambda bad: quantize.overlap_kernel(bad, 1.0, GRID)),
    ("r", lambda bad: quantize.overlap_kernel(1.0, bad, GRID)),
    ("omega", lambda bad: quantize.overlap_kernel_quadrature(PROBE, PROBE, bad, 0.0)),
    ("b", lambda bad: quantize.overlap_kernel_quadrature(PROBE, PROBE, 0.0, bad)),
    ("entries", lambda bad: quantize.OperatorKernel(
        PROBE.grid, np.where(np.eye(PROBE.grid.count, dtype=bool), 1.0, complex(0.5, bad)))),
    ("rate_b", lambda bad: stellar.anisotropic_stellar_weight([0j], bad, 1.0, 0.1j)),
    ("rate_omega", lambda bad: stellar.anisotropic_stellar_weight([0j], 1.0, bad, 0.1j)),
    ("zeros", lambda bad: stellar.anisotropic_stellar_weight([0j, complex(bad, 0.0)],
                                                             1.0, 1.0, 0.1j)),
    ("zeros", lambda bad: stellar.stellar_distribution([complex(0.0, bad)], 0.5, GRID)),
    ("z", lambda bad: stellar.anisotropic_stellar_weight([0j], 1.0, 1.0,
                                                         [0.1j, complex(bad, 0.0)])),
    ("z", lambda bad: stellar.stellar_weight([0j], 0.5, complex(0.0, bad))),
    ("z", lambda bad: stellar.hermite_poly(3, np.array([0.5, complex(bad, 1.0)]))),
    ("probe_a", lambda bad: stellar.StellarParams(0.5, bad, 1.0, GRID)),
    ("probe_r", lambda bad: stellar.StellarParams(0.5, 1.0, bad, GRID)),
    ("lo", lambda bad: numerics.Grid1D.regular(bad, 1.0, 8)),
    ("hi", lambda bad: numerics.Grid1D.regular(-1.0, bad, 8)),
    ("nodes", lambda bad: numerics.chirp_z(np.ones(8), (bad, 0.1, 8), (0.0, 1.0, 4))),
    ("nodes", lambda bad: numerics.chirp_z(np.ones(8), (0.0, bad, 8), (0.0, 1.0, 4))),
    ("comb", lambda bad: numerics.chirp_z(np.ones(8), (0.0, 0.1, 8), (bad, 1.0, 4))),
    ("comb", lambda bad: numerics.chirp_z(np.ones(8), (0.0, 0.1, 8), (0.0, bad, 4))),
    ("start", lambda bad: numerics.Grid1D(bad, 0.1, 8)),
    ("step", lambda bad: numerics.Grid1D(0.0, bad, 8)),
    ("step", lambda bad: numerics.spectral_shift(np.ones(8), bad, 0.5)),
    ("step", lambda bad: numerics.batch_fractional_shift(np.ones(8), bad, 0.5)),
    ("values", lambda bad: numerics.spectral_shift(np.array([1.0, bad, 1.0, 1.0]), 0.1, 0.5)),
    ("values", lambda bad: numerics.batch_fractional_shift(
        np.array([1.0, 1.0, complex(0.0, bad), 1.0]), 0.1, [0.0, 0.5])),
    ("step", lambda bad: numerics.periodic_trapezoid(np.ones(8), bad)),
    ("values", lambda bad: numerics.periodic_trapezoid(np.array([1.0, bad, 1.0, 1.0]))),
    ("values", lambda bad: numerics.edge_peak_ratio(np.array([1.0, bad, 1.0, 1.0]))),
    ("values", lambda bad: numerics.edge_peak_ratio(
        np.array([1.0, 1.0, complex(0.0, bad), 1.0]))),
    ("values", lambda bad: numerics.edge_mass_share(np.array([1.0, bad, 1.0, 1.0]))),
    ("f", lambda bad: numerics.grid_convolve(
        np.where(np.eye(32, dtype=bool), bad, 1.0), np.ones((32, 32)), GRID)),
    ("g", lambda bad: numerics.grid_convolve(
        np.ones((32, 32)), np.where(np.eye(32, dtype=bool), bad, 1.0), GRID)),
    ("w", lambda bad: numerics.find_local_minima(
        np.where(np.eye(32, dtype=bool), bad, 1.0), GRID)),
    ("c", lambda bad: groups.WHElement(bad, 0, 0)),
    ("a", lambda bad: groups.WHElement(0.0, np.array([0.5, bad]), 0.0)),
    ("b", lambda bad: groups.PolarizedElement((1.0,), (bad,), 0.0)),
    ("c", lambda bad: groups.SymplecticElement(bad, (0.0, 0.0))),
    ("v", lambda bad: groups.SymplecticElement(0.0, (bad, 0.0))),
    ("y", lambda bad: groups.Unitriangular4Element(0.0, (0.0, bad), (0.0, 0.0, 0.0))),
    ("x", lambda bad: groups.Unitriangular4Element(0.0, (0.0, 0.0), (bad, 0.0, 0.0))),
    ("x", lambda bad: groups.subdiagonal_embed([bad])),
], ids=["gaussian-sigma_omega", "gaussian-sigma_b", "gaussian-center_omega",
        "gaussian-center_b", "point-omega0", "point-b0", "overlap-a", "overlap-r",
        "quadrature-omega", "quadrature-b", "kernel-entries", "weight-rate_b", "weight-rate_omega",
        "weight-zero-real", "distribution-zero-imag", "weight-z-real",
        "stellar-weight-z-imag", "hermite-z", "params-probe_a", "params-probe_r",
        "regular-lo", "regular-hi", "chirp_z-x0", "chirp_z-dx", "chirp_z-f0",
        "chirp_z-df", "grid-start", "grid-step", "shift-step", "batch-shift-step",
        "shift-values", "batch-shift-values", "trapezoid-step", "trapezoid-values",
        "edge-peak-values", "edge-peak-complex-values", "edge-mass-values",
        "convolve-f", "convolve-g",
        "minima-w",
        "wh-c", "wh-a-block", "polarized-b", "symplectic-c", "symplectic-v",
        "unitriangular-y", "unitriangular-x", "subdiagonal-x"])
def test_library_boundaries_name_their_nonfinite_arguments(name, call, bad):
    with pytest.raises(ValueError, match="^%s must be finite$" % name):
        call(bad)


def _edge_heavy():
    """A unit-mass Gaussian on GRID wide enough to reach every edge."""
    return quantize.gaussian_distribution(GRID, 1.5, 1.5).normalized()


def _health_case(stage):
    """(category, call that raises it, the number its text must hold)."""
    if stage == "batch_fractional_shift":
        values = np.exp(-0.5 * (0.25 * np.arange(-16, 16)) ** 2)
        return (numerics.EdgeEnergyWarning,
                lambda: numerics.batch_fractional_shift(values, 0.25, 0.5),
                numerics.edge_peak_ratio(values))
    if stage == "grid_convolve (first input)":
        f = _edge_heavy().values
        g = quantize.gaussian_distribution(GRID, 0.5, 0.5).values
        return (numerics.EdgeEnergyWarning, lambda: numerics.grid_convolve(f, g, GRID),
                numerics.edge_peak_ratio(f))
    if stage == "portrait (density)":
        w = _edge_heavy()
        return (numerics.EdgeEnergyWarning, lambda: quantize.portrait(w, 2.0, 2.0),
                numerics.edge_peak_ratio(w.values))
    if stage == "quantize_to_kernel":
        w = _edge_heavy()
        return (quantize.BandCoverageWarning, lambda: quantize.quantize_to_kernel(w, PROBE),
                numerics.edge_peak_ratio(w.values, axes=(0,)))
    if stage == "weyl_operator_from_weight":
        weight = _edge_heavy().values
        return (quantize.BandCoverageWarning,
                lambda: quantize.weyl_operator_from_weight(weight, GRID, PROBE.grid),
                numerics.edge_peak_ratio(weight, axes=(0,)))
    if stage == "gabor_reconstruct":
        narrow = numerics.PhaseSpaceGrid.square(-2.0, 2.0, 16)
        coeffs = gabor.gabor_transform(PROBE, gabor.make_test_signal("two_bump", PROBE.grid),
                                       narrow)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gabor.SupportCoverageWarning)
            energy = gabor.gabor_reconstruct(PROBE, coeffs).energy
        return (gabor.SupportCoverageWarning, lambda: gabor.gabor_reconstruct(PROBE, coeffs),
                abs(energy - coeffs.energy) / coeffs.energy)
    if stage == "uncertainty_product":
        wide = gabor.SampledSignal(PROBE.grid, np.exp(-PROBE.grid.points ** 2 / 32.0))
        return (gabor.SlowDecayWarning, lambda: gabor.uncertainty_product(wide),
                numerics.edge_peak_ratio(np.abs(wide.values) ** 2))
    if stage == "cyl_reconstruct":
        window = cylinder.von_mises(2.0)
        cut = cylinder.cyl_gabor_transform(window, window, 8)
        return (cylinder.TruncationWarning, lambda: cylinder.cyl_reconstruct(window, cut),
                numerics.edge_mass_share(np.abs(cut.values) ** 2, axes=(0,)))
    assert stage == "stellar_distribution"
    zeros = stellar.pentagon_zeros()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stellar.MassLeakageWarning)
        tail = stellar.stellar_distribution(zeros, 0.945, GRID).tail_fraction
    return (stellar.MassLeakageWarning,
            lambda: stellar.stellar_distribution(zeros, 0.945, GRID), tail)


@pytest.mark.parametrize("stage", [
    "batch_fractional_shift", "grid_convolve (first input)", "portrait (density)",
    "quantize_to_kernel", "weyl_operator_from_weight", "gabor_reconstruct",
    "uncertainty_product", "cyl_reconstruct", "stellar_distribution"])
def test_health_warnings_name_their_stage_and_number(stage):
    category, call, value = _health_case(stage)
    assert value > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    texts = [str(w.message) for w in caught if w.category is category
             and str(w.message).startswith(stage + ": ")]
    assert len(texts) == 1, [str(w.message) for w in caught]
    # the text prints the measured number to three significant digits
    printed = [float(x) for x in re.findall(r"\d\.\d+(?:e[-+]\d+)?|\d+", texts[0])]
    assert any(abs(x - value) <= 5e-3 * value for x in printed), (texts[0], value)
    # attributed to the caller of the public function, as before
    assert {w.filename for w in caught if w.category is category} == {__file__}
