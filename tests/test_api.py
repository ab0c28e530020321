"""Each library module exports, in ``__all__``, every public function and
class it defines, and the library boundaries name the argument that
carries a non-finite value."""

import inspect

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
    ("step", lambda bad: numerics.spectral_shift(np.ones(8), bad, 0.5)),
    ("step", lambda bad: numerics.batch_fractional_shift(np.ones(8), bad, 0.5)),
    ("step", lambda bad: numerics.periodic_trapezoid(np.ones(8), bad)),
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
        "quadrature-omega", "quadrature-b", "weight-rate_b", "weight-rate_omega",
        "weight-zero-real", "distribution-zero-imag", "weight-z-real",
        "stellar-weight-z-imag", "hermite-z", "params-probe_a", "params-probe_r",
        "regular-lo", "regular-hi", "chirp_z-x0", "chirp_z-dx", "chirp_z-f0",
        "chirp_z-df", "shift-step", "batch-shift-step", "trapezoid-step",
        "wh-c", "wh-a-block", "polarized-b", "symplectic-c", "symplectic-v",
        "unitriangular-y", "unitriangular-x", "subdiagonal-x"])
def test_library_boundaries_name_their_nonfinite_arguments(name, call, bad):
    with pytest.raises(ValueError, match="^%s must be finite$" % name):
        call(bad)
