"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion.  Each test prints its measured numbers
so a red line carries the evidence with it."""

import json
import time
import warnings

import numpy as np
import pytest

from weylgabor import cli, groups
from weylgabor.cylinder import (
    adaptive_m_cutoff,
    circle_grid,
    CircularSignal,
    cyl_gabor_transform,
    displace as cyl_displace,
    displacement_matrix_element,
    reproducing_kernel,
    truncated_trace,
    von_mises,
)
from weylgabor.gabor import (
    covariance_residual,
    displace,
    gabor_reconstruct,
    gabor_transform,
    gaussian_probe,
    make_test_signal,
)
from weylgabor.numerics import EdgeEnergyWarning, Grid1D, PhaseSpaceGrid
from weylgabor.quantize import (
    BandCoverageWarning,
    Distribution,
    density_diagnostics,
    gaussian_distribution,
    overlap_kernel,
    overlap_kernel_quadrature,
    quantize_to_kernel,
)
from weylgabor.stellar import (
    MassLeakageWarning,
    default_gram_grid,
    gram_diagonal,
    hermite_gram,
    pentagon_params,
    pentagon_zeros,
    quantize_stellar,
    stellar_experiment,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# criterion 1: randomized group laws against the matrix oracle
# ---------------------------------------------------------------------------

def test_criterion_01_group_laws_match_matrix_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)

    def rnd(k):
        return [float(x) for x in rng.uniform(-3.0, 3.0, size=k)]

    variants = [
        ("heisenberg_line", lambda: groups.WHElement(*rnd(3)),
         groups.wh_compose, groups.wh_to_matrix),
        ("polarized_rank1", lambda: groups.PolarizedElement((rnd(1)[0],), (rnd(1)[0],), rnd(1)[0]),
         groups.polarized_compose, groups.polarized_to_matrix),
        ("polarized_rank2", lambda: groups.PolarizedElement(tuple(rnd(2)), tuple(rnd(2)), rnd(1)[0]),
         groups.polarized_compose, groups.polarized_to_matrix),
        ("polarized_rank3", lambda: groups.PolarizedElement(tuple(rnd(3)), tuple(rnd(3)), rnd(1)[0]),
         groups.polarized_compose, groups.polarized_to_matrix),
        ("symplectic_dim2", lambda: groups.SymplecticElement(rnd(1)[0], tuple(rnd(2))),
         groups.symplectic_compose, groups.symplectic_to_matrix),
        ("symplectic_dim4", lambda: groups.SymplecticElement(rnd(1)[0], tuple(rnd(4))),
         groups.symplectic_compose, groups.symplectic_to_matrix),
        ("unitriangular4", lambda: groups.Unitriangular4Element(rnd(1)[0], tuple(rnd(2)), tuple(rnd(3))),
         groups.unitriangular4_compose, groups.unitriangular4_to_matrix),
    ]
    worst = 0.0
    for name, draw, compose, to_matrix in variants:
        elements = [draw() for _ in range(1000)]
        for i, g in enumerate(elements):
            h = elements[(i + 1) % 1000]
            direct = to_matrix(compose(g, h))
            err = float(np.abs(direct - to_matrix(g) @ to_matrix(h)).max())
            worst = max(worst, err)
        assert worst < 1e-12, "%s worst entrywise error %.3g" % (name, worst)

    field = groups.PrimeField(5)
    elements = [groups.WHElement(c, a, b, ring=field)
                for c in range(5) for a in range(5) for b in range(5)]
    universe = set(elements)
    assert len(universe) == 125
    for g in elements:
        for h in elements:
            assert groups.wh_compose(g, h) in universe
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "criterion 1 took %.2f s" % elapsed
    print("criterion 1: PASS worst oracle error %.3g, Z5 order 125 closed, "
          "%.2f s" % (worst, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: matrix-unit algebra and the nilpotency filtration
# ---------------------------------------------------------------------------

def test_criterion_02_matrix_units_and_filtration():
    order = 4
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            for k in range(1, order + 1):
                for l in range(1, order + 1):
                    product = groups.matrix_unit(order, i, j) @ groups.matrix_unit(order, k, l)
                    expected = ((1.0 if j == k else 0.0)
                                * groups.matrix_unit(order, i, l))
                    assert np.array_equal(product, expected), \
                        "E_%d%d E_%d%d deviates" % (i, j, k, l)
    checks = groups.nilpotency_filtration_check(4)
    failed = [k for k, v in checks.items()
              if k != "order" and v is not True]
    assert checks["all_pass"] is True, "failed checks: %s" % failed
    print("criterion 2: PASS all 256 unit products exact, filtration %s"
          % [k for k in checks if k not in ("order", "all_pass")])


# ---------------------------------------------------------------------------
# criterion 3: Parseval and reconstruction on the default grids
# ---------------------------------------------------------------------------

def test_criterion_03_parseval_and_round_trip():
    start = time.perf_counter()
    probe = gaussian_probe()
    results = {}
    for name in ("gaussian", "two_bump", "modulated"):
        s = make_test_signal(name)
        coeffs = gabor_transform(probe, s)
        parseval = abs(coeffs.energy - s.energy) / s.energy
        recon = gabor_reconstruct(probe, coeffs)
        err = float(np.sqrt(s.grid.step * np.sum(np.abs(recon.values - s.values) ** 2)))
        results[name] = (parseval, err)
        assert parseval < 1e-6, "%s Parseval %.3g" % (name, parseval)
        assert err < 1e-5, "%s round trip %.3g" % (name, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "criterion 3 took %.2f s" % elapsed
    print("criterion 3: PASS " + ", ".join(
        "%s parseval %.2e roundtrip %.2e" % (k, *v) for k, v in results.items())
        + ", %.2f s" % elapsed)


# ---------------------------------------------------------------------------
# criterion 4: displacement covariance of the transform
# ---------------------------------------------------------------------------

def test_criterion_04_transform_covariance():
    s = make_test_signal("gaussian")
    probe = gaussian_probe()
    base_max = float(np.abs(gabor_transform(probe, s).values).max())
    reported = []
    for omega0, b0 in ((1.0, 1.0), (2.0, -0.5)):
        residual = covariance_residual(probe, s, omega0, b0)
        reported.append((omega0, b0, residual))
        assert residual < 1e-6 * base_max, \
            "shift (%g, %g) residual %.3g vs bound %.3g" % (
                omega0, b0, residual, 1e-6 * base_max)
    print("criterion 4: PASS " + ", ".join(
        "(%g,%g) residual %.2e" % r for r in reported))


# ---------------------------------------------------------------------------
# criterion 5: circle displacement calculus
# ---------------------------------------------------------------------------

def test_criterion_05_circle_calculus():
    theta = 0.83
    worst_elem = 0.0
    grid = circle_grid(256)
    modes = {n: CircularSignal(grid, np.exp(1j * n * grid.points) / np.sqrt(TWO_PI))
             for n in range(-16, 17)}
    for m in range(-8, 9):
        for nprime in range(-8, 9):
            moved = cyl_displace(m, theta, modes[nprime])
            for n in range(-8, 9):
                quad = complex(grid.step * np.sum(
                    np.conj(modes[n].values) * moved.values))
                closed = displacement_matrix_element(m, theta, n, nprime)
                worst_elem = max(worst_elem, abs(quad - closed))
    assert worst_elem < 1e-12, "matrix elements worst %.3g" % worst_elem

    for m, th, cut in ((3, 0.8, 10), (-1, 2.0, 4), (5, 0.1, 20)):
        assert truncated_trace(m, th, cut) == 0j

    pgrid = circle_grid(512)
    r = 0.9
    poisson = (1.0 - r ** 2) / (1.0 - 2.0 * r * np.cos(pgrid.points) + r ** 2)
    tails = {8: 7.748409780000004, 32: 0.6180630876526528,
             128: 2.502152142788614e-05}
    rtols = {8: 1e-12, 32: 1e-11, 128: 1e-6}
    deficits = []
    for n_cut in (8, 32, 128):
        traces = np.array([truncated_trace(0, t, n_cut) for t in pgrid.points])
        pairing = pgrid.step / TWO_PI * np.sum(poisson * traces)
        deficit = 19.0 - float(pairing.real)
        assert deficit == pytest.approx(tails[n_cut], rel=rtols[n_cut])
        deficits.append(deficit)
    assert deficits[0] > deficits[1] > deficits[2]

    lam = 2.0
    window = von_mises(lam)
    assert reproducing_kernel(lam, 3, 1.234, 3, 1.234) == 1.0 + 0j
    rng = np.random.default_rng(5)
    worst_kernel = 0.0
    for _ in range(100):
        m, mp = (int(v) for v in rng.integers(-8, 9, size=2))
        t, tp = (float(v) for v in rng.uniform(0.0, TWO_PI, size=2))
        quad = complex(window.grid.step * np.sum(
            np.conj(cyl_displace(m, t, window).values)
            * cyl_displace(mp, tp, window).values))
        worst_kernel = max(worst_kernel,
                           abs(quad - reproducing_kernel(lam, m, t, mp, tp)))
    assert worst_kernel < 1e-10, "kernel worst %.3g" % worst_kernel

    signal = cyl_displace(2, 0.7, window)
    coeffs = cyl_gabor_transform(window, signal, adaptive_m_cutoff(window, signal))
    parseval = abs(coeffs.energy - signal.energy)
    assert parseval < 1e-8, "circle Parseval %.3g" % parseval
    print("criterion 5: PASS elements %.2e, Dirichlet deficits %s, "
          "kernel %.2e, parseval %.2e"
          % (worst_elem, ["%.3e" % d for d in deficits], worst_kernel, parseval))


# ---------------------------------------------------------------------------
# criterion 6: two-probe overlap density
# ---------------------------------------------------------------------------

def test_criterion_06_overlap_density():
    grid = PhaseSpaceGrid.square(-16.0, 16.0, 256)
    tq = Grid1D.regular(-40.0, 40.0, 2048)
    lattice_points = [(0.0, 0.0), (0.5, 0.25), (1.0, -1.0), (2.0, 0.75)]
    summary = []
    for a, r in ((1.0, 1.0), (5.0, 0.2), (2.0, 2.0), (5.0, 10.0)):
        dens = overlap_kernel(a, r, grid)
        mass_err = abs(dens.mass - 1.0)
        assert mass_err < 1e-8, "(%g, %g) mass error %.3g" % (a, r, mass_err)
        psi_a = gaussian_probe(tq, a)
        psi_r = gaussian_probe(tq, r)
        worst = 0.0
        for omega, b in lattice_points:
            i = int(round((omega - grid.omega_axis.start) / grid.omega_axis.step))
            j = int(round((b - grid.b_axis.start) / grid.b_axis.step))
            quad = overlap_kernel_quadrature(psi_a, psi_r, omega, b)
            worst = max(worst, abs(quad - dens.values[i, j]))
        assert worst < 1e-8, "(%g, %g) quadrature gap %.3g" % (a, r, worst)
        summary.append("(%g,%g) mass %.1e quad %.1e" % (a, r, mass_err, worst))
    print("criterion 6: PASS " + "; ".join(summary))


# ---------------------------------------------------------------------------
# criterion 7: quantized densities are unit-trace and positive
# ---------------------------------------------------------------------------

def test_criterion_07_quantized_density_operators():
    start = time.perf_counter()
    time_grid = Grid1D.regular(-20.0, 20.0, 512)
    tf_grid = PhaseSpaceGrid.square(-16.0, 16.0, 256)
    probe = gaussian_probe(time_grid, 1.0)

    gauss = gaussian_distribution(tf_grid).normalized()
    mix_values = 0.5 * (gaussian_distribution(tf_grid, center=(3.0, 2.0)).values
                        + gaussian_distribution(tf_grid, center=(-3.0, -2.0)).values)
    bimodal = Distribution(tf_grid, mix_values).normalized()

    reports = {}
    for name, w in (("gaussian", gauss), ("bimodal", bimodal)):
        diag = density_diagnostics(quantize_to_kernel(w, probe))
        reports[name] = diag
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        warnings.simplefilter("ignore", BandCoverageWarning)
        _, diag = quantize_stellar(pentagon_zeros(), pentagon_params(), time_grid)
    reports["pentagon"] = diag

    for name, diag in reports.items():
        assert abs(diag["trace"] - 1.0) < 1e-4, \
            "%s trace %.6f" % (name, diag["trace"])
        assert diag["hermiticity_defect"] < 1e-8, \
            "%s hermiticity %.3g" % (name, diag["hermiticity_defect"])
        assert diag["min_eigenvalue"] >= -1e-6, \
            "%s min eigenvalue %.3g" % (name, diag["min_eigenvalue"])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "criterion 7 took %.2f s" % elapsed
    print("criterion 7: PASS " + ", ".join(
        "%s trace %.6f mineig %.1e" % (k, d["trace"], d["min_eigenvalue"])
        for k, d in reports.items()) + ", %.2f s" % elapsed)


# ---------------------------------------------------------------------------
# criterion 8: Hermite Gram matrix is diagonal with the closed-form diagonal
# ---------------------------------------------------------------------------

def test_criterion_08_hermite_gram_diagonal():
    summary = []
    for s in (0.3, 0.5, 0.945):
        grid = default_gram_grid(s)
        worst_diag = 0.0
        worst_off = 0.0
        for m in range(6):
            for n in range(m, 6):
                value = hermite_gram(m, n, s, grid)
                if m == n:
                    target = gram_diagonal(n, s)
                    worst_diag = max(worst_diag, abs(value - target) / target)
                else:
                    scale = np.sqrt(gram_diagonal(m, s) * gram_diagonal(n, s))
                    worst_off = max(worst_off, abs(value) / scale)
        assert worst_diag < 1e-6, "s=%g diagonal rel error %.3g" % (s, worst_diag)
        assert worst_off < 1e-6, "s=%g off-diagonal leak %.3g" % (s, worst_off)
        summary.append("s=%g diag %.1e off %.1e" % (s, worst_diag, worst_off))
    print("criterion 8: PASS " + "; ".join(summary))


# ---------------------------------------------------------------------------
# criterion 9: pentagon zeros survive smoothing on the reference grid
# ---------------------------------------------------------------------------

def test_criterion_09_pentagon_portrait_keeps_six_minima():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MassLeakageWarning)
        warnings.simplefilter("ignore", EdgeEnergyWarning)
        report, _, _ = stellar_experiment(pentagon_zeros(), pentagon_params(),
                                          symmetry_fold=5)
    elapsed = time.perf_counter() - start
    minima = report["portrait_minima"]
    match = report["portrait_match"]
    residual = report["portrait_symmetry_residual"]
    print("criterion 9: measured %d portrait minima at %s; matched %d of 6 "
          "(max displacement %s); 5-fold residual %s; portrait mass %.4f; "
          "%.1f s"
          % (len(minima), [["%.3f" % v for v in m] for m in minima],
             match["matched"], match["max_displacement"], residual,
             report["portrait_mass"], elapsed))
    assert elapsed < 120.0, "criterion 9 took %.2f s" % elapsed
    assert len(minima) == 6, \
        "expected 6 portrait minima, found %d" % len(minima)
    assert match["matched"] == 6 and match["max_displacement"] < 0.25, \
        "matched %d with max displacement %s" % (
            match["matched"], match["max_displacement"])
    assert residual is not None and residual < 0.1, \
        "5-fold symmetry residual %s" % residual


# ---------------------------------------------------------------------------
# criterion 10: rerunning a config reproduces the artifacts byte for byte
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    configs = [
        ("gabor", {"n_time": 256, "n_tf": 64}),
        ("group-check", {"trials": 20}),
    ]
    for command, parameters in configs:
        cfg = tmp_path / ("%s.json" % command)
        cfg.write_text(json.dumps({"command": command, "seed": 3,
                                   "parameters": parameters}))
        out1 = tmp_path / (command + "-1")
        out2 = tmp_path / (command + "-2")
        assert cli.main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            if name == "manifest.json":
                m1 = json.loads(b1)
                m2 = json.loads(b2)
                m1.pop("wall_time_s")
                m2.pop("wall_time_s")
                assert m1 == m2, "%s manifests differ beyond wall time" % command
            else:
                assert b1 == b2, "%s artifact %s differs" % (command, name)
    print("criterion 10: PASS both configs byte-stable across reruns")
