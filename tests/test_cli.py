"""End-to-end command-line runs: configs, artifacts, manifests, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import iv

from weylgabor import cli, csvtext, gabor, groups
from weylgabor.numerics import Grid1D, PhaseSpaceGrid
from weylgabor.gabor import gaussian_probe
from weylgabor.quantize import (BandCoverageWarning, OperatorKernel,
                                gaussian_distribution, portrait, quantize_to_kernel)
from weylgabor.stellar import pentagon_zeros, stellar_distribution

EXPECTED_SUITES = {
    "heisenberg_line_matrix",
    "polarized_rank1_matrix",
    "polarized_rank2_matrix",
    "polarized_rank3_matrix",
    "symplectic_dim2_matrix",
    "symplectic_dim4_matrix",
    "unitriangular4_matrix",
    "z5_order_and_closure",
    "nilpotency_filtration",
    "matrix_unit_products",
}


def _write_config(path, command, seed=0, **parameters):
    path.write_text(json.dumps({"command": command, "seed": seed,
                                "parameters": parameters}))
    return str(path)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _refuse_constant(constant):
    """parse_constant for JSON output, which must hold no NaN or Infinity."""
    raise AssertionError("JSON output holds %s" % constant)


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["schema"] == 3
    return payload["error"]


# ---------------------------------------------------------------------------
# group-check
# ---------------------------------------------------------------------------

def test_group_check_run(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "group-check", seed=7, trials=50)
    out = tmp_path / "out"
    assert cli.main(["group-check", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "group_check.json")
    assert report["schema"] == 3
    assert report["seed"] == 7
    assert report["trials"] == 50
    assert set(report["suites"]) == EXPECTED_SUITES
    assert report["all_pass"] is True
    assert report["suites"]["z5_order_and_closure"]["order"] == 125
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "group-check"
    assert manifest["config"]["seed"] == 7
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    assert "manifest.json" not in manifest["outputs"]


def _group_check_suites(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "group-check", seed=3, trials=5)
    out = tmp_path / "out"
    assert cli.main(["group-check", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "group_check.json")
    return report, {name for name, suite in report["suites"].items()
                    if not suite["pass"]}


def test_group_check_fails_a_suite_with_nan_matrices(tmp_path, monkeypatch):
    monkeypatch.setattr(groups, "wh_to_matrix",
                        lambda g: np.full((3, 3), np.nan))
    report, failed = _group_check_suites(tmp_path)
    assert failed == {"heisenberg_line_matrix"}
    assert np.isnan(report["suites"]["heisenberg_line_matrix"]["max_error"])
    assert report["all_pass"] is False


def test_group_check_sees_a_corner_off_by_1e_9(tmp_path, monkeypatch):
    law = groups.polarized_compose

    def off(g1, g2):
        g = law(g1, g2)
        return groups.PolarizedElement(g.a, g.b, g.c + 1e-9)

    monkeypatch.setattr(groups, "polarized_compose", off)
    report, failed = _group_check_suites(tmp_path)
    assert failed == {"polarized_rank%d_matrix" % n for n in (1, 2, 3)}
    for name in failed:
        assert 5e-10 < report["suites"][name]["max_error"] < 2e-9
    assert report["all_pass"] is False


def test_group_check_sees_a_wrong_matrix_unit(tmp_path, monkeypatch):
    unit = groups.matrix_unit
    monkeypatch.setattr(groups, "matrix_unit",
                        lambda order, i, j: unit(order, j, i))
    report, failed = _group_check_suites(tmp_path)
    assert "matrix_unit_products" in failed
    assert report["suites"]["matrix_unit_products"]["max_error"] == 1.0
    assert report["all_pass"] is False


# ---------------------------------------------------------------------------
# gabor
# ---------------------------------------------------------------------------

def test_gabor_run_with_named_signal(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "gabor", n_time=512, n_tf=128)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["signal"] == "gaussian"
    assert report["parseval_rel_error"] < 1e-6
    assert report["roundtrip_rel_error"] < 1e-5
    lines = (out / "coefficients_modulus.csv").read_text().splitlines()
    assert lines[0] == "# " + cli.PHASE_GRID_HEADER
    meta = lines[1].lstrip("# ").split(",")
    assert len(meta) == 6
    assert float(meta[0]) == -16.0
    assert int(meta[2]) == 128
    assert len(lines) == 2 + 128


def test_gabor_run_with_csv_signal(tmp_path):
    grid = Grid1D.regular(-20.0, 20.0, 512)
    values = np.pi ** -0.25 * np.exp(-grid.points ** 2 / 2.0)
    rows = "\n".join("%.17g,%.17g,0" % (t, v)
                     for t, v in zip(grid.points, values))
    csv_path = tmp_path / "signal.csv"
    csv_path.write_text("# t,re,im\n" + rows + "\n")
    cfg = _write_config(tmp_path / "cfg.json", "gabor",
                        signal_csv=str(csv_path), n_tf=128)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["signal"] == "csv:signal.csv"
    assert report["parseval_rel_error"] < 1e-5


def test_gabor_rejects_nonfinite_csv_signal(tmp_path, capsys):
    grid = Grid1D.regular(-20.0, 20.0, 64)
    values = np.pi ** -0.25 * np.exp(-grid.points ** 2 / 2.0)
    values[30] = np.inf
    rows = "\n".join("%.17g,%.17g,0" % (t, v)
                     for t, v in zip(grid.points, values))
    csv_path = tmp_path / "signal.csv"
    csv_path.write_text("# t,re,im\n" + rows + "\n")
    cfg = _write_config(tmp_path / "cfg.json", "gabor",
                        signal_csv=str(csv_path), n_tf=32)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite" in _stderr_error(capsys)
    assert not out.exists()


def test_gabor_rejects_zero_energy_csv_signal(tmp_path, capsys):
    grid = Grid1D.regular(-20.0, 20.0, 256)
    csv_path = tmp_path / "signal.csv"
    csv_path.write_text("# t,re,im\n"
                        + "".join("%.17g,0,0\n" % t for t in grid.points))
    cfg = _write_config(tmp_path / "cfg.json", "gabor",
                        signal_csv=str(csv_path), n_tf=32)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 2
    assert "zero energy" in _stderr_error(capsys)
    assert not out.exists()


def test_gabor_rejects_two_signal_sources(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", "gabor",
                        signal="gaussian", signal_csv="whatever.csv")
    rc = cli.main(["gabor", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "only one of" in _stderr_error(capsys)


# ---------------------------------------------------------------------------
# cylinder
# ---------------------------------------------------------------------------

def test_cylinder_run(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "cylinder",
                        n_theta=33, n_gamma=128)
    out = tmp_path / "out"
    assert cli.main(["cylinder", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["m_cutoff"] == 13
    assert report["parseval_rel_error"] < 1e-8
    assert report["roundtrip_rel_error"] < 1e-8
    for suffix in ("real", "imag", "modulus"):
        lines = (out / ("kernel_%s.csv" % suffix)).read_text().splitlines()
        assert lines[0] == "# " + cli.GENERIC_GRID_HEADER
        assert len(lines) == 2 + 33


def test_cylinder_kernel_csv_bytes_are_the_bessel_oracle(tmp_path):
    lam, m, mprime, n_theta = 2.0, 1, 0, 65
    cfg = _write_config(tmp_path / "cfg.json", "cylinder", lam=lam, m=m,
                        mprime=mprime, n_theta=n_theta, n_gamma=128)
    out = tmp_path / "out"
    assert cli.main(["cylinder", "--config", cfg, "--out", str(out)]) == 0
    axis = Grid1D.regular(-2.0 * np.pi, 2.0 * np.pi, n_theta)
    t, tp = axis.points[:, None], axis.points[None, :]
    x = 2.0 * lam * np.cos((t - tp) / 2.0)
    nu = abs(m - mprime)
    radial = np.sign(x) ** nu * iv(nu, np.abs(x)) / iv(0, 2.0 * lam)
    kernel = np.exp(1j * (mprime * t - m * tp) / 2.0) * radial
    meta = ",".join(["%.17g,%.17g,%d" % (axis.start, axis.step, n_theta)] * 2)
    head = ("# %s\n# %s\n" % (cli.GENERIC_GRID_HEADER, meta)).encode()
    for suffix, block in (("real", kernel.real), ("imag", kernel.imag),
                          ("modulus", np.abs(kernel))):
        body = io.BytesIO()
        csvtext.write_rows(body, block)
        assert (out / ("kernel_%s.csv" % suffix)).read_bytes() == head + body.getvalue()


def test_cylinder_run_with_one_frequency(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "cylinder",
                        n_theta=17, n_gamma=64, m_max=0)
    out = tmp_path / "out"
    assert cli.main(["cylinder", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out / "report.json")["m_cutoff"] == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "kernel_imag.csv", "kernel_modulus.csv", "kernel_real.csv",
        "manifest.json", "report.json"]


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def test_quantize_run_default_density(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "quantize",
                        n_tf=128, n_time=128, tf_min=-8.0, tf_max=8.0,
                        time_start=-10.0, time_stop=10.0)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    diag = _read_json(out / "diagnostics.json")
    assert diag["w"] == "gaussian"
    assert abs(diag["trace"] - 1.0) < 1e-6
    # exactly Hermitian, so the certificate factors dt*k itself
    assert diag["hermiticity_defect"] == 0.0
    assert diag["positive"] is True
    assert 0.0 < diag["positive_within"] < 1e-10
    assert "min_eigenvalue" not in diag
    assert 0.0 < diag["purity"] <= 1.0 + 1e-12
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "# t_i,t_j,re,im"
    assert len(lines) == 1 + 128 * 128


def test_quantize_run_overlap_density(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w="overlap", a=2.0, r=0.5,
                        n_tf=64, n_time=64, tf_min=-8.0, tf_max=8.0,
                        time_start=-10.0, time_stop=10.0)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    diag = _read_json(out / "diagnostics.json")
    assert diag["w"] == "overlap"
    assert abs(diag["trace"] - 1.0) < 1e-6
    assert diag["hermiticity_defect"] == 0.0
    assert diag["positive"] is True
    assert 0.0 < diag["positive_within"] < 1e-10


def test_kernel_csv_holds_the_exact_kernel(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "quantize",
                        n_tf=64, n_time=48, tf_min=-8.0, tf_max=8.0,
                        time_start=-10.0, time_stop=10.0)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "kernel.csv", delimiter=",", comments="#")
    tgrid = Grid1D.regular(-10.0, 10.0, 48)
    w = gaussian_distribution(PhaseSpaceGrid.square(-8.0, 8.0, 64)).normalized()
    entries = quantize_to_kernel(w, gaussian_probe(tgrid, 1.0)).entries
    t = tgrid.points
    assert rows.shape == (48 * 48, 4)
    assert np.array_equal(rows[:, 0], np.repeat(t, 48))
    assert np.array_equal(rows[:, 1], np.tile(t, 48))
    assert np.array_equal(rows[:, 2], entries.real.ravel())
    assert np.array_equal(rows[:, 3], entries.imag.ravel())


def test_kernel_csv_bytes_are_the_four_column_format(tmp_path):
    # odd n_time and an off-centre density, so no row or entry is special
    cfg = _write_config(tmp_path / "cfg.json", "quantize",
                        n_tf=32, n_time=31, tf_min=-6.0, tf_max=6.0,
                        time_start=-7.0, time_stop=7.0,
                        center_omega=0.7, center_b=-0.4)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    tgrid = Grid1D.regular(-7.0, 7.0, 31)
    w = gaussian_distribution(PhaseSpaceGrid.square(-6.0, 6.0, 32),
                              center=(0.7, -0.4)).normalized()
    with pytest.warns(BandCoverageWarning):
        entries = quantize_to_kernel(w, gaussian_probe(tgrid, 1.0)).entries
    t = tgrid.points
    expected = "# t_i,t_j,re,im\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g\n" % (t[i], t[j], entries[i, j].real,
                                       entries[i, j].imag)
        for i in range(31) for j in range(31))
    assert (out / "kernel.csv").read_bytes() == expected.encode("utf-8")


def _write_density_csv(path, normalized=True, poison=None):
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 16)
    w = gaussian_distribution(grid, 1.0, 1.0).normalized()
    values = w.values if normalized else 2.0 * w.values
    if poison is not None:
        values = values.copy()
        values[5, 7] = poison
    lines = ["# " + cli.PHASE_GRID_HEADER,
             "# " + ",".join(["%.17g" % grid.omega_axis.start,
                              "%.17g" % grid.omega_axis.step, "16",
                              "%.17g" % grid.b_axis.start,
                              "%.17g" % grid.b_axis.step, "16"])]
    for row in values:
        lines.append(",".join("%.17g" % v for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_quantize_accepts_normalized_csv_density(tmp_path):
    csv_path = _write_density_csv(tmp_path / "w.csv", normalized=True)
    cfg = _write_config(tmp_path / "cfg.json", "quantize",
                        w_csv=csv_path, n_time=64,
                        time_start=-10.0, time_stop=10.0)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    diag = _read_json(out / "diagnostics.json")
    assert diag["w"] == "csv:w.csv"
    assert abs(diag["trace"] - 1.0) < 1e-6
    assert diag["hermiticity_defect"] == 0.0


@pytest.mark.parametrize("poison", [float("nan"), float("inf")])
def test_quantize_rejects_nonfinite_csv_density(tmp_path, capsys, poison):
    csv_path = _write_density_csv(tmp_path / "w.csv", poison=poison)
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w_csv=csv_path)
    rc = cli.main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "non-finite" in _stderr_error(capsys)


def test_grid_csv_round_trips_exactly(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "stellar", n_grid=64)
    out = tmp_path / "out"
    assert cli.main(["stellar", "--config", cfg, "--out", str(out)]) == 0
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        density = stellar_distribution(pentagon_zeros(), 0.945, grid).distribution
        smoothed = portrait(density, 2.0, 2.0)
    for name, expected in (("w.csv", density), ("portrait.csv", smoothed)):
        w = cli._read_phase_grid_csv(out / name)
        assert w.grid == grid
        assert np.array_equal(w.values, expected.values)
        rewritten = tmp_path / ("again_" + name)
        cli._write_grid_csv(rewritten, w.grid.omega_axis, w.grid.b_axis,
                            w.values, cli.PHASE_GRID_HEADER)
        assert rewritten.read_bytes() == (out / name).read_bytes()


def test_quantize_rejects_nonfinite_grid_metadata(tmp_path, capsys):
    csv_path = _write_density_csv(tmp_path / "w.csv")
    lines = (tmp_path / "w.csv").read_text().splitlines()
    meta = lines[1].split(",")
    meta[1] = "nan"  # the omega step
    lines[1] = ",".join(meta)
    (tmp_path / "w.csv").write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w_csv=csv_path)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 2
    assert "must be finite" in _stderr_error(capsys)
    assert not out.exists()


def test_quantize_rejects_grid_metadata_whose_cell_measure_overflows(tmp_path, capsys):
    csv_path = _write_density_csv(tmp_path / "w.csv")
    lines = (tmp_path / "w.csv").read_text().splitlines()
    meta = lines[1].split(",")
    meta[1] = meta[4] = "1e300"  # both steps: their product overflows
    lines[1] = ",".join(meta)
    (tmp_path / "w.csv").write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w_csv=csv_path)
    out = tmp_path / "out"
    assert cli.main(["quantize", "--config", cfg, "--out", str(out)]) == 2
    assert _stderr_error(capsys) == ("grid CSV parse error: grid cell measure "
                                     "d(omega)*d(b)/(2*pi) is inf, not finite")
    assert not out.exists()


def test_quantize_rejects_negative_csv_density(tmp_path, capsys):
    csv_path = _write_density_csv(tmp_path / "w.csv", poison=-1e-3)
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w_csv=csv_path)
    rc = cli.main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "negative values" in _stderr_error(capsys)


def test_quantize_rejects_unnormalized_csv_density(tmp_path, capsys):
    csv_path = _write_density_csv(tmp_path / "w.csv", normalized=False)
    cfg = _write_config(tmp_path / "cfg.json", "quantize", w_csv=csv_path)
    rc = cli.main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "normalize" in _stderr_error(capsys)


# ---------------------------------------------------------------------------
# stellar
# ---------------------------------------------------------------------------

def test_stellar_run_pentagon_default(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "stellar", n_grid=128)
    out = tmp_path / "out"
    assert cli.main(["stellar", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["schema"] == 3
    assert len(report["zeros"]) == 6
    assert report["symmetry_fold"] == 5
    assert len(report["w_minima"]) == 6
    assert report["w_match"]["matched"] == 6
    assert report["w_match"]["max_displacement"] < 0.25
    for name in ("w.csv", "portrait.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "# " + cli.PHASE_GRID_HEADER
        assert len(lines) == 2 + 128
    manifest = _read_json(out / "manifest.json")
    assert any("MassLeakageWarning" in w for w in manifest["warnings"])


def test_stellar_run_custom_zeros(tmp_path):
    zeros_path = tmp_path / "zeros.json"
    zeros_path.write_text(json.dumps([{"re": 0.0, "im": 0.0},
                                      {"re": 1.0, "im": 0.5}]))
    cfg = _write_config(tmp_path / "cfg.json", "stellar",
                        zeros_json=str(zeros_path), s=0.5,
                        grid_min=-8.0, grid_max=8.0, n_grid=128,
                        a=1.0, r=1.0)
    out = tmp_path / "out"
    assert cli.main(["stellar", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert len(report["zeros"]) == 2
    assert "symmetry_fold" not in report


def test_stellar_rejects_malformed_zeros(tmp_path, capsys):
    zeros_path = tmp_path / "zeros.json"
    zeros_path.write_text(json.dumps([{"re": 1.0}]))
    cfg = _write_config(tmp_path / "cfg.json", "stellar",
                        zeros_json=str(zeros_path))
    rc = cli.main(["stellar", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "zeros JSON" in _stderr_error(capsys)


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", pytest.param("1" + "0" * 400, id="int-beyond-float")])
def test_stellar_rejects_nonfinite_zeros(tmp_path, capsys, literal):
    zeros_path = tmp_path / "zeros.json"
    zeros_path.write_text('[{"re": 0.0, "im": 0.0}, {"re": %s, "im": 0.5}]'
                          % literal)
    cfg = _write_config(tmp_path / "cfg.json", "stellar",
                        zeros_json=str(zeros_path), n_grid=64)
    out = tmp_path / "out"
    assert cli.main(["stellar", "--config", cfg, "--out", str(out)]) == 2
    assert "zeros JSON holds non-finite values" in _stderr_error(capsys)
    assert not out.exists()
    assert not list(tmp_path.glob(".weylgabor-*"))


def test_stellar_manifest_lists_each_warning_once(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "stellar", n_grid=64)
    out = tmp_path / "out"
    assert cli.main(["stellar", "--config", cfg, "--out", str(out)]) == 0
    texts = _read_json(out / "manifest.json")["warnings"]
    assert texts
    assert len(texts) == len(set(texts))


def test_stellar_strict_mode_reports_warnings(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "stellar", n_grid=128)
    out = tmp_path / "out"
    rc = cli.main(["stellar", "--config", cfg, "--out", str(out), "--strict"])
    assert rc == 3
    manifest = _read_json(out / "manifest.json")
    assert manifest["strict"] is True
    assert manifest["warnings"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_configs_give_identical_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "gabor", n_time=256, n_tf=64)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["gabor", "--config", cfg, "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        if name == "manifest.json":
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = _read_json(out1 / "manifest.json")
    m2 = _read_json(out2 / "manifest.json")
    m1.pop("wall_time_s")
    m2.pop("wall_time_s")
    assert m1 == m2


# ---------------------------------------------------------------------------
# validation and failure hygiene
# ---------------------------------------------------------------------------

def test_default_runs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each default run in two fresh processes, under one BLAS thread and
    # under two: every artifact and every manifest entry but wall_time_s is
    # equal.  quantize_to_kernel makes no BLAS call, and diagnostics.json
    # holds the certificate's outcome and numpy's row sums, no eigenvalue.
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    for command in cli.COMMANDS:
        outs, procs = [], []
        for threads in ("1", "2"):
            out = tmp_path / ("%s-%s" % (command, threads))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "weylgabor", command, "--out", str(out)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            outs.append(out)
        for proc in procs:
            error = proc.communicate()[1]
            assert proc.returncode == 0, error
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name == "manifest.json":
                manifests = [_read_json(out / name) for out in outs]
                for manifest in manifests:
                    manifest.pop("wall_time_s")
                assert manifests[0] == manifests[1], command
            else:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                    "%s artifact %s" % (command, name)


def test_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"comand": "gabor"}))
    rc = cli.main(["gabor", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key" in _stderr_error(capsys)


def test_config_command_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", "gabor")
    rc = cli.main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "does not match" in _stderr_error(capsys)


def test_unknown_parameter(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", "gabor", bogus=1)
    rc = cli.main(["gabor", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown parameter" in _stderr_error(capsys)


@pytest.mark.parametrize("command,parameters,key,source", [
    ("quantize", {"a": 2.0}, "a", "w='gaussian'"),
    ("quantize", {"w": "overlap", "sigma_b": 2.0}, "sigma_b", "w='overlap'"),
    ("quantize", {"w_csv": "w.csv", "n_tf": 64}, "n_tf", "w_csv"),
    # the refused key is reported before the missing file is opened
    ("quantize", {"w_csv": "missing.csv", "n_tf": 64}, "n_tf", "w_csv"),
    ("gabor", {"signal_csv": "signal.csv", "n_time": 64}, "n_time", "signal_csv"),
])
def test_keys_the_input_does_not_read_are_refused(tmp_path, capsys, command,
                                                  parameters, key, source):
    _write_density_csv(tmp_path / "w.csv")
    (tmp_path / "signal.csv").write_text(
        "".join("%d,%.17g,0\n" % (t, np.exp(-t * t / 8.0)) for t in range(-8, 8)))
    parameters = {k: str(tmp_path / v) if k.endswith("_csv") else v
                  for k, v in parameters.items()}
    cfg = _write_config(tmp_path / "cfg.json", command, **parameters)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert _stderr_error(capsys) == "unknown parameter(s) with %s: %s" % (source, key)
    assert not out.exists()
    assert not list(tmp_path.glob(".weylgabor-*"))


def test_out_of_range_shape_parameter(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", "stellar", s=1.2, n_grid=64)
    rc = cli.main(["stellar", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "s must lie" in _stderr_error(capsys)


def test_bad_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "gabor", "seed": -1}))
    rc = cli.main(["gabor", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in _stderr_error(capsys)


@pytest.mark.parametrize("command,key,literal", [
    ("stellar", "match_cutoff", "NaN"),
    ("cylinder", "shift_theta", "Infinity"),
    ("gabor", "probe_width", "NaN"),
])
def test_nonfinite_config_number(tmp_path, capsys, command, key, literal):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "%s", "parameters": {"%s": %s}}'
                   % (command, key, literal))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "%r must be a finite number" % key in _stderr_error(capsys)
    assert not out.exists()
    assert not list(tmp_path.glob(".weylgabor-*"))


def test_threads_is_an_unknown_argument(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["group-check", "--out", str(tmp_path / "out"),
                  "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_refuses_nonempty_output_dir(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.txt").write_text("old run")
    cfg = _write_config(tmp_path / "cfg.json", "gabor", n_time=64, n_tf=32)
    rc = cli.main(["gabor", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "not an empty directory" in _stderr_error(capsys)
    assert (out / "stale.txt").read_text() == "old run"


def test_failed_run_leaves_no_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", "gabor", bogus=1)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists()
    assert not list(tmp_path.glob(".weylgabor-*"))


@pytest.mark.parametrize("command,parameters,message", [
    ("gabor", {"probe_width": 0.0}, "'probe_width' must be positive"),
    ("gabor", {"probe_width": 1e-6}, "does not fit the time grid"),
    ("gabor", {"time_start": 5.0, "time_stop": -5.0},
     "'time_start' must be below 'time_stop'"),
    ("gabor", {"signal": "square"}, "unknown test signal"),
    ("cylinder", {"lam": 0.0}, "lam must lie"),
    ("cylinder", {"n_gamma": 64, "m_max": 40}, "m_max must satisfy"),
    ("quantize", {"sigma_b": -1.0}, "'sigma_b' must be positive"),
    ("quantize", {"w": "overlap", "a": 0.0}, "'a' must be positive"),
    ("quantize", {"tf_min": 1.0, "tf_max": 1.0}, "'tf_min' must be below"),
    ("quantize", {"center_omega": 1e4}, "no mass on the grid"),
    ("stellar", {"s": 0.0}, "s must lie"),
    ("stellar", {"r": -2.0}, "'r' must be positive"),
    ("stellar", {"rel_threshold": 1.5}, "rel_threshold must lie"),
    ("stellar", {"grid_min": 4.0, "grid_max": -4.0}, "'grid_min' must be below"),
    ("stellar", {"grid_min": -4.1, "grid_max": 4.0, "n_grid": 64},
     "origin is not on the lattice"),
    ("stellar", {"grid_min": 1.0, "grid_max": 3.0, "n_grid": 32},
     "origin is not on the lattice"),
    ("stellar", {"n_grid": 33}, "origin is not on the lattice"),
    ("stellar", {"grid_min": 200.0, "grid_max": 210.0, "n_grid": 16},
     "origin is not on the lattice"),
    ("stellar", {"match_cutoff": -1.0}, "'match_cutoff' must be positive"),
    ("stellar", {"match_cutoff": 0.0}, "'match_cutoff' must be positive"),
    ("cylinder", {"m": 10 ** 400}, "'m' is out of range"),
    ("gabor", {"n_time": 10 ** 400}, "'n_time' is out of range"),
    ("group-check", {"trials": 10 ** 400}, "'trials' is out of range"),
    ("gabor", {"time_start": -1.5e308, "time_stop": 1.5e308},
     "'time_start' to 'time_stop' is wider than float range"),
    ("quantize", {"tf_min": -1.5e308, "tf_max": 1.5e308},
     "'tf_min' to 'tf_max' is wider than float range"),
    ("stellar", {"grid_min": -1.5e308, "grid_max": 1.5e308},
     "'grid_min' to 'grid_max' is wider than float range"),
    ("group-check", {"trials": 10 ** 21}, "'trials' is out of range"),
    ("stellar", {"n_grid": 10 ** 21}, "'n_grid' is out of range"),
    ("gabor", {"n_time": 10 ** 21}, "'n_time' is out of range"),
    ("cylinder", {"m": 40, "mprime": -25}, "|m - mprime| must be at most 64"),
    ("quantize", {"sigma_omega": 1e-200},
     "parameter 'sigma_omega' is out of range: 2*sigma_omega**2 underflows to 0"),
    ("quantize", {"sigma_b": 1e200},
     "parameter 'sigma_b' is out of range: 2*sigma_b**2 overflows"),
    ("quantize", {"sigma_omega": 1e-155, "sigma_b": 1e-155},
     "'sigma_omega' * 'sigma_b' is too small"),
    ("quantize", {"w": "overlap", "r": 5e-324}, "parameter 'r' is too small: 1/r overflows"),
    ("cylinder", {"n_gamma": 8}, "parameter 'n_gamma' 8 is too small for the window"),
    ("stellar", {"s": 5e-324}, "parameter 's' is too small: 1/s overflows"),
    ("stellar", {"a": 5e-324}, "parameter 'a' is too small: 1/a overflows"),
    ("stellar", {"r": 5e-324}, "parameter 'r' is too small: 1/r overflows"),
    ("gabor", {"n_time": 64, "n_tf": 16, "tf_max": 1e160},
     "'tf_min' to 'tf_max' is too wide for 'n_tf': the cell measure overflows"),
    ("gabor", {"n_time": 64, "n_tf": 16, "tf_min": -1e300},
     "'tf_min' to 'tf_max' is too wide for 'n_tf': the cell measure overflows"),
    ("quantize", {"n_time": 64, "n_tf": 16, "tf_max": 1e300},
     "'tf_min' to 'tf_max' is too wide for 'n_tf': the cell measure overflows"),
    ("stellar", {"n_grid": 16, "grid_max": 1e26},
     "'grid_min' to 'grid_max' is too wide for 6 zeros: the zero polynomial overflows"),
    ("stellar", {"n_grid": 16, "grid_max": 1e300},
     "'grid_min' to 'grid_max' is too wide for 'n_grid': the cell measure overflows"),
    ("gabor", {"n_time": 64, "n_tf": 16, "tf_max": 1e150},
     "'tf_min' to 'tf_max' is too wide for 'n_tf': the energy report overflows"),
    ("gabor", {"n_time": 64, "n_tf": 16, "tf_max": 1e100},
     "'tf_min' to 'tf_max' is too wide for 'n_tf': the energy report overflows"),
    ("stellar", {"grid_min": -1e-300, "grid_max": 1e-300, "n_grid": 16},
     "'grid_min' to 'grid_max' is too narrow for 'n_grid': the cell measure underflows to 0"),
    ("gabor", {"tf_min": -1e-300, "tf_max": 1e-300},
     "'tf_min' to 'tf_max' is too narrow for 'n_tf': the cell measure underflows to 0"),
    ("quantize", {"tf_min": -1e-300, "tf_max": 1e-300},
     "'tf_min' to 'tf_max' is too narrow for 'n_tf': the cell measure underflows to 0"),
])
def test_bad_parameters_are_validation_failures(tmp_path, capsys, command,
                                                parameters, message):
    cfg = _write_config(tmp_path / "cfg.json", command, **parameters)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in _stderr_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command,parameters", [
    ("stellar", {"n_grid": 16, "grid_max": 1e25}),
    ("gabor", {"n_time": 64, "n_tf": 16, "tf_max": 1e75}),
])
def test_wide_spans_below_the_overflow_refusals_still_run(tmp_path, command, parameters):
    # below the refusals above: (sqrt(2)*1e25)^12 stays finite, and so does
    # every number of the energy report of a 1e75 span over 16 cells
    cfg = _write_config(tmp_path / "cfg.json", command, **parameters)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    json.loads((tmp_path / "out" / "report.json").read_text(),
               parse_constant=_refuse_constant)


@pytest.mark.parametrize("module,name", [(gabor, "chirp_z"),
                                         (csvtext, "_format")])
def test_internal_faults_exit_1(tmp_path, capsys, monkeypatch, module, name):
    # a ValueError from inside the numerics or the writer is not bad input
    def fault(*args, **kwargs):
        raise ValueError("injected fault")
    monkeypatch.setattr(module, name, fault)
    cfg = _write_config(tmp_path / "cfg.json", "gabor", n_time=64, n_tf=32)
    out = tmp_path / "out"
    assert cli.main(["gabor", "--config", cfg, "--out", str(out)]) == 1
    assert _stderr_error(capsys) == "internal: ValueError: injected fault"
    assert not out.exists()
    assert not list(tmp_path.glob(".weylgabor-*"))


# ---------------------------------------------------------------------------
# every key drawn: exit codes and JSON over sane and extreme values
# ---------------------------------------------------------------------------

# the extremes every key is drawn from besides its sane values
_EXTREMES = st.sampled_from([0, 1, -1, 1e300, -1e300, 5e-324, -5e-324, 1e-300,
                             True, "x", None])
# placeholders for the paths of the input files each example writes
_GOOD_FILE, _MISSING_FILE = "<good file>", "<missing file>"
_PATH = st.sampled_from([_GOOD_FILE, _MISSING_FILE])


def _size(low, high):
    # uniform from one below the minimum the CLI accepts up to a small size
    return st.sampled_from(range(low - 1, high + 1))


def _spans(lo_key, los, hi_key, his):
    return {lo_key: st.sampled_from(los), hi_key: st.sampled_from(his)}


def _drawn(*sources):
    """Parameters of one input source, each given as (required, optional)
    strategies by key, with up to two keys of any source, or the config's
    seed, set to extremes."""
    keys = sorted(set().union(*(set(req) | set(opt) for req, opt in sources), {"seed"}))
    sane = st.one_of(*(st.fixed_dictionaries(req, optional=opt) for req, opt in sources))
    extreme = st.dictionaries(st.sampled_from(keys), _EXTREMES, max_size=2)
    return st.builds(lambda params, extremes: {**params, **extremes}, sane, extreme)


_RUN = {"seed": st.integers(0, 2 ** 32), "strict": st.booleans()}
_TIME = {"probe_width": st.floats(0.3, 3.0),
         **_spans("time_start", [-8.0, -12.0], "time_stop", [8.0, 12.0])}
_TF = _spans("tf_min", [-4.0, -8.0], "tf_max", [4.0, 8.0])


def _write_inputs(tmp: Path, zeros) -> dict:
    """The good input file of each path key, by key."""
    t = np.linspace(-8.0, 8.0, 64, endpoint=False)
    signal = np.column_stack([t, np.pi ** -0.25 * np.exp(-t ** 2 / 2.0), 0.0 * t])
    np.savetxt(tmp / "signal.csv", signal, delimiter=",")
    grid = PhaseSpaceGrid.square(-4.0, 4.0, 16)
    w = gaussian_distribution(grid).normalized()
    cli._write_grid_csv(tmp / "w.csv", grid.omega_axis, grid.b_axis, w.values,
                        cli.PHASE_GRID_HEADER)
    (tmp / "zeros.json").write_text(json.dumps(zeros))
    return {"signal_csv": tmp / "signal.csv", "w_csv": tmp / "w.csv",
            "zeros_json": tmp / "zeros.json"}


def _run_drawn(command, parameters, seed, strict, zeros=()):
    """Run ``command`` on the drawn config in a fresh directory: the exit
    code is 0, 2 or 3, never 1; a refusal ends stderr with one JSON error
    object, and a completed run writes no NaN or Infinity into its JSON."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        files = _write_inputs(tmp, [{"re": re, "im": im} for re, im in zeros])
        parameters = {key: str(files[key]) if value == _GOOD_FILE
                      else str(tmp / "missing") if value == _MISSING_FILE else value
                      for key, value in parameters.items()}
        cfg = _write_config(tmp / "cfg.json", command, parameters.pop("seed", seed),
                            **parameters)
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg, "--out", str(out)]
                            + ["--strict"] * strict)
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            payload = json.loads(err.getvalue().strip().splitlines()[-1])
            assert isinstance(payload, dict) and "error" in payload
            return
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


@given(parameters=_drawn(({"trials": _size(1, 4)}, {})), **_RUN)
def test_group_check_exits_0_2_or_3_on_any_key(parameters, seed, strict):
    _run_drawn("group-check", parameters, seed, strict)


@given(parameters=_drawn(
    ({"n_time": _size(2, 64), "n_tf": _size(2, 16)},
     {"signal": st.sampled_from(["gaussian", "two_bump", "modulated", "chirp_tones"]),
      **_TIME, **_TF}),
    ({"signal_csv": _PATH, "n_tf": _size(2, 16)},
     {"probe_width": st.floats(0.3, 3.0), **_TF})), **_RUN)
@example(parameters={"n_time": 64, "n_tf": 16, "tf_min": -1e300}, seed=0, strict=False)
@example(parameters={"n_time": 64, "n_tf": 16, "tf_max": 1e300}, seed=0, strict=False)
@example(parameters={"n_time": 64, "n_tf": 16, "tf_max": 1e150}, seed=0, strict=False)
def test_gabor_exits_0_2_or_3_on_any_key(parameters, seed, strict):
    _run_drawn("gabor", parameters, seed, strict)


@given(parameters=_drawn(
    ({"n_theta": _size(2, 9), "n_gamma": _size(8, 32)},
     {"lam": st.floats(0.1, 50.0), "m": st.integers(-8, 8), "mprime": st.integers(-8, 8),
      "m_max": st.integers(0, 16), "shift_m": st.integers(-8, 8),
      "shift_theta": st.floats(-7.0, 7.0)})), **_RUN)
@example(parameters={"n_theta": 9, "n_gamma": 8}, seed=0, strict=False)
def test_cylinder_exits_0_2_or_3_on_any_key(parameters, seed, strict):
    _run_drawn("cylinder", parameters, seed, strict)


@given(parameters=_drawn(
    ({"n_time": _size(2, 64), "n_tf": _size(2, 16)},
     {"w": st.just("gaussian"), "sigma_omega": st.floats(0.3, 3.0),
      "sigma_b": st.floats(0.3, 3.0), "center_omega": st.floats(-3.0, 3.0),
      "center_b": st.floats(-3.0, 3.0), **_TF, **_TIME}),
    ({"w": st.just("overlap"), "n_time": _size(2, 64), "n_tf": _size(2, 16)},
     {"a": st.floats(0.3, 4.0), "r": st.floats(0.3, 4.0), **_TF, **_TIME}),
    ({"w_csv": _PATH, "n_time": _size(2, 64)}, _TIME)), **_RUN)
@example(parameters={"n_time": 64, "n_tf": 16, "sigma_omega": 1e-300}, seed=0, strict=False)
@example(parameters={"n_time": 64, "n_tf": 16, "sigma_b": 1e300}, seed=0, strict=False)
def test_quantize_exits_0_2_or_3_on_any_key(parameters, seed, strict):
    _run_drawn("quantize", parameters, seed, strict)


_STELLAR = {"s": st.floats(0.05, 0.99), "a": st.floats(0.5, 4.0),
            "r": st.floats(0.5, 4.0),
            **_spans("grid_min", [-4.0, -2.0], "grid_max", [4.0, 6.0]),
            "rel_threshold": st.floats(1e-3, 1.0), "match_cutoff": st.floats(0.1, 2.0),
            "symmetry_fold": st.integers(2, 8)}


@given(parameters=_drawn(
    ({"n_grid": _size(16, 24)}, {"zeros": st.just("pentagon"), **_STELLAR}),
    ({"zeros_json": _PATH, "n_grid": _size(16, 24)}, _STELLAR)),
       zeros=st.lists(st.tuples(*[st.one_of(st.floats(-2.0, 2.0), _EXTREMES)] * 2),
                      min_size=1, max_size=4), **_RUN)
@example(parameters={"n_grid": 16, "s": 5e-324}, zeros=[(0.5, 0.5)], seed=0, strict=False)
@example(parameters={"n_grid": 16, "a": 5e-324}, zeros=[(0.5, 0.5)], seed=0, strict=False)
@example(parameters={"n_grid": 16, "r": 5e-324}, zeros=[(0.5, 0.5)], seed=0, strict=False)
@example(parameters={"n_grid": 16, "grid_max": 1e300}, zeros=[(0.5, 0.5)], seed=0,
         strict=False)
def test_stellar_exits_0_2_or_3_on_any_key(parameters, zeros, seed, strict):
    _run_drawn("stellar", parameters, seed, strict, zeros)


# ---------------------------------------------------------------------------
# CSV writer: memory, laziness, fallback share
# ---------------------------------------------------------------------------

_WRITER_PEAK_BYTES = 2 * 2 ** 20  # far below the text of either file


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_csv_writer_streams(tmp_path):
    values = np.random.default_rng(5).random((512, 512))
    axis = Grid1D.regular(-4.0, 4.0, 512)
    peak = _traced_peak(lambda: cli._write_grid_csv(
        tmp_path / "w.csv", axis, axis, values, cli.PHASE_GRID_HEADER))
    assert (tmp_path / "w.csv").stat().st_size > 2 * _WRITER_PEAK_BYTES
    assert peak < _WRITER_PEAK_BYTES


def test_kernel_csv_writer_streams(tmp_path, monkeypatch):
    tgrid = Grid1D.regular(-20.0, 20.0, 384)
    rng = np.random.default_rng(6)
    kernel = OperatorKernel(tgrid, rng.standard_normal((384, 384))
                            + 1j * rng.standard_normal((384, 384)))
    # only the writer runs at full size: the kernel is precomputed
    monkeypatch.setattr(cli, "quantize_to_kernel", lambda w, probe: kernel)
    monkeypatch.setattr(cli, "kernel_diagnostics", lambda k: {})
    monkeypatch.setattr(cli, "positivity_certificate", lambda k: {})
    cfg = _write_config(tmp_path / "cfg.json", "quantize", n_time=384, n_tf=16)
    out = tmp_path / "out"
    peak = _traced_peak(lambda: cli.main(
        ["quantize", "--config", cfg, "--out", str(out)]))
    assert (out / "kernel.csv").stat().st_size > 2 * _WRITER_PEAK_BYTES
    assert peak < _WRITER_PEAK_BYTES


def test_few_values_take_the_python_fallback(tmp_path, monkeypatch):
    # the fallback takes the values too near a rounding tie to decide and
    # the nonzero magnitudes outside the exact range
    counts = {"values": 0, "fallback": 0}
    bulk, decimal = csvtext._format, csvtext._decimal

    def counted_bulk(values, slots):
        counts["values"] += values.size
        ax = np.abs(values)
        counts["fallback"] += np.count_nonzero(
            (ax != 0) & ((ax < csvtext._EXACT_MIN) | (ax > csvtext._EXACT_MAX)))
        bulk(values, slots)

    def counted_decimal(ax, tab):
        digits, exponent, uncertain = decimal(ax, tab)
        counts["fallback"] += np.count_nonzero(uncertain)
        return digits, exponent, uncertain

    monkeypatch.setattr(csvtext, "_format", counted_bulk)
    monkeypatch.setattr(csvtext, "_decimal", counted_decimal)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command in ("stellar", "quantize", "cylinder"):
            assert cli.main([command, "--out", str(tmp_path / command)]) == 0
    assert counts["values"] > 500_000
    assert counts["fallback"] * 10 ** 4 < counts["values"]


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_signal_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weylgabor.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # FFTs come from numpy.fft, scipy.special is imported on the first
    # Bessel value and numpy.polynomial on the first Gauss-Hermite rule, so
    # importing the CLI and then every other module of the package loads
    # neither scipy nor numpy.polynomial
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, pkgutil, sys, weylgabor.cli\n"
         "for m in pkgutil.iter_modules(weylgabor.__path__):\n"
         "    importlib.import_module('weylgabor.' + m.name)\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
         "             or m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command, parameters", [
    ("stellar", {"n_grid": 64}),
    ("quantize", {"n_tf": 64, "n_time": 64, "tf_min": -8.0, "tf_max": 8.0,
                  "time_start": -10.0, "time_stop": 10.0}),
    ("gabor", {"n_time": 256, "n_tf": 64}),
])
def test_cli_run_leaves_numpy_ma_unloaded(tmp_path, command, parameters):
    # np.union1d, and np.unique without return_inverse, import numpy.ma on
    # their first call; a cold run of these subcommands loads it nowhere
    # (cylinder is left out: scipy.special imports numpy.ma itself)
    cfg = _write_config(tmp_path / "cfg.json", command, **parameters)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weylgabor.cli\n"
         "code = weylgabor.cli.main(sys.argv[1:])\n"
         "print(code, 'numpy.ma' in sys.modules)",
         command, "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_cli_import_runs_no_refine_design_svd():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import weylgabor.cli, weylgabor.numerics as n; "
         "print(n._refine_design.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_builds_no_gauss_hermite_rule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import weylgabor.cli, weylgabor.stellar as s; "
         "print(s._gauss_hermite.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_builds_no_formatter_table():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import weylgabor.cli, weylgabor.csvtext as c; "
         "print(c._tables.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_module_invocation(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "group-check", trials=5)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "weylgabor", "group-check",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert _read_json(out / "group_check.json")["all_pass"] is True
