"""End-to-end command-line runs: configs, artifacts, manifests, exit codes."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

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


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["schema"] == 2
    return payload["error"]


# ---------------------------------------------------------------------------
# group-check
# ---------------------------------------------------------------------------

def test_group_check_run(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", "group-check", seed=7, trials=50)
    out = tmp_path / "out"
    assert cli.main(["group-check", "--config", cfg, "--out", str(out)]) == 0
    report = _read_json(out / "group_check.json")
    assert report["schema"] == 2
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
    assert diag["hermiticity_defect"] < 1e-8
    assert diag["min_eigenvalue"] >= -1e-8
    assert 0.0 < diag["purity"] <= 1.0 + 1e-12
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "# t_i,t_j,re,im"
    assert len(lines) == 1 + 128 * 128


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
    assert report["schema"] == 2
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
])
def test_bad_parameters_are_validation_failures(tmp_path, capsys, command,
                                                parameters, message):
    cfg = _write_config(tmp_path / "cfg.json", command, **parameters)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in _stderr_error(capsys)
    assert not out.exists()


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
    monkeypatch.setattr(cli, "density_diagnostics", lambda k: {})
    cfg = _write_config(tmp_path / "cfg.json", "quantize", n_time=384, n_tf=16)
    out = tmp_path / "out"
    peak = _traced_peak(lambda: cli.main(
        ["quantize", "--config", cfg, "--out", str(out)]))
    assert (out / "kernel.csv").stat().st_size > 2 * _WRITER_PEAK_BYTES
    assert peak < _WRITER_PEAK_BYTES


def test_few_values_take_the_python_fallback(tmp_path, monkeypatch):
    counts = {"values": 0, "fallback": 0}
    bulk, fallback = csvtext._format, csvtext._fallback_text

    def counted_bulk(values, buf, keep):
        counts["values"] += values.size
        bulk(values, buf, keep)

    def counted_fallback(value):
        counts["fallback"] += 1
        return fallback(value)

    monkeypatch.setattr(csvtext, "_format", counted_bulk)
    monkeypatch.setattr(csvtext, "_fallback_text", counted_fallback)
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
    # FFTs come from numpy.fft, and scipy.special is imported on the first
    # Bessel value, so importing the CLI and then every other module of
    # the package loads no scipy module at all
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, pkgutil, sys, weylgabor.cli\n"
         "for m in pkgutil.iter_modules(weylgabor.__path__):\n"
         "    importlib.import_module('weylgabor.' + m.name)\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
